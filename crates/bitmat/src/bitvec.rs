//! Fixed-length packed bitset.

use crate::{tail_mask, words_for};

/// A fixed-length bitset packed into `u64` words.
///
/// Used for the per-role "alive" sets of the constraint network: bit `i` is
/// set while role value `i` is still a candidate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// All-zero bitset of length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; words_for(len)],
        }
    }

    fn clamp_tail(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.len);
        }
    }

    /// Reset to an all-zero bitset of length `len`, reusing the existing
    /// word buffer (no allocation when capacity suffices). For scratch
    /// bitsets that are cleared and resized every round.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        let n = words_for(len);
        self.words.clear();
        self.words.resize(n, 0);
    }

    /// Reset to an all-one bitset of length `len`, reusing the existing
    /// word buffer (no allocation when capacity suffices).
    pub fn reset_ones(&mut self, len: usize) {
        self.len = len;
        let n = words_for(len);
        self.words.clear();
        self.words.resize(n, !0u64);
        self.clamp_tail();
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if any bit is set.
    pub fn any(&self) -> bool {
        !self.none()
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Raw words (read-only), little-endian bit order within each word.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// In-place union with a raw word slice of the same word length —
    /// the accumulator behind [`crate::BitMatrix::col_occupancy`]. The
    /// caller guarantees `words` has no bits set past `self.len` (true for
    /// any matrix row whose column count equals this vector's length).
    pub fn or_assign_raw(&mut self, words: &[u64]) {
        assert_eq!(self.words.len(), words.len(), "word length mismatch");
        for (a, b) in self.words.iter_mut().zip(words) {
            *a |= *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.count_ones(), 0);
        assert!(z.none());
        let mut o = BitVec::zeros(0);
        o.reset_ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.any());
        // Tail bits beyond len must not be set.
        assert_eq!(o.words()[1] >> 6, 0);
    }

    #[test]
    fn reset_reuses_buffer_and_matches_zeros() {
        let mut v = BitVec::zeros(0);
        v.reset_ones(130);
        for len in [130, 7, 200, 0, 64] {
            v.reset(len);
            assert_eq!(v, BitVec::zeros(len));
            if len > 0 {
                // Dirty the buffer so the next round proves the clearing.
                v.set(len - 1, true);
            }
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut v = BitVec::zeros(200);
        let idx = [3usize, 64, 65, 140, 199];
        for &i in &idx {
            v.set(i, true);
        }
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn empty_bitvec() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert!(v.none());
        assert_eq!(v.iter_ones().count(), 0);
    }

    proptest! {
        #[test]
        fn count_matches_reference(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let mut v = BitVec::zeros(bits.len());
            for (i, &b) in bits.iter().enumerate() {
                v.set(i, b);
            }
            let expected = bits.iter().filter(|&&b| b).count();
            prop_assert_eq!(v.count_ones(), expected);
            let ones: Vec<usize> = bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
            prop_assert_eq!(v.iter_ones().collect::<Vec<_>>(), ones);
        }
    }
}
