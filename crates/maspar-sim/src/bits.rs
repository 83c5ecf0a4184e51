//! Packed boolean plurals: 64 virtual PEs per `u64` word.
//!
//! The MP-1's PEs are 4-bit bit-serial processors, and PARSEC's hot loops
//! are machine-wide boolean operations. [`PluralBits`] is the bit-sliced
//! representation of a `Plural<bool>`: bit `pe % 64` of word `pe / 64`
//! holds PE `pe`'s value, so one host word-op executes 64 simulated PEs —
//! genuine host-SIMD execution of the simulated SIMD machine. The machine
//! keeps its enable/activity and dead-PE masks in the same packed form, so
//! the word-parallel kernels in [`crate::Machine`] (`par_write_bits`,
//! `par_map_bits`, `scan_or_bits`, `scan_and_bits`) mask activity,
//! deadness and data with plain bitwise ops.
//!
//! Invariant: bits at positions `len..` of the last word are always zero,
//! so popcounts and word scans never see PEs past the end.
//!
//! Like [`crate::Plural`], construction goes through the machine
//! ([`crate::Machine::alloc_bits`]) so the 16 KB-per-PE budget is charged
//! — one simulated byte per PE, exactly what the unpacked `Plural<bool>`
//! costs, because the *simulated* memory footprint is a property of the
//! program, not of the host representation.

/// Words needed to hold `len` bits.
pub(crate) fn word_count(len: usize) -> usize {
    len.div_ceil(64)
}

/// Mask of the valid bits in the last word of a `len`-bit vector.
pub(crate) fn tail_mask(len: usize) -> u64 {
    match len % 64 {
        0 => !0,
        r => (1u64 << r) - 1,
    }
}

/// A packed boolean plural: one bit per virtual PE, 64 PEs per word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PluralBits {
    words: Vec<u64>,
    len: usize,
}

impl PluralBits {
    /// All PEs set to `v`, in the host buffer `words` (its contents are
    /// discarded). Allocate through [`crate::Machine::alloc_bits`].
    pub(crate) fn filled_in(mut words: Vec<u64>, len: usize, v: bool) -> Self {
        words.clear();
        words.resize(word_count(len), if v { !0u64 } else { 0 });
        if v {
            if let Some(last) = words.last_mut() {
                *last &= tail_mask(len);
            }
        }
        PluralBits { words, len }
    }

    /// The host buffer, for reuse by the next allocation.
    pub(crate) fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Number of virtual PEs.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read one PE's bit (host-side readback, free in the cost model).
    pub fn get(&self, pe: usize) -> bool {
        assert!(
            pe < self.len,
            "PE {pe} outside packed plural of {}",
            self.len
        );
        self.words[pe / 64] >> (pe % 64) & 1 == 1
    }

    /// PEs whose bit is set.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Host-side raw view of the packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Flip one PE's bit (the packed form of a `bool` memory-word fault —
    /// a 1-bit word always flips, see [`crate::fault::FaultWord`]).
    pub(crate) fn flip(&mut self, pe: usize) {
        debug_assert!(pe < self.len);
        self.words[pe / 64] ^= 1u64 << (pe % 64);
    }

    /// Unpack to one bool per PE (differential-testing readback).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|pe| self.get(pe)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_helpers() {
        assert_eq!(word_count(0), 0);
        assert_eq!(word_count(1), 1);
        assert_eq!(word_count(64), 1);
        assert_eq!(word_count(65), 2);
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(65), 1);
        assert_eq!(tail_mask(3), 0b111);
    }

    #[test]
    fn filled_keeps_tail_bits_zero() {
        let p = PluralBits::filled_in(Vec::new(), 70, true);
        assert_eq!(p.len(), 70);
        assert_eq!(p.count_ones(), 70);
        assert_eq!(p.words()[1], tail_mask(70));
        let q = PluralBits::filled_in(Vec::new(), 70, false);
        assert_eq!(q.count_ones(), 0);
    }

    #[test]
    fn get_flip_roundtrip() {
        let mut p = PluralBits::filled_in(Vec::new(), 100, false);
        p.flip(0);
        p.flip(64);
        p.flip(99);
        assert!(p.get(0) && p.get(64) && p.get(99));
        assert!(!p.get(1));
        assert_eq!(p.count_ones(), 3);
        p.flip(64);
        assert!(!p.get(64));
        p.flip(0);
        assert_eq!(p.count_ones(), 1);
        assert_eq!(p.to_bools().iter().filter(|&&b| b).count(), 1);
    }
}
