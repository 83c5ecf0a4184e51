//! Row-major packed boolean matrix — the CDG arc matrix.

use crate::bitvec::BitVec;
use crate::words_for;

/// A packed boolean matrix with `rows × cols` entries.
///
/// Rows are stored contiguously as `u64` words, so the hot operations of the
/// CDG parser — zeroing a row, testing whether a row is all zero, masking a
/// row by the alive set of the opposite role — are word-parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    row_words: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let row_words = words_for(cols);
        BitMatrix {
            rows,
            cols,
            row_words,
            words: vec![0; rows * row_words],
        }
    }

    /// All-zero matrix reusing `buf`'s allocation (see [`BitMatrix::into_words`]).
    /// The buffer is cleared and resized; its capacity is kept, so a
    /// `zeros_from`/`into_words` cycle allocates only when the matrix grows
    /// past every buffer it has recycled — the basis of the arc-matrix pool
    /// used by batched parsing.
    pub fn zeros_from(rows: usize, cols: usize, mut buf: Vec<u64>) -> Self {
        let row_words = words_for(cols);
        buf.clear();
        buf.resize(rows * row_words, 0);
        BitMatrix {
            rows,
            cols,
            row_words,
            words: buf,
        }
    }

    /// Surrender the backing word buffer for reuse via [`BitMatrix::zeros_from`].
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn check(&self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of range for {}x{} matrix",
            self.rows,
            self.cols
        );
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.check(r, c);
        (self.words[r * self.row_words + c / 64] >> (c % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.check(r, c);
        let w = &mut self.words[r * self.row_words + c / 64];
        let mask = 1u64 << (c % 64);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Words of row `r` (read-only).
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.row_words..(r + 1) * self.row_words]
    }

    /// Words of row `r` (mutable).
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.row_words..(r + 1) * self.row_words]
    }

    /// Set every entry of row `r` to zero.
    pub fn zero_row(&mut self, r: usize) {
        self.row_mut(r).fill(0);
    }

    /// Set every entry of column `c` to zero — one strided word sweep
    /// (single column-word mask, `row_words` stride) instead of per-row
    /// index arithmetic.
    pub fn zero_col(&mut self, c: usize) {
        assert!(c < self.cols, "column {c} out of range");
        if self.rows == 0 {
            return;
        }
        let mask = !(1u64 << (c % 64));
        for w in self.words[c / 64..].iter_mut().step_by(self.row_words) {
            *w &= mask;
        }
    }

    /// True if row `r` contains at least one 1.
    pub fn row_any(&self, r: usize) -> bool {
        self.row(r).iter().any(|&w| w != 0)
    }

    /// AND row `r` with `mask`, returning how many 1-bits were cleared —
    /// the word-parallel arc-row kernel of binary constraint propagation:
    /// one memoized allowed-mask replaces a per-cell interpreter walk, and
    /// the cleared count feeds the `entries_zeroed` statistic exactly as
    /// per-cell zeroing would.
    pub fn row_and_count(&mut self, r: usize, mask: &BitVec) -> usize {
        assert_eq!(mask.len(), self.cols, "mask length mismatch");
        self.row_and_count_words(r, mask.words())
    }

    /// [`BitMatrix::row_and_count`] with the mask as raw words (one per 64
    /// columns, no bits past the last column).
    pub fn row_and_count_words(&mut self, r: usize, mask: &[u64]) -> usize {
        assert_eq!(mask.len(), self.row(r).len(), "mask length mismatch");
        let mut cleared = 0usize;
        for (w, m) in self.row_mut(r).iter_mut().zip(mask) {
            cleared += (*w & !*m).count_ones() as usize;
            *w &= *m;
        }
        cleared
    }

    /// OR of all rows: bit `c` is set iff column `c` contains at least
    /// one set entry. One pass over the words, so a full column-support
    /// sweep costs O(rows · row_words) instead of a word-strided probe per
    /// column — the transpose-free column scan used by consistency
    /// maintenance.
    pub fn col_occupancy(&self) -> BitVec {
        let mut occ = BitVec::zeros(self.cols);
        for r in 0..self.rows {
            occ.or_assign_raw(self.row(r));
        }
        occ
    }

    /// Number of 1 entries in the whole matrix.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of 1 entries in row `r`.
    pub fn row_count_ones(&self, r: usize) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An all-one `rows × cols` matrix, set bit by bit.
    fn ones(rows: usize, cols: usize) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, true);
            }
        }
        m
    }

    #[test]
    fn zeros_ones_counts() {
        assert_eq!(BitMatrix::zeros(9, 9).count_ones(), 0);
        assert_eq!(ones(9, 9).count_ones(), 81);
        assert_eq!(ones(3, 70).count_ones(), 210);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::zeros(5, 130);
        m.set(2, 129, true);
        m.set(4, 0, true);
        assert!(m.get(2, 129));
        assert!(m.get(4, 0));
        assert!(!m.get(2, 0));
        m.set(2, 129, false);
        assert!(!m.get(2, 129));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics() {
        BitMatrix::zeros(3, 3).get(3, 0);
    }

    #[test]
    fn zero_row_and_col() {
        let mut m = ones(4, 4);
        m.zero_row(1);
        assert!(!m.row_any(1));
        assert_eq!(m.count_ones(), 12);
        m.zero_col(2);
        assert!(!m.col_occupancy().get(2));
        assert_eq!(m.count_ones(), 9);
        assert!(m.row_any(0));
        assert!(m.col_occupancy().get(0));
    }

    #[test]
    fn row_and_count_reports_cleared_bits() {
        let mut m = ones(2, 100);
        let mut mask = BitVec::zeros(100);
        mask.set(3, true);
        mask.set(99, true);
        assert_eq!(m.row_and_count(0, &mask), 98);
        assert_eq!(m.row(0), mask.words());
        // Re-applying the same mask clears nothing further.
        assert_eq!(m.row_and_count(0, &mask), 0);
        // A row that already lacks the masked-out bits loses none.
        m.zero_row(1);
        m.set(1, 3, true);
        assert_eq!(m.row_and_count(1, &mask), 0);
        assert!(m.get(1, 3));
    }

    #[test]
    fn col_occupancy_marks_occupied_columns() {
        let mut m = BitMatrix::zeros(5, 130);
        for (r, c) in [(0, 0), (2, 64), (4, 129), (1, 64)] {
            m.set(r, c, true);
        }
        let occ = m.col_occupancy();
        assert_eq!(occ.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn zero_sized_matrices() {
        let m = BitMatrix::zeros(0, 5);
        assert_eq!(m.count_ones(), 0);
        let m = BitMatrix::zeros(5, 0);
        assert_eq!(m.count_ones(), 0);
        assert!(!m.row_any(0));
    }

    proptest! {
        #[test]
        fn matches_dense_reference(
            rows in 1usize..12,
            cols in 1usize..150,
            seed in any::<u64>(),
        ) {
            // Build a pseudo-random dense reference and mirror every op.
            let mut dense = vec![vec![false; cols]; rows];
            let mut m = BitMatrix::zeros(rows, cols);
            let mut state = seed | 1;
            for (r, row) in dense.iter_mut().enumerate() {
                for (c, cell) in row.iter_mut().enumerate() {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let v = state >> 63 == 1;
                    *cell = v;
                    m.set(r, c, v);
                }
            }
            for (r, row) in dense.iter().enumerate() {
                prop_assert_eq!(m.row_any(r), row.iter().any(|&b| b));
                prop_assert_eq!(m.row_count_ones(r), row.iter().filter(|&&b| b).count());
            }
            let occ = m.col_occupancy();
            for c in 0..cols {
                prop_assert_eq!(occ.get(c), dense.iter().any(|row| row[c]));
            }
        }
    }
}
