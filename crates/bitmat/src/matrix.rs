//! Row-major packed boolean matrix — the CDG arc matrix.

use crate::bitvec::BitVec;
use crate::{tail_mask, words_for};

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

    /// All-one matrix (the initial state of every arc matrix: "nothing about
    /// one word's function prohibits another word's function").
    pub fn ones(rows: usize, cols: usize) -> Self {
        let row_words = words_for(cols);
        let mut m = BitMatrix {
            rows,
            cols,
            row_words,
            words: vec![!0u64; rows * row_words],
        };
        if row_words > 0 {
            let mask = tail_mask(cols);
            for r in 0..rows {
                m.words[r * row_words + row_words - 1] &= mask;
            }
        }
        m
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

    /// Zero every column whose bit is set in `cols`, word-parallel (one
    /// masked AND per row word instead of one strided sweep per column).
    /// Returns how many 1-entries were cleared.
    pub fn zero_cols_count(&mut self, cols: &BitVec) -> usize {
        assert_eq!(cols.len(), self.cols, "column mask length mismatch");
        let mut cleared = 0usize;
        for r in 0..self.rows {
            for (w, m) in self.row_mut(r).iter_mut().zip(cols.words()) {
                cleared += (*w & *m).count_ones() as usize;
                *w &= !*m;
            }
        }
        cleared
    }

    /// Zero every row in `rows` and every column in `cols` in one sweep,
    /// returning the number of 1-entries cleared (each entry counted
    /// once, exactly as zeroing the rows first and then the surviving
    /// column bits would). This is the batched form of a filtering
    /// generation's row/column removals.
    pub fn clear_rows_cols(&mut self, rows: &BitVec, cols: &BitVec) -> usize {
        assert_eq!(rows.len(), self.rows, "row mask length mismatch");
        assert_eq!(cols.len(), self.cols, "column mask length mismatch");
        let mut cleared = 0usize;
        for r in 0..self.rows {
            if rows.get(r) {
                let row = self.row_mut(r);
                cleared += row.iter().map(|w| w.count_ones() as usize).sum::<usize>();
                row.fill(0);
            } else {
                for (w, m) in self.row_mut(r).iter_mut().zip(cols.words()) {
                    cleared += (*w & *m).count_ones() as usize;
                    *w &= !*m;
                }
            }
        }
        cleared
    }

    /// True if row `r` contains at least one 1.
    pub fn row_any(&self, r: usize) -> bool {
        self.row(r).iter().any(|&w| w != 0)
    }

    /// True if column `c` contains at least one 1 — a strided scan over
    /// the column's words with early exit.
    pub fn col_any(&self, c: usize) -> bool {
        assert!(c < self.cols, "column {c} out of range");
        if self.rows == 0 {
            return false;
        }
        let mask = 1u64 << (c % 64);
        self.words[c / 64..]
            .iter()
            .step_by(self.row_words)
            .any(|&w| w & mask != 0)
    }

    /// True if row `r` has a 1 in any column whose bit is set in `alive`.
    ///
    /// This is the support test of consistency maintenance: a role value is
    /// supported by an arc if its row intersects the opposite role's alive
    /// set.
    pub fn row_any_masked(&self, r: usize, alive: &BitVec) -> bool {
        assert_eq!(alive.len(), self.cols, "alive mask length mismatch");
        self.row(r)
            .iter()
            .zip(alive.words())
            .any(|(&w, &m)| w & m != 0)
    }

    /// AND every word of row `r` with the mask `alive`.
    pub fn row_and_assign(&mut self, r: usize, alive: &BitVec) {
        assert_eq!(alive.len(), self.cols, "alive mask length mismatch");
        for (w, m) in self.row_mut(r).iter_mut().zip(alive.words()) {
            *w &= *m;
        }
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
    /// sweep costs O(rows · row_words) instead of
    /// [`BitMatrix::col_any`]'s word-strided probe per column — the
    /// transpose-free column scan used by consistency maintenance.
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

    /// Number of 1 entries of row `r` whose column bit is set in `mask` —
    /// the word-parallel "how many of these columns does this row
    /// support" count (no mutation, unlike [`BitMatrix::row_and_count`]).
    pub fn row_masked_count_ones(&self, r: usize, mask: &BitVec) -> usize {
        assert_eq!(mask.len(), self.cols, "mask length mismatch");
        self.row(r)
            .iter()
            .zip(mask.words())
            .map(|(&w, &m)| (w & m).count_ones() as usize)
            .sum()
    }

    /// Iterator over column indices of set bits in row `r`, ascending.
    pub fn row_ones(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().enumerate().flat_map(|(wi, &w)| {
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

    /// In-place intersection with a same-shape matrix.
    pub fn and_assign(&mut self, other: &BitMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "matrix shape mismatch"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place union with a same-shape matrix.
    pub fn or_assign(&mut self, other: &BitMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "matrix shape mismatch"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// True if the two matrices share any set bit.
    pub fn intersects(&self, other: &BitMatrix) -> bool {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "matrix shape mismatch"
        );
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Transpose of the matrix — tile-swap over 64×64 blocks (one
    /// [`crate::bmm::transpose64`] per block plus word stores) instead of
    /// one `set` per set bit, so the BMM core can reuse it without
    /// per-bit gets.
    pub fn transposed(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.cols, self.rows);
        if self.rows == 0 || self.cols == 0 {
            return t;
        }
        let mut tile = [0u64; 64];
        for rb in 0..self.rows.div_ceil(64) {
            let in_block = (self.rows - rb * 64).min(64);
            for wb in 0..self.row_words {
                for (k, slot) in tile.iter_mut().enumerate() {
                    *slot = if k < in_block {
                        self.row(rb * 64 + k)[wb]
                    } else {
                        0
                    };
                }
                crate::bmm::transpose64(&mut tile);
                let out_rows = (self.cols - wb * 64).min(64);
                for (k, &word) in tile.iter().enumerate().take(out_rows) {
                    if word != 0 {
                        t.row_mut(wb * 64 + k)[rb] = word;
                    }
                }
            }
        }
        t
    }
}

#[cfg(test)]
// Dense oracles index by (row, col) on purpose — the indexed loops mirror
// the textbook definition the kernels are checked against.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_ones_counts() {
        let z = BitMatrix::zeros(9, 9);
        assert_eq!(z.count_ones(), 0);
        let o = BitMatrix::ones(9, 9);
        assert_eq!(o.count_ones(), 81);
        // Every tail word is clamped per-row.
        let o2 = BitMatrix::ones(3, 70);
        assert_eq!(o2.count_ones(), 210);
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
        let mut m = BitMatrix::ones(4, 4);
        m.zero_row(1);
        assert!(!m.row_any(1));
        assert_eq!(m.count_ones(), 12);
        m.zero_col(2);
        assert!(!m.col_any(2));
        assert_eq!(m.count_ones(), 9);
        assert!(m.row_any(0));
        assert!(m.col_any(0));
    }

    #[test]
    fn masked_row_test() {
        let mut m = BitMatrix::zeros(2, 100);
        m.set(0, 50, true);
        let mut alive = BitVec::zeros(100);
        assert!(!m.row_any_masked(0, &alive));
        alive.set(50, true);
        assert!(m.row_any_masked(0, &alive));
        assert!(!m.row_any_masked(1, &alive));
    }

    #[test]
    fn row_and_assign_masks() {
        let mut m = BitMatrix::ones(1, 100);
        let mut alive = BitVec::zeros(100);
        alive.set(3, true);
        alive.set(99, true);
        m.row_and_assign(0, &alive);
        assert_eq!(m.row_ones(0).collect::<Vec<_>>(), vec![3, 99]);
    }

    #[test]
    fn row_and_count_reports_cleared_bits() {
        let mut m = BitMatrix::ones(2, 100);
        let mut mask = BitVec::zeros(100);
        mask.set(3, true);
        mask.set(99, true);
        assert_eq!(m.row_and_count(0, &mask), 98);
        assert_eq!(m.row_ones(0).collect::<Vec<_>>(), vec![3, 99]);
        // Re-applying the same mask clears nothing further.
        assert_eq!(m.row_and_count(0, &mask), 0);
        // A row that already lacks the masked-out bits loses none.
        m.zero_row(1);
        m.set(1, 3, true);
        assert_eq!(m.row_and_count(1, &mask), 0);
        assert!(m.get(1, 3));
    }

    #[test]
    fn col_occupancy_matches_col_any() {
        let mut m = BitMatrix::zeros(5, 130);
        for (r, c) in [(0, 0), (2, 64), (4, 129), (1, 64)] {
            m.set(r, c, true);
        }
        let occ = m.col_occupancy();
        for c in 0..130 {
            assert_eq!(occ.get(c), m.col_any(c), "column {c}");
        }
        assert_eq!(occ.count_ones(), 3);
    }

    #[test]
    fn row_ones_ascending() {
        let mut m = BitMatrix::zeros(1, 200);
        for c in [0, 63, 64, 127, 199] {
            m.set(0, c, true);
        }
        assert_eq!(m.row_ones(0).collect::<Vec<_>>(), vec![0, 63, 64, 127, 199]);
        assert_eq!(m.row_count_ones(0), 5);
    }

    #[test]
    fn transpose_involution() {
        let mut m = BitMatrix::zeros(3, 7);
        m.set(0, 6, true);
        m.set(2, 1, true);
        let t = m.transposed();
        assert!(t.get(6, 0));
        assert!(t.get(1, 2));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn matrix_boolean_ops() {
        let mut a = BitMatrix::zeros(3, 70);
        let mut b = BitMatrix::zeros(3, 70);
        a.set(0, 5, true);
        a.set(2, 69, true);
        b.set(2, 69, true);
        b.set(1, 0, true);
        assert!(a.intersects(&b));
        let mut u = a.clone();
        u.or_assign(&b);
        assert_eq!(u.count_ones(), 3);
        a.and_assign(&b);
        assert_eq!(a.count_ones(), 1);
        assert!(a.get(2, 69));
        let c = BitMatrix::zeros(3, 70);
        assert!(!a.intersects(&c));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn boolean_ops_check_shape() {
        let mut a = BitMatrix::zeros(2, 3);
        let b = BitMatrix::zeros(3, 2);
        a.and_assign(&b);
    }

    #[test]
    fn zero_sized_matrices() {
        let m = BitMatrix::zeros(0, 5);
        assert_eq!(m.count_ones(), 0);
        let m = BitMatrix::ones(5, 0);
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
            for c in 0..cols {
                prop_assert_eq!(m.col_any(c), dense.iter().any(|row| row[c]));
            }
            let occ = m.col_occupancy();
            for c in 0..cols {
                prop_assert_eq!(occ.get(c), dense.iter().any(|row| row[c]));
            }
            let t = m.transposed();
            for (r, row) in dense.iter().enumerate() {
                for (c, &cell) in row.iter().enumerate() {
                    prop_assert_eq!(t.get(c, r), cell);
                }
            }
        }

        #[test]
        fn batched_clears_match_dense_reference(
            rows in 1usize..12,
            cols in 1usize..150,
            seed in any::<u64>(),
        ) {
            let mut dense = vec![vec![false; cols]; rows];
            let mut m = BitMatrix::zeros(rows, cols);
            let mut rmask = BitVec::zeros(rows);
            let mut cmask = BitVec::zeros(cols);
            let mut state = seed | 1;
            let mut step = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 63 == 1
            };
            for (r, row) in dense.iter_mut().enumerate() {
                for (c, cell) in row.iter_mut().enumerate() {
                    let v = step();
                    *cell = v;
                    m.set(r, c, v);
                }
            }
            for r in 0..rows { rmask.set(r, step()); }
            for c in 0..cols { cmask.set(c, step()); }

            for r in 0..rows {
                let expect = dense[r].iter().zip(0..cols)
                    .filter(|&(&b, c)| b && cmask.get(c)).count();
                prop_assert_eq!(m.row_masked_count_ones(r, &cmask), expect);
            }

            // zero_cols_count clears exactly the set bits under the mask.
            let mut zc = m.clone();
            let expect_cleared: usize = dense.iter()
                .map(|row| (0..cols).filter(|&c| row[c] && cmask.get(c)).count())
                .sum();
            prop_assert_eq!(zc.zero_cols_count(&cmask), expect_cleared);
            for (r, row) in dense.iter().enumerate() {
                for (c, &cell) in row.iter().enumerate() {
                    prop_assert_eq!(zc.get(r, c), cell && !cmask.get(c));
                }
            }

            // clear_rows_cols == zero rows first, then surviving col bits,
            // counting each cleared entry once.
            let mut fused = m.clone();
            let got = fused.clear_rows_cols(&rmask, &cmask);
            let mut oracle = m.clone();
            let mut expect = 0usize;
            for r in 0..rows {
                if rmask.get(r) {
                    expect += oracle.row_count_ones(r);
                    oracle.zero_row(r);
                }
            }
            expect += oracle.zero_cols_count(&cmask);
            prop_assert_eq!(got, expect);
            prop_assert_eq!(fused, oracle);
        }
    }
}
