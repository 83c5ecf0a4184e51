//! Blocked boolean matrix multiplication over 64×64 bit tiles.
//!
//! The consistency/filtering fixpoint of the CDG parser asks two questions
//! of an arc matrix, over and over: "which values on the row side still
//! intersect the alive column set?" and "how many set entries does each
//! column hold among a given set of rows?". Both are boolean
//! matrix-multiplication shapes (Lee's equivalence of CF parsing and BMM),
//! so this module provides them as cache-blocked kernels over 64×64 `u64`
//! tiles:
//!
//! * [`mult_transpose_or`] — `C |= A · Bᵀ`, the plain blocked product
//!   (`C[i][k] = ∨_j A[i][j] ∧ B[k][j]`);
//! * [`mult_transpose_or_masked`] — the same product with `B`'s rows
//!   masked by an alive set, reporting per-row support counts of `A` in
//!   the same sweep;
//! * [`col_counts_masked`] — per-column counts of set entries restricted
//!   to a row set, via tile transposes + popcounts (the batched
//!   column-walk of AC-4 support maintenance);
//! * [`transpose64`] — the 64×64 bit-transpose primitive the others (and
//!   [`BitMatrix::transposed`]) are built on.
//!
//! Ragged dimensions are handled by zero-padding partial tiles: absent
//! rows/columns contribute no bits, so no kernel needs a special tail
//! path. All kernels report their work through [`TileOps`] so callers can
//! account tiles multiplied and words touched without re-deriving them.

use crate::bitvec::BitVec;
use crate::matrix::BitMatrix;

/// Work counters for the tile kernels: `tiles` counts 64×64 tile
/// operations (transposes or tile-pair products), `words` counts `u64`
/// words loaded or stored. Purely observational — never part of the
/// parser's abstract-operation accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileOps {
    pub tiles: u64,
    pub words: u64,
}

impl TileOps {
    /// Merge another counter into this one.
    pub fn absorb(&mut self, other: TileOps) {
        self.tiles += other.tiles;
        self.words += other.words;
    }
}

/// Transpose a 64×64 bit block in place: bit `c` of word `r` moves to bit
/// `r` of word `c`. The classic log-step swap network (6 rounds of masked
/// exchanges), allocation-free.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            // LSB-first columns: exchange the upper half of the low rows
            // with the lower half of the high rows.
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Load the 64×64 tile at (row block `rb`, word column `wb`) of `m`,
/// keeping only rows whose bit is set in `rmask` (which must already be
/// restricted to rows present in the matrix, as [`block_mask`] produces).
/// Iterates the mask's set bits, so a sparse block costs its population
/// count, not 64 bounds-checked loads.
#[inline]
fn load_tile(m: &BitMatrix, rb: usize, wb: usize, rmask: u64, tile: &mut [u64; 64]) -> bool {
    tile.fill(0);
    let base = rb * 64;
    let mut any = 0u64;
    let mut bits = rmask;
    while bits != 0 {
        let k = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let w = m.row(base + k)[wb];
        tile[k] = w;
        any |= w;
    }
    any != 0
}

/// Row mask for row block `rb`: all rows present in the matrix, further
/// restricted by `rows` when given.
#[inline]
fn block_mask(m: &BitMatrix, rb: usize, rows: Option<&BitVec>) -> u64 {
    let base = rb * 64;
    let present = m.rows() - base;
    let mut mask = if present >= 64 {
        !0u64
    } else {
        (1u64 << present) - 1
    };
    if let Some(r) = rows {
        mask &= r.words()[rb];
    }
    mask
}

/// `C |= A · Bᵀ` over 64×64 tiles: `C[i][k] = ∨_j A[i][j] ∧ B[k][j]`.
///
/// `A` is `p×q`, `B` is `r×q` (same column count), `C` is `p×r`. The
/// product is OR-accumulated into `C`, so pre-existing bits survive.
pub fn mult_transpose_or(a: &BitMatrix, b: &BitMatrix, c: &mut BitMatrix, ops: &mut TileOps) {
    mult_inner(a, b, None, c, ops);
}

/// [`mult_transpose_or`] with `B`'s rows masked by `alive` (a row of `B`
/// whose alive bit is 0 contributes nothing), returning per-row support
/// counts of `A` in the same sweep: `counts[i] = |{k : alive[k] ∧
/// (row_i(A) ∩ row_k(B)) ≠ ∅}|` — exactly "how many alive values on the
/// other side still support value `i`" when `A` and `B` are the two
/// orientations of an arc matrix.
pub fn mult_transpose_or_masked(
    a: &BitMatrix,
    b: &BitMatrix,
    alive: &BitVec,
    c: &mut BitMatrix,
    ops: &mut TileOps,
) -> Vec<u32> {
    assert_eq!(alive.len(), b.rows(), "alive mask must cover B's rows");
    mult_inner(a, b, Some(alive), c, ops)
}

fn mult_inner(
    a: &BitMatrix,
    b: &BitMatrix,
    alive: Option<&BitVec>,
    c: &mut BitMatrix,
    ops: &mut TileOps,
) -> Vec<u32> {
    assert_eq!(a.cols(), b.cols(), "A and B must share a column count");
    assert_eq!(
        (c.rows(), c.cols()),
        (a.rows(), b.rows()),
        "C must be A.rows × B.rows"
    );
    let shared_words = a.cols().div_ceil(64);
    let mut counts = vec![0u32; a.rows()];
    let mut a_tile = [0u64; 64];
    let mut b_tile = [0u64; 64];
    for ib in 0..a.rows().div_ceil(64) {
        let a_mask = block_mask(a, ib, None);
        for kb in 0..b.rows().div_ceil(64) {
            let b_mask = block_mask(b, kb, alive);
            if b_mask == 0 {
                continue;
            }
            let mut out = [0u64; 64];
            for wb in 0..shared_words {
                let any_a = load_tile(a, ib, wb, a_mask, &mut a_tile);
                let any_b = load_tile(b, kb, wb, b_mask, &mut b_tile);
                ops.tiles += 1;
                ops.words += 128;
                if !any_a || !any_b {
                    continue;
                }
                for (i, &aw) in a_tile.iter().enumerate() {
                    if aw == 0 {
                        continue;
                    }
                    let mut bits = out[i];
                    for (k, &bw) in b_tile.iter().enumerate() {
                        bits |= (((aw & bw) != 0) as u64) << k;
                    }
                    out[i] = bits;
                }
            }
            // Fold this block's support bits into C and the counts.
            for (i, &bits) in out.iter().enumerate() {
                if bits == 0 {
                    continue;
                }
                counts[ib * 64 + i] += bits.count_ones();
                c.row_mut(ib * 64 + i)[kb] |= bits;
                ops.words += 1;
            }
        }
    }
    counts
}

/// Per-column counts of set entries restricted to a row set:
/// `out[c] += |{r : rows[r] ∧ m[r][c]}|` (all rows when `rows` is `None`).
///
/// This is the batched form of the AC-4 column walk: instead of probing
/// one column bit per row, each 64×64 tile is transposed once and every
/// column's contribution popcounted word-parallel. Blocks selecting fewer
/// than `SWEEP_TILE_THRESHOLD` rows skip the transpose and charge
/// columns per set bit instead — a transpose's fixed cost only amortizes
/// once a block carries enough selected rows. Both paths are exact.
pub fn col_counts_masked(m: &BitMatrix, rows: Option<&BitVec>, out: &mut [u32], ops: &mut TileOps) {
    assert!(out.len() >= m.cols(), "output must cover every column");
    if let Some(r) = rows {
        assert_eq!(r.len(), m.rows(), "row mask must cover every row");
    }
    if m.rows() == 0 || m.cols() == 0 {
        return;
    }
    let row_words = m.cols().div_ceil(64);
    let mut tile = [0u64; 64];
    for rb in 0..m.rows().div_ceil(64) {
        let rmask = block_mask(m, rb, rows);
        if rmask == 0 {
            continue;
        }
        if rmask.count_ones() < SWEEP_TILE_THRESHOLD {
            let mut bits = rmask;
            while bits != 0 {
                let r = rb * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                ops.words += row_words as u64;
                for (wb, &w) in m.row(r).iter().enumerate() {
                    let mut word = w;
                    let base = wb * 64;
                    while word != 0 {
                        out[base + word.trailing_zeros() as usize] += 1;
                        word &= word - 1;
                    }
                }
            }
            continue;
        }
        for wb in 0..row_words {
            if !load_tile(m, rb, wb, rmask, &mut tile) {
                ops.words += 64;
                continue;
            }
            transpose64(&mut tile);
            ops.tiles += 1;
            ops.words += 64;
            let base = wb * 64;
            let cols = m.cols().min(base + 64) - base;
            for (t, &word) in tile.iter().enumerate().take(cols) {
                if word != 0 {
                    out[base + t] += word.count_ones();
                }
            }
        }
    }
}

/// Row *and* column support counts in one data pass:
/// `row_out[r] += popcount(row r)` and `col_out[c] += |{r : rows[r] ∧
/// m[r][c]}|`, both restricted to the rows selected by `rows` (all rows
/// when `None`). This is [`col_counts_masked`] fused with the row
/// popcounts the AC-4 build needs anyway, so each matrix word is loaded
/// once instead of twice. Same adaptive split: thin blocks charge columns
/// per set bit, dense blocks transpose tiles (row popcounts ride along on
/// the loaded tile either way).
pub fn support_counts_masked(
    m: &BitMatrix,
    rows: Option<&BitVec>,
    row_out: &mut [u32],
    col_out: &mut [u32],
    ops: &mut TileOps,
) {
    assert!(row_out.len() >= m.rows(), "row output must cover every row");
    assert!(
        col_out.len() >= m.cols(),
        "column output must cover every column"
    );
    if let Some(r) = rows {
        assert_eq!(r.len(), m.rows(), "row mask must cover every row");
    }
    if m.rows() == 0 || m.cols() == 0 {
        return;
    }
    let row_words = m.cols().div_ceil(64);
    let mut tile = [0u64; 64];
    for rb in 0..m.rows().div_ceil(64) {
        let rmask = block_mask(m, rb, rows);
        if rmask == 0 {
            continue;
        }
        if rmask.count_ones() < SWEEP_TILE_THRESHOLD {
            let mut bits = rmask;
            while bits != 0 {
                let r = rb * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                ops.words += row_words as u64;
                for (wb, &w) in m.row(r).iter().enumerate() {
                    let mut word = w;
                    row_out[r] += word.count_ones();
                    let base = wb * 64;
                    while word != 0 {
                        col_out[base + word.trailing_zeros() as usize] += 1;
                        word &= word - 1;
                    }
                }
            }
            continue;
        }
        for wb in 0..row_words {
            if !load_tile(m, rb, wb, rmask, &mut tile) {
                ops.words += 64;
                continue;
            }
            let mut bits = rmask;
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                row_out[rb * 64 + k] += tile[k].count_ones();
            }
            transpose64(&mut tile);
            ops.tiles += 1;
            ops.words += 64;
            let base = wb * 64;
            let cols = m.cols().min(base + 64) - base;
            for (t, &word) in tile.iter().enumerate().take(cols) {
                if word != 0 {
                    col_out[base + t] += word.count_ones();
                }
            }
        }
    }
}

/// Removed-row blocks at or above this population switch from per-one
/// column charging to the tile-transpose path: a transpose costs ~64 word
/// ops per shared word regardless of density, so it only pays once a
/// block carries enough removed rows to amortize it.
const SWEEP_TILE_THRESHOLD: u32 = 8;

/// One filtering generation over an arc matrix, fused into a single sweep
/// of the rows that can hold bits at all.
///
/// `rows` / `cols` mark the values removed this generation on the row /
/// column side; `occupied` marks rows that may still be nonzero (the
/// caller passes the row-side alive set — every row outside
/// `occupied ∪ rows` must already be all-zero, which the parser
/// guarantees because removing a value zeroes its row and column in
/// every incident arc).
///
/// Attribution matches [`BitMatrix::clear_rows_cols`] composed with the
/// unfused delta computation: entries in removed rows charge their
/// *column* (`dec_cols`, accumulated dense with `touched_cols` recording
/// each column the first time its count leaves zero), entries of
/// surviving rows lying in removed columns charge their *row*
/// (`dec_rows`, appended as `(row, count)` pairs in ascending row order).
/// Every cleared entry is counted exactly once; the return value is the
/// total cleared, so `Σ dec_rows + Σ dec_cols == cleared`.
///
/// Dense removed-row blocks (≥ `SWEEP_TILE_THRESHOLD` rows) take the
/// tile-transpose path — the same batched column walk as
/// [`col_counts_masked`] — while thin generations charge columns per set
/// bit, which is cheaper than transposing an almost-empty tile. Both
/// paths produce identical counts.
///
/// `dec_cols` must be zero on entry for every column of `m`; the caller
/// resets the touched entries afterwards (that is what `touched_cols` is
/// for), keeping the scratch reusable across arcs without a dense clear.
#[allow(clippy::too_many_arguments)]
pub fn generation_sweep(
    m: &mut BitMatrix,
    rows: &BitVec,
    cols: &BitVec,
    occupied: &BitVec,
    dec_rows: &mut Vec<(u32, u32)>,
    dec_cols: &mut [u32],
    touched_cols: &mut Vec<u32>,
    ops: &mut TileOps,
) -> usize {
    assert_eq!(rows.len(), m.rows(), "row mask must cover every row");
    assert_eq!(cols.len(), m.cols(), "column mask must cover every column");
    assert_eq!(
        occupied.len(),
        m.rows(),
        "occupancy mask must cover every row"
    );
    assert!(
        dec_cols.len() >= m.cols(),
        "dec_cols must cover every column"
    );
    let cols_any = cols.any();
    let row_words = m.cols().div_ceil(64);
    let mut cleared = 0usize;
    let mut tile = [0u64; 64];
    for rb in 0..m.rows().div_ceil(64) {
        let rmask = rows.words().get(rb).copied().unwrap_or(0);
        let occw = occupied.words().get(rb).copied().unwrap_or(0) | rmask;
        if occw == 0 {
            continue;
        }
        if rmask != 0 {
            if rmask.count_ones() >= SWEEP_TILE_THRESHOLD {
                // Mass generation: batched column walk via tile transpose.
                for wb in 0..row_words {
                    ops.words += 64;
                    if !load_tile(m, rb, wb, rmask, &mut tile) {
                        continue;
                    }
                    transpose64(&mut tile);
                    ops.tiles += 1;
                    let base = wb * 64;
                    let ncols = m.cols().min(base + 64) - base;
                    for (t, &word) in tile.iter().enumerate().take(ncols) {
                        if word != 0 {
                            let c = base + t;
                            if dec_cols[c] == 0 {
                                touched_cols.push(c as u32);
                            }
                            let k = word.count_ones();
                            dec_cols[c] += k;
                            cleared += k as usize;
                        }
                    }
                }
                let mut bits = rmask;
                while bits != 0 {
                    let r = rb * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    m.zero_row(r);
                    ops.words += row_words as u64;
                }
            } else {
                // Thin generation: charge columns per set bit of each
                // removed row, zeroing the row in the same walk.
                let mut bits = rmask;
                while bits != 0 {
                    let r = rb * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    ops.words += row_words as u64;
                    for (wb, w) in m.row_mut(r).iter_mut().enumerate() {
                        let mut word = *w;
                        if word == 0 {
                            continue;
                        }
                        cleared += word.count_ones() as usize;
                        let base = wb * 64;
                        while word != 0 {
                            let c = base + word.trailing_zeros() as usize;
                            word &= word - 1;
                            if dec_cols[c] == 0 {
                                touched_cols.push(c as u32);
                            }
                            dec_cols[c] += 1;
                        }
                        *w = 0;
                    }
                }
            }
        }
        if cols_any {
            // Surviving occupied rows: clear removed-column bits and
            // charge the row — one masked AND per word pair.
            let mut bits = occw & !rmask;
            while bits != 0 {
                let r = rb * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                ops.words += 2 * row_words as u64;
                let mut d = 0u32;
                for (w, cw) in m.row_mut(r).iter_mut().zip(cols.words()) {
                    let hit = *w & *cw;
                    if hit != 0 {
                        d += hit.count_ones();
                        *w &= !*cw;
                    }
                }
                if d != 0 {
                    dec_rows.push((r as u32, d));
                    cleared += d as usize;
                }
            }
        }
    }
    cleared
}

#[cfg(test)]
// Dense oracles index by (row, col) on purpose — the indexed loops mirror
// the textbook definition the kernels are checked against.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dense_from_seed(rows: usize, cols: usize, seed: u64) -> (Vec<Vec<bool>>, BitMatrix) {
        let mut dense = vec![vec![false; cols]; rows];
        let mut m = BitMatrix::zeros(rows, cols);
        let mut state = seed | 1;
        for (r, row) in dense.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = state >> 62 != 0; // ~75% density
                *cell = v;
                m.set(r, c, v);
            }
        }
        (dense, m)
    }

    #[test]
    fn transpose64_involution_and_mapping() {
        let mut block = [0u64; 64];
        block[3] = 1 << 17;
        block[63] = 1 | (1 << 63);
        let orig = block;
        transpose64(&mut block);
        assert_eq!(block[17], 1 << 3);
        assert_eq!(block[0], 1 << 63);
        assert_eq!(block[63], 1 << 63);
        transpose64(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn small_product_matches_hand_result() {
        // A = [1 1 0; 0 0 1], B = [0 1 0; 1 0 0] → C = A·Bᵀ = [1 1; 0 0].
        let mut a = BitMatrix::zeros(2, 3);
        a.set(0, 0, true);
        a.set(0, 1, true);
        a.set(1, 2, true);
        let mut b = BitMatrix::zeros(2, 3);
        b.set(0, 1, true);
        b.set(1, 0, true);
        let mut c = BitMatrix::zeros(2, 2);
        let mut ops = TileOps::default();
        mult_transpose_or(&a, &b, &mut c, &mut ops);
        assert!(c.get(0, 0) && c.get(0, 1));
        assert!(!c.get(1, 0) && !c.get(1, 1));
        assert!(ops.tiles > 0 && ops.words > 0);
    }

    proptest! {
        #[test]
        fn blocked_product_matches_dense_oracle(
            p in 1usize..150,
            r in 1usize..90,
            q in 1usize..130,
            seed in any::<u64>(),
        ) {
            // Ragged on purpose: p, r, q are rarely multiples of 64.
            let (da, a) = dense_from_seed(p, q, seed);
            let (db, b) = dense_from_seed(r, q, seed.rotate_left(17) ^ 0x9e37);
            let mut c = BitMatrix::zeros(p, r);
            // Pre-set one bit to check OR-accumulation survives.
            c.set(p - 1, r - 1, true);
            let mut ops = TileOps::default();
            mult_transpose_or(&a, &b, &mut c, &mut ops);
            for i in 0..p {
                for k in 0..r {
                    let expect = (0..q).any(|j| da[i][j] && db[k][j])
                        || (i == p - 1 && k == r - 1);
                    prop_assert_eq!(c.get(i, k), expect, "C[{}][{}]", i, k);
                }
            }
        }

        #[test]
        fn masked_product_reports_support_counts(
            p in 1usize..100,
            r in 1usize..100,
            q in 1usize..80,
            seed in any::<u64>(),
        ) {
            let (da, a) = dense_from_seed(p, q, seed);
            let (db, b) = dense_from_seed(r, q, !seed);
            let mut alive = BitVec::zeros(r);
            let mut state = seed ^ 0xabcd;
            for k in 0..r {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                alive.set(k, state >> 63 == 1);
            }
            let mut c = BitMatrix::zeros(p, r);
            let mut ops = TileOps::default();
            let counts = mult_transpose_or_masked(&a, &b, &alive, &mut c, &mut ops);
            for i in 0..p {
                let mut expect = 0u32;
                for k in 0..r {
                    let hit = alive.get(k) && (0..q).any(|j| da[i][j] && db[k][j]);
                    prop_assert_eq!(c.get(i, k), hit, "C[{}][{}]", i, k);
                    expect += hit as u32;
                }
                prop_assert_eq!(counts[i], expect, "support count of row {}", i);
            }
        }

        #[test]
        fn generation_sweep_matches_dense_oracle(
            rows in 1usize..150,
            cols in 1usize..150,
            seed in any::<u64>(),
        ) {
            let (mut dense, mut m) = dense_from_seed(rows, cols, seed);
            let mut state = seed ^ 0x77;
            let mut step = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 62
            };
            // Random removed-row / removed-col / occupancy masks. Rows
            // outside occupied ∪ removed must be all-zero (the kernel's
            // contract), so zero them in both representations.
            let mut rmask = BitVec::zeros(rows);
            let mut occupied = BitVec::zeros(rows);
            for r in 0..rows {
                rmask.set(r, step() == 0);
                occupied.set(r, step() != 0);
                if !occupied.get(r) && !rmask.get(r) {
                    dense[r].fill(false);
                    m.zero_row(r);
                }
            }
            let mut cmask = BitVec::zeros(cols);
            for c in 0..cols {
                cmask.set(c, step() == 0);
            }
            let mut dec_rows = Vec::new();
            let mut dec_cols = vec![0u32; cols];
            let mut touched = Vec::new();
            let mut ops = TileOps::default();
            let cleared = generation_sweep(
                &mut m, &rmask, &cmask, &occupied,
                &mut dec_rows, &mut dec_cols, &mut touched, &mut ops,
            );
            // Oracle: removed rows charge columns; surviving entries in
            // removed columns charge rows; everything cleared once.
            let mut want_cols = vec![0u32; cols];
            let mut want_rows = vec![0u32; rows];
            let mut want_cleared = 0usize;
            for r in 0..rows {
                for c in 0..cols {
                    if !dense[r][c] {
                        continue;
                    }
                    if rmask.get(r) {
                        want_cols[c] += 1;
                        want_cleared += 1;
                        dense[r][c] = false;
                    } else if cmask.get(c) {
                        want_rows[r] += 1;
                        want_cleared += 1;
                        dense[r][c] = false;
                    }
                }
            }
            prop_assert_eq!(cleared, want_cleared);
            prop_assert_eq!(&dec_cols, &want_cols);
            // touched_cols names exactly the nonzero dec_cols entries.
            let mut touched_sorted: Vec<u32> = touched.clone();
            touched_sorted.sort_unstable();
            let want_touched: Vec<u32> = (0..cols as u32)
                .filter(|&c| want_cols[c as usize] != 0)
                .collect();
            prop_assert_eq!(touched_sorted, want_touched);
            // dec_rows is sparse, ascending, and matches the oracle.
            let mut got_rows = vec![0u32; rows];
            let mut prev = None;
            for &(r, d) in &dec_rows {
                prop_assert!(prev.is_none_or(|p| p < r), "ascending rows");
                prop_assert!(d > 0);
                got_rows[r as usize] = d;
                prev = Some(r);
            }
            prop_assert_eq!(got_rows, want_rows);
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(m.get(r, c), dense[r][c], "entry ({}, {})", r, c);
                }
            }
        }

        #[test]
        fn col_counts_match_dense_oracle(
            rows in 1usize..150,
            cols in 1usize..150,
            seed in any::<u64>(),
            masked in any::<bool>(),
        ) {
            let (dense, m) = dense_from_seed(rows, cols, seed);
            let mut rmask = BitVec::zeros(rows);
            let mut state = seed ^ 0x5151;
            for r in 0..rows {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                rmask.set(r, state >> 63 == 1);
            }
            let sel = masked.then_some(&rmask);
            let mut out = vec![7u32; cols]; // nonzero: counts must accumulate
            let mut ops = TileOps::default();
            col_counts_masked(&m, sel, &mut out, &mut ops);
            for c in 0..cols {
                let expect: u32 = (0..rows)
                    .filter(|&r| dense[r][c] && (!masked || rmask.get(r)))
                    .count() as u32;
                prop_assert_eq!(out[c], 7 + expect, "column {}", c);
            }
            // The fused row+column kernel agrees on both outputs.
            let mut fused_rows = vec![3u32; rows];
            let mut fused_cols = vec![7u32; cols];
            support_counts_masked(&m, sel, &mut fused_rows, &mut fused_cols, &mut ops);
            prop_assert_eq!(&fused_cols, &out, "fused column counts");
            for r in 0..rows {
                let expect: u32 = if !masked || rmask.get(r) {
                    dense[r].iter().filter(|&&b| b).count() as u32
                } else {
                    0
                };
                prop_assert_eq!(fused_rows[r], 3 + expect, "row {}", r);
            }
        }
    }
}
