//! Consistency maintenance and filtering.
//!
//! After binary propagation, a role value may index an all-zero row or
//! column in some incident arc matrix; such a value cannot coexist with any
//! candidate of the other role and must be removed, along with its rows and
//! columns everywhere — *consistency maintenance*. One removal can strand
//! another value, so consistency maintenance is iterated; running it to a
//! fixpoint is *filtering*. The paper notes filtering is worst-case O(n⁴)
//! sequential (and NC-hard in general, by their reduction from the Monotone
//! Circuit Value Problem), but that in practice fewer than ~10 passes
//! suffice — the justification for bounding it by a constant on the MasPar.
//!
//! Three implementations coexist, producing identical removal schedules,
//! alive sets, and final matrices: the full-scan [`maintain`]/[`filter`]
//! pair (one row/column probe per alive value per incident arc, every
//! pass), the AC-4-style [`IncrementalFilter`], which pays one
//! support-counter per (value, arc) up front and thereafter touches only
//! counters disturbed by removals, and the blocked-BMM [`BmmFilter`],
//! which keeps the incremental counter semantics but recomputes every
//! disturbed counter with 64×64 tile kernels ([`bitmat::bmm`]) instead of
//! per-(value, arc) walks. The incremental and BMM paths charge identical
//! `support_checks`/`support_inits`; BMM additionally records its physical
//! tile work in the observational `bmm_tiles`/`bmm_words` counters. BMM is
//! the default under the kernel evaluator; the full scan is the
//! differential oracle and the incremental filter the counter oracle.

use crate::error::EngineError;
use crate::network::{NetParts, Network, SlotId};
use bitmat::{
    col_counts_masked, generation_sweep, support_counts_masked, BitMatrix, BitVec, TileOps,
};

/// One simultaneous pass of consistency maintenance: test the support of
/// every alive role value against the current matrices, then remove every
/// unsupported one. Returns the number removed.
///
/// The pass is *simultaneous* (all support tests read the pre-pass state)
/// to match the P-RAM and MasPar formulations; cascades are handled by
/// iterating the pass (see [`filter`]).
pub fn maintain(net: &mut Network<'_>) -> usize {
    let _phase = obsv::span("maintain");
    assert!(
        net.arcs_ready(),
        "consistency maintenance needs arc matrices"
    );
    // Column-support occupancy per arc, computed once per pass: bit `c` of
    // `occ[idx]` is set iff column `c` of that arc matrix has any 1. This
    // replaces the word-strided per-bit `col_any` probe in the i > j case
    // with one O(1) bit test after a single word-parallel matrix scan.
    let occ = column_occupancies(net);
    let mut doomed: Vec<(usize, usize)> = Vec::new();
    let mut support_checks = 0usize;
    let num = net.num_slots();
    for i in 0..num {
        let si = net.slot(i);
        'value: for a in si.alive.iter_ones() {
            for j in 0..num {
                if j == i {
                    continue;
                }
                support_checks += 1;
                let supported = if i < j {
                    let (m, _) = net.arc(i, j);
                    m.row_any(a)
                } else {
                    occ[net.arc_index(j, i)].get(a)
                };
                if !supported {
                    doomed.push((i, a));
                    continue 'value;
                }
            }
        }
    }
    net.stats.support_checks += support_checks;
    net.stats.maintain_passes += 1;
    let removed = doomed.len();
    for (slot, idx) in doomed {
        net.remove_value(slot, idx);
    }
    removed
}

/// Iterate [`maintain`] until no value is removed or `max_passes` is
/// reached. Returns (total removed, passes run, reached_fixpoint).
///
/// `max_passes = usize::MAX` gives the paper's sequential *filtering*;
/// a small constant gives the MasPar design decision 5.
pub fn filter(net: &mut Network<'_>, max_passes: usize) -> (usize, usize, bool) {
    let mut total = 0;
    let mut passes = 0;
    while passes < max_passes {
        passes += 1;
        let removed = maintain(net);
        total += removed;
        if removed == 0 {
            return (total, passes, true);
        }
    }
    // One extra check: fixpoint reached iff a further pass would remove 0.
    (total, passes, false)
}

/// True if the network is *locally consistent*: no alive role value has an
/// all-zero row/column in any incident arc matrix. This is the filtering
/// fixpoint condition.
pub fn is_locally_consistent(net: &Network<'_>) -> bool {
    let occ = column_occupancies(net);
    let num = net.num_slots();
    for i in 0..num {
        let si = net.slot(i);
        for a in si.alive.iter_ones() {
            for j in 0..num {
                if j == i {
                    continue;
                }
                let supported = if i < j {
                    let (m, _) = net.arc(i, j);
                    m.row_any(a)
                } else {
                    occ[net.arc_index(j, i)].get(a)
                };
                if !supported {
                    return false;
                }
            }
        }
    }
    true
}

/// Column occupancy of every arc matrix, in storage order.
fn column_occupancies(net: &Network<'_>) -> Vec<BitVec> {
    net.arcs_raw().iter().map(|m| m.col_occupancy()).collect()
}

/// AC-4-style incremental filtering state.
///
/// [`maintain`] rescans every alive value's support each pass, unchanged or
/// not. This structure pays the scan once ([`IncrementalFilter::build`]):
/// one counter per (value, incident arc) holding how many 1-entries support
/// the value there. A removal then only *decrements* counters along the
/// zeroed row/column; a counter reaching zero enqueues its value for the
/// next generation. Invariants:
///
/// * counters only decrease, and each equals the number of supporting
///   1-entries in the corresponding arc at all generation boundaries;
/// * generation g removes exactly the set that full-scan pass g would
///   (generation 0 = values unsupported in the initial matrices), so
///   removal order, `filter_passes`, `removals`, `entries_zeroed`, and the
///   final network are identical to [`filter`]'s;
/// * an empty generation is precisely the full-scan pass that removes
///   nothing — the fixpoint.
///
/// `support_checks` counts one per counter decrement (the incremental
/// path's unit of support work); the one-time build cost is recorded
/// separately in `support_inits`.
pub struct IncrementalFilter {
    num_slots: usize,
    /// Per slot: `counts[slot][idx * num_slots + other]` = supporting
    /// 1-entries for value `idx` in the arc toward `other`.
    counts: Vec<Vec<u32>>,
    /// Values ever enqueued (or doomed at build time) — never re-enqueued.
    queued: Vec<BitVec>,
    /// The current generation of unsupported values.
    queue: Vec<(SlotId, usize)>,
}

impl IncrementalFilter {
    /// Scan the matrices once, populating every support counter and the
    /// initial generation (values already unsupported somewhere).
    pub fn build(net: &mut Network<'_>) -> Self {
        assert!(net.arcs_ready(), "incremental filtering needs arc matrices");
        let num = net.num_slots();
        let mut counts: Vec<Vec<u32>> = net
            .slots()
            .iter()
            .map(|s| vec![0u32; s.domain.len() * num])
            .collect();
        let mut inits = 0usize;
        for &(i, j, idx) in net.arc_pairs() {
            let m = &net.arcs_raw()[idx];
            for a in 0..m.rows() {
                counts[i][a * num + j] = m.row_count_ones(a) as u32;
                for b in m.row_ones(a) {
                    counts[j][b * num + i] += 1;
                }
            }
            inits += m.rows() + m.cols();
        }
        net.stats.support_inits += inits;
        let mut queued: Vec<BitVec> = net
            .slots()
            .iter()
            .map(|s| BitVec::zeros(s.domain.len()))
            .collect();
        let mut queue = Vec::new();
        for (i, slot) in net.slots().iter().enumerate() {
            for a in slot.alive.iter_ones() {
                let unsupported = (0..num).any(|j| j != i && counts[i][a * num + j] == 0);
                if unsupported {
                    queued[i].set(a, true);
                    queue.push((i, a));
                }
            }
        }
        IncrementalFilter {
            num_slots: num,
            counts,
            queued,
            queue,
        }
    }

    /// Process one generation: remove every queued value, decrement the
    /// counters its zeroed entries supported, and enqueue newly unsupported
    /// values for the next generation. Returns (removed, reached_fixpoint);
    /// an empty generation is the fixpoint (and still counts as a pass,
    /// like the full-scan pass that removes nothing).
    ///
    /// Errors with [`EngineError::Internal`] if a support counter would
    /// underflow — an engine bug that would otherwise silently corrupt
    /// filtering; the request degrades instead.
    pub fn pass(&mut self, net: &mut Network<'_>) -> Result<(usize, bool), EngineError> {
        let _phase = obsv::span("maintain");
        net.stats.maintain_passes += 1;
        if self.queue.is_empty() {
            return Ok((0, true));
        }
        let generation = std::mem::take(&mut self.queue);
        let num = self.num_slots;
        let mut next: Vec<(SlotId, usize)> = Vec::new();
        let mut disturbed: Vec<usize> = Vec::new();
        for &(slot, idx) in &generation {
            for other in 0..num {
                if other == slot {
                    continue;
                }
                // Collect the entries this removal will zero *before*
                // `remove_value` clears them.
                disturbed.clear();
                if slot < other {
                    let m = &net.arcs_raw()[net.arc_index(slot, other)];
                    disturbed.extend(m.row_ones(idx));
                } else {
                    let m = &net.arcs_raw()[net.arc_index(other, slot)];
                    disturbed.extend((0..m.rows()).filter(|&r| m.get(r, idx)));
                }
                net.stats.support_checks += disturbed.len();
                for &b in &disturbed {
                    let c = &mut self.counts[other][b * num + slot];
                    if *c == 0 {
                        return Err(support_underflow(other, b, slot));
                    }
                    *c -= 1;
                    if *c == 0 && net.slot(other).alive.get(b) && !self.queued[other].get(b) {
                        self.queued[other].set(b, true);
                        next.push((other, b));
                    }
                }
            }
            net.remove_value(slot, idx);
        }
        // Canonical ascending (slot, value) order within a generation —
        // shared by all three strategies (full-scan dooms in this order,
        // BMM sorts identically), so removal schedules compare bit-equal.
        next.sort_unstable();
        self.queue = next;
        Ok((generation.len(), false))
    }

    /// Drive [`IncrementalFilter::pass`] like [`filter`]: at most
    /// `max_passes` generations, stopping at the fixpoint. Returns (total
    /// removed, passes run, reached_fixpoint).
    pub fn run(
        &mut self,
        net: &mut Network<'_>,
        max_passes: usize,
    ) -> Result<(usize, usize, bool), EngineError> {
        let mut total = 0;
        let mut passes = 0;
        while passes < max_passes {
            passes += 1;
            let (removed, fixpoint) = self.pass(net)?;
            total += removed;
            if fixpoint {
                return Ok((total, passes, true));
            }
        }
        Ok((total, passes, false))
    }
}

/// Build an [`IncrementalFilter`] and run it — the incremental counterpart
/// of [`filter`], with identical return semantics and removal sequence.
pub fn filter_incremental(
    net: &mut Network<'_>,
    max_passes: usize,
) -> Result<(usize, usize, bool), EngineError> {
    if max_passes == 0 {
        return Ok((0, 0, false));
    }
    let mut inc = IncrementalFilter::build(net);
    inc.run(net, max_passes)
}

/// The [`EngineError::Internal`] raised when a support counter would
/// underflow: decrementing past zero means the counters have drifted from
/// the matrices, and continuing would silently corrupt filtering.
fn support_underflow(slot: SlotId, idx: usize, other: SlotId) -> EngineError {
    EngineError::Internal {
        detail: format!("support counter underflow (slot {slot}, value {idx}, arc toward {other})"),
    }
}

/// Support-counter totals of one arc matrix, computed with tile kernels:
/// `row_counts[a]` = 1-entries in row `a` (how many column values support
/// row value `a`), `col_counts[b]` = 1-entries in column `b`. Pure (no
/// `Network`), so the parallel engine can fan arcs across threads and
/// apply results sequentially in arc order.
pub struct ArcSupport {
    pub row_counts: Vec<u32>,
    pub col_counts: Vec<u32>,
    pub ops: TileOps,
}

/// Compute [`ArcSupport`] for one arc matrix with one fused data pass
/// ([`support_counts_masked`]): row popcounts and the batched
/// tile-transpose column walk share each loaded word.
///
/// `alive_rows`, when given, restricts the sweep to rows whose bit is
/// set. This is exact, not approximate: the parser zeroes a value's row
/// and column in every incident arc the moment the value dies, so a dead
/// row contributes nothing to either count — skipping it skips only
/// zeros. On the sparse networks the pipeline actually produces (a few
/// alive values per slot against label×n-sized domains) this turns the
/// build from a full-matrix scan into one proportional to the live rows.
pub fn arc_support_counts(m: &BitMatrix, alive_rows: Option<&BitVec>) -> ArcSupport {
    let mut ops = TileOps::default();
    let mut row_counts = vec![0u32; m.rows()];
    let mut col_counts = vec![0u32; m.cols()];
    support_counts_masked(m, alive_rows, &mut row_counts, &mut col_counts, &mut ops);
    ArcSupport {
        row_counts,
        col_counts,
        ops,
    }
}

/// Per-arc counter decrements owed by one generation of removals, where
/// `rows`/`cols` mark the values removed this generation on the row /
/// column side of the arc.
///
/// Attribution is *rows-first*: entries lying in removed rows decrement
/// the column value's counter (`dec_cols`, via one masked tile-transpose
/// sweep); entries lying in removed columns but **outside** removed rows
/// decrement the row value's counter (`dec_rows`, via word-parallel
/// masked row popcounts). Every entry the generation zeroes is thereby
/// counted exactly once, so `Σ dec_rows + Σ dec_cols` equals both the
/// sequential filter's `support_checks` charge and the entries zeroed in
/// this arc. Contested entries (row *and* column removed) land on the
/// column side, i.e. on a counter whose value is already dead — the only
/// place the sequential order-dependent attribution could differ, and
/// exactly where it is unobservable.
pub struct ArcDeltas {
    pub dec_rows: Vec<u32>,
    pub dec_cols: Vec<u32>,
    pub ops: TileOps,
}

/// Compute [`ArcDeltas`] from the pre-generation arc matrix. Pure: the
/// caller zeroes the matrix afterwards ([`BitMatrix::clear_rows_cols`])
/// and applies the decrements to its counters.
pub fn arc_generation_deltas(m: &BitMatrix, rows: &BitVec, cols: &BitVec) -> ArcDeltas {
    let mut ops = TileOps::default();
    let mut dec_cols = vec![0u32; m.cols()];
    if rows.any() {
        col_counts_masked(m, Some(rows), &mut dec_cols, &mut ops);
    }
    let mut dec_rows = vec![0u32; m.rows()];
    if cols.any() {
        let row_words = m.cols().div_ceil(64);
        for (a, slot) in dec_rows.iter_mut().enumerate() {
            if rows.get(a) {
                continue;
            }
            // One masked popcount reads the row and the column mask.
            ops.words += 2 * row_words as u64;
            *slot = m.row_masked_count_ones(a, cols) as u32;
        }
    }
    ArcDeltas {
        dec_rows,
        dec_cols,
        ops,
    }
}

/// One generation's decrements for an arc in sparse form, produced by the
/// fused [`generation_sweep`] kernel (which also zeroes the disturbed
/// rows/columns in the same pass): `(value, count)` pairs for each side,
/// plus the entries cleared.
pub struct ArcSweep {
    pub dec_rows: Vec<(u32, u32)>,
    pub dec_cols: Vec<(u32, u32)>,
    pub zeroed: usize,
    pub ops: TileOps,
}

/// Run the fused generation kernel on one arc, returning sparse deltas.
/// Semantically `arc_generation_deltas` + [`BitMatrix::clear_rows_cols`]
/// in one sweep restricted to rows that can hold bits (`occupied` — the
/// row-side slot's alive set; see [`arc_support_counts`] for why dead
/// rows are skippable exactly). Allocates its own scratch, so the
/// parallel engine can call it from independent arc tasks; the serial
/// [`BmmFilter`] keeps reusable scratch instead.
pub fn arc_generation_sweep(
    m: &mut BitMatrix,
    rows: &BitVec,
    cols: &BitVec,
    occupied: &BitVec,
) -> ArcSweep {
    let mut ops = TileOps::default();
    let mut dec_rows = Vec::new();
    let mut dense = vec![0u32; m.cols()];
    let mut touched = Vec::new();
    let zeroed = generation_sweep(
        m,
        rows,
        cols,
        occupied,
        &mut dec_rows,
        &mut dense,
        &mut touched,
        &mut ops,
    );
    let dec_cols = touched.iter().map(|&b| (b, dense[b as usize])).collect();
    ArcSweep {
        dec_rows,
        dec_cols,
        zeroed,
        ops,
    }
}

/// Blocked boolean-matrix-multiplication filtering state.
///
/// Same AC-4 counter semantics, queue discipline, and generation
/// invariants as [`IncrementalFilter`] — but where the incremental path
/// walks one (value, arc) at a time, this one processes a whole
/// generation per arc with tile kernels: build populates both endpoints'
/// counters from one alive-masked [`arc_support_counts`] sweep per arc,
/// and each pass computes every decrement *and* zeroes the disturbed
/// rows/columns with one fused [`generation_sweep`] over the occupied
/// rows (dead rows are all-zero everywhere, so skipping them is exact).
///
/// Stats parity is exact: `support_checks`, `support_inits`,
/// `entries_zeroed`, `removals`, and `maintain_passes` match the
/// incremental filter bit-for-bit (see [`ArcDeltas`] for the attribution
/// argument); the physical tile work is recorded separately in
/// `bmm_tiles`/`bmm_words`.
pub struct BmmFilter {
    num_slots: usize,
    /// Per slot: `counts[slot][idx * num_slots + other]` = supporting
    /// 1-entries for value `idx` in the arc toward `other`.
    counts: Vec<Vec<u32>>,
    /// Values ever enqueued (or doomed at build time) — never re-enqueued.
    queued: Vec<BitVec>,
    /// The current generation of unsupported values.
    queue: Vec<(SlotId, usize)>,
    /// Per-slot scratch: values removed in the generation being processed.
    removed: Vec<BitVec>,
    /// Reusable sparse-sweep scratch: `(row, count)` pairs from the last
    /// arc's sweep.
    scratch_rows: Vec<(u32, u32)>,
    /// Dense per-column accumulator sized to the largest domain; zero
    /// outside the entries named by `scratch_touched` (reset after each
    /// arc instead of cleared densely).
    scratch_cols: Vec<u32>,
    /// Columns whose accumulator entry is currently nonzero.
    scratch_touched: Vec<u32>,
}

/// Reusable buffer bag for [`BmmFilter`]: the tile-sweep scratch vectors
/// and recycled support-counter buffers. A warm serve worker keeps one
/// `BmmScratch` across requests; [`BmmFilter::build_warm`] adopts the
/// buffers (cleared and re-zeroed, so state is bit-identical to a cold
/// build) and [`BmmFilter::recycle`] returns them when the parse is done.
#[derive(Debug, Default)]
pub struct BmmScratch {
    rows: Vec<(u32, u32)>,
    cols: Vec<u32>,
    touched: Vec<u32>,
    /// Retired support-counter buffers, largest-capacity last.
    count_bufs: Vec<Vec<u32>>,
    /// Counter buffers adopted from the bag instead of freshly allocated.
    reuses: u64,
}

/// Keep at most this many retired counter buffers (one per slot of a
/// recent parse; short serve sentences need only a handful).
const BMM_BAG_CAP: usize = 64;

impl BmmScratch {
    /// How many buffer adoptions were served from the bag so far.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// A zeroed `Vec<u32>` of length `len`, recycled when possible.
    fn take_buf(&mut self, len: usize) -> Vec<u32> {
        match self.count_bufs.pop() {
            Some(mut buf) => {
                self.reuses += 1;
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => vec![0u32; len],
        }
    }
}

impl BmmFilter {
    /// Scan the matrices once with tile kernels, populating every support
    /// counter and the initial generation. Counter values, `support_inits`,
    /// and the initial queue are identical to
    /// [`IncrementalFilter::build`]'s.
    pub fn build(net: &mut Network<'_>) -> Self {
        Self::build_warm(net, &mut BmmScratch::default())
    }

    /// [`BmmFilter::build`] drawing every sizable buffer from `scratch`.
    /// Adopted buffers are cleared and re-zeroed before use, so the
    /// filter's observable behavior (counters, removal schedule, stats)
    /// is identical to a cold [`BmmFilter::build`].
    pub fn build_warm(net: &mut Network<'_>, scratch: &mut BmmScratch) -> Self {
        assert!(net.arcs_ready(), "BMM filtering needs arc matrices");
        let num = net.num_slots();
        let mut counts: Vec<Vec<u32>> = net
            .slots()
            .iter()
            .map(|s| scratch.take_buf(s.domain.len() * num))
            .collect();
        let mut inits = 0usize;
        let mut ops = TileOps::default();
        for &(i, j, idx) in net.arc_pairs() {
            let m = &net.arcs_raw()[idx];
            let support = arc_support_counts(m, Some(&net.slots()[i].alive));
            ops.absorb(support.ops);
            for (a, &c) in support.row_counts.iter().enumerate() {
                counts[i][a * num + j] = c;
            }
            for (b, &c) in support.col_counts.iter().enumerate() {
                counts[j][b * num + i] = c;
            }
            inits += m.rows() + m.cols();
        }
        net.stats.support_inits += inits;
        net.stats.bmm_tiles += ops.tiles as usize;
        net.stats.bmm_words += ops.words as usize;
        let mut queued: Vec<BitVec> = net
            .slots()
            .iter()
            .map(|s| BitVec::zeros(s.domain.len()))
            .collect();
        let mut queue = Vec::new();
        for (i, slot) in net.slots().iter().enumerate() {
            for a in slot.alive.iter_ones() {
                let unsupported = (0..num).any(|j| j != i && counts[i][a * num + j] == 0);
                if unsupported {
                    queued[i].set(a, true);
                    queue.push((i, a));
                }
            }
        }
        let removed = net
            .slots()
            .iter()
            .map(|s| BitVec::zeros(s.domain.len()))
            .collect();
        let max_domain = net
            .slots()
            .iter()
            .map(|s| s.domain.len())
            .max()
            .unwrap_or(0);
        let mut scratch_rows = std::mem::take(&mut scratch.rows);
        scratch_rows.clear();
        let mut scratch_cols = std::mem::take(&mut scratch.cols);
        scratch_cols.clear();
        scratch_cols.resize(max_domain, 0);
        let mut scratch_touched = std::mem::take(&mut scratch.touched);
        scratch_touched.clear();
        BmmFilter {
            num_slots: num,
            counts,
            queued,
            queue,
            removed,
            scratch_rows,
            scratch_cols,
            scratch_touched,
        }
    }

    /// Retire this filter's buffers into `scratch` for the next parse.
    pub fn recycle(self, scratch: &mut BmmScratch) {
        scratch.rows = self.scratch_rows;
        scratch.cols = self.scratch_cols;
        scratch.touched = self.scratch_touched;
        for buf in self.counts {
            if scratch.count_bufs.len() >= BMM_BAG_CAP {
                break;
            }
            scratch.count_bufs.push(buf);
        }
    }

    /// Process one generation with tile kernels. Same contract and
    /// observable effects as [`IncrementalFilter::pass`], including the
    /// typed underflow error.
    pub fn pass(&mut self, net: &mut Network<'_>) -> Result<(usize, bool), EngineError> {
        let _phase = obsv::span("maintain");
        net.stats.maintain_passes += 1;
        if self.queue.is_empty() {
            return Ok((0, true));
        }
        let generation = std::mem::take(&mut self.queue);
        let num = self.num_slots;
        for mask in &mut self.removed {
            let len = mask.len();
            mask.reset(len);
        }
        for &(slot, idx) in &generation {
            self.removed[slot].set(idx, true);
            net.clear_alive(slot, idx);
        }
        let mut next: Vec<(SlotId, usize)> = Vec::new();
        let mut ops = TileOps::default();
        let mut support_checks = 0usize;
        let mut zeroed = 0usize;
        let NetParts {
            slots, arcs, pairs, ..
        } = net.parts_mut();
        let BmmFilter {
            counts,
            queued,
            removed,
            scratch_rows,
            scratch_cols,
            scratch_touched,
            ..
        } = self;
        for &(i, j, idx) in pairs {
            let rows = &removed[i];
            let cols = &removed[j];
            if rows.none() && cols.none() {
                continue;
            }
            scratch_rows.clear();
            zeroed += generation_sweep(
                &mut arcs[idx],
                rows,
                cols,
                &slots[i].alive,
                scratch_rows,
                scratch_cols,
                scratch_touched,
                &mut ops,
            );
            for &(a, d) in scratch_rows.iter() {
                let a = a as usize;
                support_checks += d as usize;
                let c = &mut counts[i][a * num + j];
                if *c < d {
                    return Err(support_underflow(i, a, j));
                }
                *c -= d;
                if *c == 0 && slots[i].alive.get(a) && !queued[i].get(a) {
                    queued[i].set(a, true);
                    next.push((i, a));
                }
            }
            for &b in scratch_touched.iter() {
                let b = b as usize;
                let d = scratch_cols[b];
                scratch_cols[b] = 0;
                support_checks += d as usize;
                let c = &mut counts[j][b * num + i];
                if *c < d {
                    return Err(support_underflow(j, b, i));
                }
                *c -= d;
                if *c == 0 && slots[j].alive.get(b) && !queued[j].get(b) {
                    queued[j].set(b, true);
                    next.push((j, b));
                }
            }
            scratch_touched.clear();
        }
        debug_assert_eq!(
            support_checks, zeroed,
            "each zeroed entry must decrement exactly one counter"
        );
        net.stats.support_checks += support_checks;
        net.stats.entries_zeroed += zeroed;
        net.stats.bmm_tiles += ops.tiles as usize;
        net.stats.bmm_words += ops.words as usize;
        next.sort_unstable();
        self.queue = next;
        Ok((generation.len(), false))
    }

    /// Drive [`BmmFilter::pass`] like [`filter`]: at most `max_passes`
    /// generations, stopping at the fixpoint. Returns (total removed,
    /// passes run, reached_fixpoint).
    pub fn run(
        &mut self,
        net: &mut Network<'_>,
        max_passes: usize,
    ) -> Result<(usize, usize, bool), EngineError> {
        let mut total = 0;
        let mut passes = 0;
        while passes < max_passes {
            passes += 1;
            let (removed, fixpoint) = self.pass(net)?;
            total += removed;
            if fixpoint {
                return Ok((total, passes, true));
            }
        }
        Ok((total, passes, false))
    }
}

/// Build a [`BmmFilter`] and run it — the blocked-BMM counterpart of
/// [`filter`]/[`filter_incremental`], with identical return semantics and
/// removal sequence.
pub fn filter_bmm(
    net: &mut Network<'_>,
    max_passes: usize,
) -> Result<(usize, usize, bool), EngineError> {
    if max_passes == 0 {
        return Ok((0, 0, false));
    }
    let mut f = BmmFilter::build(net);
    f.run(net, max_passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::{apply_all_binary, apply_all_unary, apply_binary};
    use cdg_grammar::grammars::paper;

    fn alive_strs(net: &Network<'_>, word: u16, role: &str) -> Vec<String> {
        let g = net.grammar();
        let slot = net.slot(net.slot_id(word, g.role_id(role).unwrap()));
        slot.alive
            .iter_ones()
            .map(|i| {
                let rv = slot.domain[i];
                format!("{}-{}", g.label_name(rv.label), rv.modifiee)
            })
            .collect()
    }

    #[test]
    fn figure5_first_binary_plus_maintenance() {
        // After the first binary constraint and one consistency-maintenance
        // step, SUBJ-1 disappears from program/governor (Figure 5).
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let mut net = Network::build(&g, &s);
        apply_all_unary(&mut net);
        net.init_arcs();
        apply_binary(&mut net, &g.binary_constraints()[0]);
        assert_eq!(alive_strs(&net, 1, "governor"), vec!["SUBJ-1", "SUBJ-3"]);
        let removed = maintain(&mut net);
        assert_eq!(removed, 1);
        assert_eq!(alive_strs(&net, 1, "governor"), vec!["SUBJ-3"]);
        // The rest of Figure 5's state.
        assert_eq!(alive_strs(&net, 0, "governor"), vec!["DET-2", "DET-3"]);
        assert_eq!(alive_strs(&net, 1, "needs"), vec!["NP-1", "NP-3"]);
        assert_eq!(alive_strs(&net, 2, "needs"), vec!["S-1", "S-2"]);
    }

    #[test]
    fn figure6_full_propagation_and_filtering() {
        // After all binary constraints and filtering, the network is
        // unambiguous (Figure 6).
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let mut net = Network::build(&g, &s);
        apply_all_unary(&mut net);
        net.init_arcs();
        apply_all_binary(&mut net);
        let (_, passes, fixpoint) = filter(&mut net, usize::MAX);
        assert!(fixpoint);
        assert!(
            passes <= 10,
            "paper: typically fewer than 10 passes, got {passes}"
        );
        assert_eq!(alive_strs(&net, 0, "governor"), vec!["DET-2"]);
        assert_eq!(alive_strs(&net, 0, "needs"), vec!["BLANK-nil"]);
        assert_eq!(alive_strs(&net, 1, "governor"), vec!["SUBJ-3"]);
        assert_eq!(alive_strs(&net, 1, "needs"), vec!["NP-1"]);
        assert_eq!(alive_strs(&net, 2, "governor"), vec!["ROOT-nil"]);
        assert_eq!(alive_strs(&net, 2, "needs"), vec!["S-2"]);
        assert!(net.all_roles_nonempty());
        assert!(is_locally_consistent(&net));
    }

    #[test]
    fn maintain_never_removes_supported_values() {
        // On a freshly built all-ones network, nothing is unsupported.
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        assert_eq!(maintain(&mut net), 0);
        assert!(is_locally_consistent(&net));
    }

    #[test]
    fn filter_pass_cap_is_respected() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let mut net = Network::build(&g, &s);
        apply_all_unary(&mut net);
        net.init_arcs();
        apply_all_binary(&mut net);
        let (_, passes, _) = filter(&mut net, 1);
        assert_eq!(passes, 1);
    }

    #[test]
    fn fixpoint_flag_is_accurate() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let mut net = Network::build(&g, &s);
        apply_all_unary(&mut net);
        net.init_arcs();
        apply_all_binary(&mut net);
        let (_, _, fixpoint) = filter(&mut net, usize::MAX);
        assert!(fixpoint);
        // After a fixpoint, further passes remove nothing.
        assert_eq!(maintain(&mut net), 0);
    }

    #[test]
    fn incremental_filter_matches_full_rescan() {
        // filter_incremental reaches the same fixpoint as filter — same
        // alive sets, same removal total — while charging strictly fewer
        // support checks (it only touches disturbed rows).
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let mut full = Network::build(&g, &s);
        apply_all_unary(&mut full);
        full.init_arcs();
        apply_all_binary(&mut full);
        let mut inc = full.clone();
        full.stats.support_checks = 0;
        inc.stats.support_checks = 0;

        let (removed_f, _, fx_f) = filter(&mut full, usize::MAX);
        let (removed_i, _, fx_i) = filter_incremental(&mut inc, usize::MAX).unwrap();
        assert_eq!(removed_f, removed_i);
        assert!(fx_f && fx_i);
        for (a, b) in full.slots().iter().zip(inc.slots()) {
            assert_eq!(a.alive, b.alive);
        }
        assert!(
            inc.stats.support_checks < full.stats.support_checks,
            "incremental {} vs full {}",
            inc.stats.support_checks,
            full.stats.support_checks
        );
    }

    #[test]
    fn bmm_filter_matches_incremental_exactly() {
        // The BMM filter is the incremental filter re-expressed in tile
        // kernels: pass-by-pass removal counts, alive sets, matrices, and
        // every stats field except the observational bmm_* counters must
        // be identical.
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let mut inc = Network::build(&g, &s);
        apply_all_unary(&mut inc);
        inc.init_arcs();
        apply_all_binary(&mut inc);
        let mut bmm = inc.clone();

        let mut fi = IncrementalFilter::build(&mut inc);
        let mut fb = BmmFilter::build(&mut bmm);
        assert_eq!(fi.counts, fb.counts, "built support counters differ");
        assert_eq!(fi.queue, fb.queue, "initial generations differ");
        loop {
            let (ri, fxi) = fi.pass(&mut inc).unwrap();
            let (rb, fxb) = fb.pass(&mut bmm).unwrap();
            assert_eq!((ri, fxi), (rb, fxb), "pass results diverged");
            assert_eq!(fi.queue, fb.queue, "next generations diverged");
            for (a, b) in inc.slots().iter().zip(bmm.slots()) {
                assert_eq!(a.alive, b.alive, "alive sets diverged");
            }
            assert_eq!(inc.arcs_raw(), bmm.arcs_raw(), "matrices diverged");
            if fxi {
                break;
            }
        }
        let mut masked = bmm.stats;
        // Words are always touched; tiles only appear when a block is
        // dense enough for the adaptive kernels to transpose (the paper
        // example is far below that threshold).
        assert!(masked.bmm_words > 0);
        masked.bmm_tiles = inc.stats.bmm_tiles;
        masked.bmm_words = inc.stats.bmm_words;
        assert_eq!(inc.stats, masked, "stats diverged beyond bmm_* counters");
    }

    #[test]
    fn rejection_empties_a_role() {
        // "program the runs": the determiner has no noun to its right, so
        // every pair of the determiner's governor values with the noun's
        // role values is zeroed and the slot empties.
        let g = paper::grammar();
        let lex = paper::lexicon(&g);
        let s = lex.sentence("program the runs").unwrap();
        let mut net = Network::build(&g, &s);
        apply_all_unary(&mut net);
        net.init_arcs();
        apply_all_binary(&mut net);
        filter(&mut net, usize::MAX);
        assert!(!net.all_roles_nonempty());
    }
}
