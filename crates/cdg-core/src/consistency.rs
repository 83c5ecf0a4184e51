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
//! Two implementations coexist, producing identical removal schedules,
//! alive sets, and final matrices: the full-scan [`maintain`]/[`filter`]
//! pair (one row/column probe per alive value per incident arc, every
//! pass), the differential oracle; and the [`IncrementalFilter`], which
//! runs the same zero-row/zero-column test but only on the rows and
//! columns a removal touched, with no support counters. The incremental
//! filter is the default under the kernel evaluator. Every host engine
//! runs this serial code; the P-RAM engine charges each pass as rounds of
//! its ledger.

use crate::kernel::{bit, ones};
use crate::network::{triangular_index, ArcMatrix, Network, RoleSlot, SlotId};
use crate::parser::{Executor, Serial, Step};
use bitmat::{BitMatrix, BitVec};
use std::convert::Infallible;

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
    let occ = column_occupancies(net);
    let mut doomed: Vec<(usize, usize)> = Vec::new();
    let mut support_checks = 0usize;
    for i in 0..net.num_slots() {
        for a in net.slot(i).alive.iter_ones() {
            if !supported(net, &occ, i, a, &mut support_checks) {
                doomed.push((i, a));
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

/// Whether alive value `a` of slot `i` has a 1 in every incident arc:
/// in its row of arc (i, j) for j > i, in its column for j < i — one bit
/// of that arc's column occupancy `occ` (computed once per pass by a
/// single word-parallel matrix scan). On an outer arc the row or column
/// is the other slot's alive set, so it has a 1 iff that slot is
/// non-empty. Stops at the first arc without one; `checks` counts the
/// arcs probed.
fn supported(net: &Network<'_>, occ: &[BitVec], i: SlotId, a: usize, checks: &mut usize) -> bool {
    (0..net.num_slots()).filter(|&j| j != i).all(|j| {
        *checks += 1;
        let (arc, straight) = net.arc(i, j);
        match arc.matrix {
            ArcMatrix::Outer => net.slot(j).alive.any(),
            ArcMatrix::Stored(m) if straight => m.row_any(a),
            ArcMatrix::Stored(_) => occ[net.arc_index(j, i)].get(a),
        }
    })
}

/// Iterate [`maintain`] until no value is removed or `max_passes` is
/// reached. Returns (total removed, passes run, reached_fixpoint).
///
/// `max_passes = usize::MAX` gives the paper's sequential *filtering*;
/// a small constant gives the MasPar design decision 5.
pub fn filter(net: &mut Network<'_>, max_passes: usize) -> (usize, usize, bool) {
    filter_with(net, &mut Serial, false, max_passes, |_| false)
}

/// Filter at most `max_passes` passes, one at a time, with the
/// [`IncrementalFilter`] (`incremental`) or the full scan, charging each
/// step to `exec`'s ledger. `stop` is
/// asked before each pass with the passes run so far and ends the loop
/// when it returns true, so a budget binds between passes and a pass in
/// progress always completes. The incremental filter is built lazily, so
/// a run that filters nothing pays nothing. Both filters remove the same
/// values in the same passes. Returns (total removed, passes run,
/// reached_fixpoint); a network without arcs has nothing to filter.
pub(crate) fn filter_with<E: Executor>(
    net: &mut Network<'_>,
    exec: &mut E,
    incremental: bool,
    max_passes: usize,
    mut stop: impl FnMut(usize) -> bool,
) -> (usize, usize, bool) {
    let mut filter: Option<IncrementalFilter> = None;
    let (mut total, mut passes, mut settled) = (0, 0, false);
    while !settled && net.arcs_ready() && passes < max_passes && !stop(passes) {
        let (step, removed, fixpoint) = if incremental {
            let filter = filter.get_or_insert_with(|| {
                let built = IncrementalFilter::build(net);
                exec.cost(net, Step::FilterBuild, Some(0));
                built
            });
            exec.cost(net, Step::Generation, None);
            let (removed, fixpoint) = filter.pass(net);
            (Step::Generation, removed, fixpoint)
        } else {
            exec.cost(net, Step::Scan, None);
            let removed = maintain(net);
            (Step::Scan, removed, removed == 0)
        };
        exec.cost(net, step, Some(removed));
        total += removed;
        passes += 1;
        settled = fixpoint;
    }
    if let Some(filter) = filter {
        filter.release(net);
    }
    (total, passes, settled)
}

/// True if the network is *locally consistent*: no alive role value has an
/// all-zero row/column in any incident arc matrix. This is the filtering
/// fixpoint condition.
pub fn is_locally_consistent(net: &Network<'_>) -> bool {
    let occ = column_occupancies(net);
    (0..net.num_slots()).all(|i| {
        net.slot(i)
            .alive
            .iter_ones()
            .all(|a| supported(net, &occ, i, a, &mut 0))
    })
}

/// Column occupancy of every stored arc, in storage order (empty for an
/// outer arc, whose support [`supported`] reads off the alive sets).
fn column_occupancies(net: &Network<'_>) -> Vec<BitVec> {
    net.arc_views()
        .map(|v| match v.matrix {
            ArcMatrix::Outer => BitVec::zeros(0),
            ArcMatrix::Stored(m) => m.col_occupancy(),
        })
        .collect()
}

/// The counter-free incremental filter: the paper's zero-row test, run
/// only where a removal can have changed its answer.
///
/// By the dead-row invariant (a value's row and column are zeroed in
/// every incident arc the moment it dies), a value is supported by an arc
/// iff its row there has a 1, or, on the column side, iff the OR of the
/// arc's rows has its bit set. The MP-1 settles the same question with a
/// segmented `scanOr` per row or column (design decisions 3–4); here it is
/// a word-parallel test per arc. No support is counted.
///
/// Work is scheduled in generations, exactly as [`filter`]'s passes:
///
/// * generation 0 ([`IncrementalFilter::build`]) is every alive value with
///   an all-zero row or column in some arc;
/// * generation k+1 is every value whose row or column lost its last 1
///   when generation k was zeroed. Only rows with a 1 in a removed column,
///   and columns with a 1 in a removed row, can lose support, so only
///   those are tested again, and only on the arcs incident to a slot that
///   lost a value;
/// * an empty generation is the full-scan pass that removes nothing — the
///   fixpoint.
///
/// Generation g removes exactly the set full-scan pass g would, so alive
/// sets, matrices, `removals`, `entries_zeroed` and the pass count equal
/// [`filter`]'s. The ledger is the incremental one: `support_inits` is
/// rows + columns per arc at the build, and `support_checks` is the number
/// of 1-entries each generation zeroes, each counted once.
///
/// The filter's state is two bitsets per slot — the values ever queued
/// (never re-queued) and the generation being removed, kept as the rows of
/// one matrix drawn from the network's arc pool — and its lists
/// (`FilterBuffers`), taken from the network. Both are handed back when
/// filtering ends ([`IncrementalFilter::release`]), so a warm worker
/// reuses them from parse to parse.
pub struct IncrementalFilter {
    marks: Marks,
    bufs: FilterBuffers,
}

/// The incremental filter's lists, warm across parses (a network lends
/// them from its [`crate::network::NetSlab`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct FilterBuffers {
    /// The next generation, in ascending (slot, value) order.
    queue: Vec<(SlotId, usize)>,
    /// The generation being removed.
    current: Vec<(SlotId, usize)>,
    /// The values one sweep leaves unsupported, in any order.
    unsupported: Vec<(SlotId, usize)>,
    /// Per slot, its alive values and its values in the generation being
    /// removed, counted once per generation.
    sizes: Vec<(usize, usize)>,
    /// The slots that lost a value in the generation being removed,
    /// ascending.
    touched: Vec<SlotId>,
    /// One arc's candidate columns (`FilterStep::arc`).
    words: Vec<u64>,
}

/// The filter's bitsets: row `k` holds slot `k`'s queued values and row
/// `slots + k` the generation being removed from it, over a row as wide
/// as the largest domain (bits past a slot's domain stay 0).
struct Marks {
    rows: BitMatrix,
    slots: usize,
}

impl Marks {
    fn queued(&self, k: SlotId) -> &[u64] {
        self.rows.row(k)
    }

    fn removed(&self, k: SlotId) -> &[u64] {
        self.rows.row(self.slots + k)
    }
}

/// Whether any bit of `words` is set.
fn any(words: &[u64]) -> bool {
    words.iter().any(|&w| w != 0)
}

/// What one step's arc work reads: the slots' alive sets, the filter's
/// bitsets and the per-slot sizes, frozen for the step. Every arc reads it
/// and writes only its own matrix ([`FilterStep::arc`]).
struct FilterStep<'a> {
    slots: &'a [RoleSlot],
    marks: &'a Marks,
    /// Per slot, (alive values, values being removed).
    sizes: &'a [(usize, usize)],
    /// Generation 0: every alive, unqueued value is tested.
    build: bool,
}

impl FilterStep<'_> {
    /// One arc's share of the step, on arc `arc` between row slot `i` and
    /// column slot `j`: zero the removed rows and columns, then push into
    /// `unsupported` every alive, unqueued value of either slot left with
    /// no 1 in the arc. Returns the 1-entries zeroed. `words` is scratch.
    ///
    /// Dead rows are all-zero, so only the alive rows are visited. At the
    /// build every alive value is tested; after that only the rows that
    /// lost a 1 and the columns that had a 1 in a removed row are. The
    /// column test ORs the surviving rows and stops as soon as every
    /// candidate is covered. An outer arc is answered from the slot sizes
    /// (`FilterStep::outer_arc`).
    fn arc(
        &self,
        i: SlotId,
        j: SlotId,
        arc: &mut ArcMatrix,
        words: &mut Vec<u64>,
        unsupported: &mut Vec<(SlotId, usize)>,
    ) -> usize {
        let m = match arc {
            ArcMatrix::Outer => return self.outer_arc(i, j, unsupported),
            ArcMatrix::Stored(m) => m,
        };
        let (rows, cols) = (self.marks.removed(i), self.marks.removed(j));
        let mut zeroed = 0usize;
        // `words`: the candidate columns no surviving row covers yet —
        // every column at the build, later those with a 1 in a removed
        // row — narrowed to the alive, unqueued ones.
        words.clear();
        words.resize(m.cols().div_ceil(64), if self.build { !0 } else { 0 });
        for r in ones(rows) {
            let row = m.row_mut(r);
            for (x, w) in words.iter_mut().zip(row.iter()) {
                *x |= w;
                zeroed += w.count_ones() as usize;
            }
            row.fill(0);
        }
        let open = self.slots[j].alive.words().iter().zip(self.marks.queued(j));
        for (x, (&a, &q)) in words.iter_mut().zip(open) {
            *x &= a & !q;
        }
        let mut missing = words.iter().any(|&w| w != 0);
        let clear = self.sizes[j].1 > 0;
        let queued = self.marks.queued(i);
        for a in self.slots[i].alive.iter_ones() {
            if !(self.build || clear || missing) {
                break;
            }
            let row = m.row_mut(a);
            let mut lost = 0usize;
            if clear {
                for (w, &c) in row.iter_mut().zip(cols) {
                    lost += (*w & c).count_ones() as usize;
                    *w &= !c;
                }
                zeroed += lost;
            }
            if (self.build || lost > 0) && !bit(queued, a) && !any(row) {
                unsupported.push((i, a));
            }
            if missing {
                for (x, &w) in words.iter_mut().zip(row.iter()) {
                    *x &= !w;
                }
                missing = words.iter().any(|&w| w != 0);
            }
        }
        unsupported.extend(ones(words).map(|b| (j, b)));
        zeroed
    }

    /// [`FilterStep::arc`] on an outer arc, in O(1) per slot off the
    /// slot sizes. Before the step the arc was `(A_i ∪ R_i) ⊗ (A_j ∪ R_j)`
    /// (A a slot's alive set, R the generation being removed) and after it
    /// `A_i ⊗ A_j`, so it zeroes the difference of the two areas. Every
    /// alive row is `A_j`: a row that lost a 1 (some column was removed),
    /// or any row at the build, is unsupported iff `A_j` is empty; the
    /// columns likewise with the roles swapped.
    fn outer_arc(&self, i: SlotId, j: SlotId, unsupported: &mut Vec<(SlotId, usize)>) -> usize {
        let ((ai, ri), (aj, rj)) = (self.sizes[i], self.sizes[j]);
        for (k, touched, other) in [(i, rj, aj), (j, ri, ai)] {
            if (self.build || touched > 0) && other == 0 {
                let queued = self.marks.queued(k);
                unsupported.extend(
                    ones(self.slots[k].alive.words())
                        .filter(|&v| !bit(queued, v))
                        .map(|v| (k, v)),
                );
            }
        }
        (ai + ri) * (aj + rj) - ai * aj
    }
}

impl IncrementalFilter {
    /// Test every alive value once (generation 0).
    pub fn build(net: &mut Network<'_>) -> Self {
        assert!(net.arcs_ready(), "incremental filtering needs arc matrices");
        let slots = net.num_slots();
        let width = net
            .slots()
            .iter()
            .map(|s| s.domain.len())
            .max()
            .unwrap_or(0);
        let mut bufs = std::mem::take(&mut net.filter_buffers);
        bufs.queue.clear();
        bufs.touched.clear();
        bufs.sizes.clear();
        bufs.sizes
            .extend(net.slots().iter().map(|s| (s.alive.count_ones(), 0)));
        let mut filter = IncrementalFilter {
            marks: Marks {
                rows: net.pool_mut().acquire(2 * slots, width),
                slots,
            },
            bufs,
        };
        net.stats.support_inits += net.arc_sides();
        filter.sweep(net, true);
        filter.enqueue();
        filter
    }

    /// Run [`FilterStep::arc`] against this filter's bitsets — over every
    /// arc, in storage order, at the build; afterwards over the arcs
    /// incident to a touched slot, each once. Returns the 1-entries
    /// zeroed; the values left unsupported (in any order, duplicates
    /// allowed) are in `bufs.unsupported`.
    fn sweep(&mut self, net: &mut Network<'_>, build: bool) -> usize {
        let parts = net.parts_mut();
        let FilterBuffers {
            unsupported,
            sizes,
            touched,
            words,
            ..
        } = &mut self.bufs;
        let step = FilterStep {
            slots: parts.slots,
            marks: &self.marks,
            sizes,
            build,
        };
        unsupported.clear();
        if build {
            return parts
                .arcs
                .iter_mut()
                .zip(parts.pairs)
                .map(|(m, &(i, j, _))| step.arc(i, j, m, words, unsupported))
                .sum();
        }
        let num = parts.slots.len();
        let mut zeroed = 0;
        for &t in touched.iter() {
            for (other, &(_, removed)) in sizes.iter().enumerate() {
                // An arc between two touched slots is visited from the
                // lower one.
                if other == t || other < t && removed > 0 {
                    continue;
                }
                let (i, j) = (t.min(other), t.max(other));
                let arc = &mut parts.arcs[triangular_index(num, i, j)];
                zeroed += step.arc(i, j, arc, words, unsupported);
            }
        }
        zeroed
    }

    /// Queue the values the last sweep left unsupported as the next
    /// generation: sorted into the canonical (slot, value) order
    /// [`maintain`] removes in, so removal schedules compare bit-equal.
    fn enqueue(&mut self) {
        let bufs = &mut self.bufs;
        bufs.unsupported.sort_unstable();
        bufs.unsupported.dedup();
        for &(slot, idx) in &bufs.unsupported {
            self.marks.rows.set(slot, idx, true);
        }
        std::mem::swap(&mut bufs.queue, &mut bufs.unsupported);
    }

    /// Hand the filter's bitsets back to the network's arc pool and its
    /// lists to the network.
    pub fn release(self, net: &mut Network<'_>) {
        net.pool_mut().release(self.marks.rows);
        net.filter_buffers = self.bufs;
    }

    /// Remove one generation and queue the next. Returns (removed,
    /// reached_fixpoint); an empty generation is the fixpoint, and still
    /// counts as a pass, like the full-scan pass that removes nothing.
    pub fn pass(&mut self, net: &mut Network<'_>) -> (usize, bool) {
        let _phase = obsv::span("maintain");
        net.stats.maintain_passes += 1;
        if self.bufs.queue.is_empty() {
            return (0, true);
        }
        let bufs = &mut self.bufs;
        std::mem::swap(&mut bufs.current, &mut bufs.queue);
        let slots = self.marks.slots;
        for &k in &bufs.touched {
            self.marks.rows.zero_row(slots + k);
            bufs.sizes[k].1 = 0;
        }
        bufs.touched.clear();
        for &(slot, idx) in &bufs.current {
            self.marks.rows.set(slots + slot, idx, true);
            net.clear_alive(slot, idx);
            let size = &mut bufs.sizes[slot];
            size.0 -= 1;
            size.1 += 1;
            if bufs.touched.last() != Some(&slot) {
                bufs.touched.push(slot);
            }
        }
        let zeroed = self.sweep(net, false);
        net.stats.support_checks += zeroed;
        net.stats.entries_zeroed += zeroed;
        self.enqueue();
        (self.bufs.current.len(), false)
    }
}

/// Filter with the [`IncrementalFilter`] — the incremental counterpart
/// of [`filter`], with identical return semantics and removal sequence.
/// It cannot fail; the `Result` keeps callers that `expect` it compiling.
pub fn filter_incremental(
    net: &mut Network<'_>,
    max_passes: usize,
) -> Result<(usize, usize, bool), Infallible> {
    Ok(filter_with(net, &mut Serial, true, max_passes, |_| false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::{apply_all_binary, apply_all_unary, apply_binary};
    use cdg_grammar::grammars::{formal, paper};

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
    fn incremental_generations_are_the_full_scan_passes() {
        // Generation g removes exactly what full-scan pass g removes: after
        // every pass the alive sets and matrices are equal, and each
        // generation charges one support check per entry it zeroes.
        // The n = 47 and n = 48 inputs are long cascades whose later
        // generations touch few slots.
        let paper_g = paper::grammar();
        let anbn = formal::anbn_grammar();
        let brackets = formal::brackets_grammar();
        let mixed: String = (0..24)
            .map(|k| if k % 2 == 0 { '(' } else { '[' })
            .collect();
        let mixed = format!(
            "{mixed}{}",
            mixed
                .chars()
                .rev()
                .map(|c| if c == '(' { ')' } else { ']' })
                .collect::<String>()
        );
        let cases = [
            (&paper_g, paper::example_sentence(&paper_g), None),
            (&anbn, formal::anbn_sentence(&anbn, "aaaaabbbbbb"), None),
            (&anbn, formal::anbn_sentence(&anbn, "aaaaaabbbbb"), None),
            (
                &anbn,
                formal::anbn_sentence(&anbn, &format!("{}{}", "a".repeat(23), "b".repeat(24))),
                Some(27),
            ),
            (
                &brackets,
                formal::brackets_sentence(&brackets, &mixed),
                None,
            ),
        ];
        for (g, s, generations) in cases {
            let mut full = Network::build(g, &s);
            apply_all_unary(&mut full);
            full.init_arcs();
            apply_all_binary(&mut full);
            let mut inc = full.clone();
            let mut f = IncrementalFilter::build(&mut inc);
            assert!(inc.stats.support_inits > 0);
            loop {
                let before = inc.stats;
                let removed_full = maintain(&mut full);
                let (removed_inc, fixpoint) = f.pass(&mut inc);
                assert_eq!(
                    removed_full, removed_inc,
                    "`{s}`: generation sizes diverged"
                );
                assert_eq!(fixpoint, removed_full == 0);
                for (a, b) in full.slots().iter().zip(inc.slots()) {
                    assert_eq!(a.alive, b.alive, "`{s}`: alive sets diverged");
                }
                assert_eq!(
                    full.logical_arcs(),
                    inc.logical_arcs(),
                    "`{s}`: matrices diverged"
                );
                assert_eq!(
                    inc.stats.support_checks - before.support_checks,
                    inc.stats.entries_zeroed - before.entries_zeroed
                );
                if fixpoint {
                    break;
                }
            }
            if let Some(generations) = generations {
                assert_eq!(inc.stats.maintain_passes, generations, "`{s}`: generations");
            }
            assert_eq!(full.stats.removals, inc.stats.removals);
            assert_eq!(full.stats.entries_zeroed, inc.stats.entries_zeroed);
            assert_eq!(full.stats.maintain_passes, inc.stats.maintain_passes);
            assert!(is_locally_consistent(&inc));
        }
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
