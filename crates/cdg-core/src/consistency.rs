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
//! filter is the default under the kernel evaluator; the P-RAM engine runs
//! its per-arc step ([`FilterStep::arc`]) in parallel.

use crate::kernel::ones;
use crate::network::{Network, RoleSlot, SlotId};
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

/// Whether value `a` of slot `i` has a 1 in every incident arc matrix:
/// in its row of arc (i, j) for j > i, in its column for j < i — one bit
/// of that arc's column occupancy `occ` (computed once per pass by a
/// single word-parallel matrix scan). Stops at the first arc without
/// one; `checks` counts the arcs probed.
fn supported(net: &Network<'_>, occ: &[BitVec], i: SlotId, a: usize, checks: &mut usize) -> bool {
    (0..net.num_slots()).filter(|&j| j != i).all(|j| {
        *checks += 1;
        if i < j {
            net.arc(i, j).0.row_any(a)
        } else {
            occ[net.arc_index(j, i)].get(a)
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
/// [`IncrementalFilter`] (`incremental`) or the full scan; `exec` runs
/// the incremental filter's arc sweep and is charged each step. `stop` is
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
    let (mut total, mut passes) = (0, 0);
    while net.arcs_ready() && passes < max_passes && !stop(passes) {
        let (step, removed, fixpoint) = if incremental {
            let filter = filter.get_or_insert_with(|| {
                let built = IncrementalFilter::build(net, |s, a| exec.sweep_arcs(s, a));
                exec.cost(net, Step::FilterBuild, Some(0));
                built
            });
            exec.cost(net, Step::Generation, None);
            let (removed, fixpoint) = filter.pass(net, |s, a| exec.sweep_arcs(s, a));
            (Step::Generation, removed, fixpoint)
        } else {
            exec.cost(net, Step::Scan, None);
            let removed = maintain(net);
            (Step::Scan, removed, removed == 0)
        };
        exec.cost(net, step, Some(removed));
        total += removed;
        passes += 1;
        if fixpoint {
            return (total, passes, true);
        }
    }
    (total, passes, false)
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

/// Column occupancy of every arc matrix, in storage order.
fn column_occupancies(net: &Network<'_>) -> Vec<BitVec> {
    net.arcs_raw().iter().map(|m| m.col_occupancy()).collect()
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
///   those are tested again;
/// * an empty generation is the full-scan pass that removes nothing — the
///   fixpoint.
///
/// Generation g removes exactly the set full-scan pass g would, so alive
/// sets, matrices, `removals`, `entries_zeroed` and the pass count equal
/// [`filter`]'s. The ledger is the incremental one: `support_inits` is
/// rows + columns per arc at the build, and `support_checks` is the number
/// of 1-entries each generation zeroes, each counted once.
///
/// The filter's only state is two bitsets per slot: the values ever
/// queued (never re-queued) and the generation being removed.
pub struct IncrementalFilter {
    queued: Vec<BitVec>,
    removed: Vec<BitVec>,
    /// The next generation, in ascending (slot, value) order.
    queue: Vec<(SlotId, usize)>,
}

/// What one step's arc work reads: the slots' alive sets and the filter's
/// bitsets, frozen for the step. Every arc reads it and writes only its
/// own matrix, so the arcs can run in any order or in parallel
/// ([`FilterStep::arc`]).
pub struct FilterStep<'a> {
    slots: &'a [RoleSlot],
    queued: &'a [BitVec],
    removed: &'a [BitVec],
    /// Every arc as (slot i, slot j, triangular index), in storage order.
    pub pairs: &'a [(SlotId, SlotId, usize)],
    /// Generation 0: every alive, unqueued value is tested.
    build: bool,
}

impl FilterStep<'_> {
    /// One arc's share of the step, on the arc's matrix `m` between row
    /// slot `i` and column slot `j`: zero the removed rows and columns,
    /// then push into `unsupported` every alive, unqueued value of either
    /// slot left with no 1 in `m`. Returns the 1-entries zeroed. `words`
    /// is scratch.
    ///
    /// Dead rows are all-zero, so only the alive rows are visited. At the
    /// build every alive value is tested; after that only the rows that
    /// lost a 1 and the columns that had a 1 in a removed row are. The
    /// column test ORs the surviving rows and stops as soon as every
    /// candidate is covered.
    pub fn arc(
        &self,
        i: SlotId,
        j: SlotId,
        m: &mut BitMatrix,
        words: &mut Vec<u64>,
        unsupported: &mut Vec<(SlotId, usize)>,
    ) -> usize {
        let (rows, cols) = (&self.removed[i], &self.removed[j]);
        if !self.build && rows.none() && cols.none() {
            return 0;
        }
        let mut zeroed = 0usize;
        // `words`: the candidate columns no surviving row covers yet —
        // every column at the build, later those with a 1 in a removed
        // row — narrowed to the alive, unqueued ones.
        words.clear();
        words.resize(m.cols().div_ceil(64), if self.build { !0 } else { 0 });
        for r in rows.iter_ones() {
            let row = m.row_mut(r);
            for (x, w) in words.iter_mut().zip(row.iter()) {
                *x |= w;
                zeroed += w.count_ones() as usize;
            }
            row.fill(0);
        }
        let open = self.slots[j]
            .alive
            .words()
            .iter()
            .zip(self.queued[j].words());
        for (x, (&a, &q)) in words.iter_mut().zip(open) {
            *x &= a & !q;
        }
        let mut missing = words.iter().any(|&w| w != 0);
        let clear = cols.any();
        let queued = &self.queued[i];
        for a in self.slots[i].alive.iter_ones() {
            if !(self.build || clear || missing) {
                break;
            }
            let row = m.row_mut(a);
            let mut lost = 0usize;
            if clear {
                for (w, &c) in row.iter_mut().zip(cols.words()) {
                    lost += (*w & c).count_ones() as usize;
                    *w &= !c;
                }
                zeroed += lost;
            }
            if (self.build || lost > 0) && !queued.get(a) && row.iter().all(|&w| w == 0) {
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
}

/// What a sweep of every arc returns: the 1-entries zeroed and the values
/// left unsupported (in any order, duplicates allowed).
pub type SweepResult = (usize, Vec<(SlotId, usize)>);

/// The serial sweep: [`FilterStep::arc`] over the arcs in storage order.
pub fn sweep_arcs(step: &FilterStep<'_>, arcs: &mut [BitMatrix]) -> SweepResult {
    let mut words = Vec::new();
    let mut unsupported = Vec::new();
    let zeroed = arcs
        .iter_mut()
        .zip(step.pairs)
        .map(|(m, &(i, j, _))| step.arc(i, j, m, &mut words, &mut unsupported))
        .sum();
    (zeroed, unsupported)
}

impl IncrementalFilter {
    /// Test every alive value once (generation 0), the arc work run by
    /// `sweep`: [`sweep_arcs`] serially, or any sweep that runs every arc
    /// once — the P-RAM engine fans [`FilterStep::arc`] across workers —
    /// which gives the same filter.
    pub fn build(
        net: &mut Network<'_>,
        sweep: impl FnOnce(&FilterStep<'_>, &mut [BitMatrix]) -> SweepResult,
    ) -> Self {
        assert!(net.arcs_ready(), "incremental filtering needs arc matrices");
        let bitsets = || -> Vec<BitVec> {
            net.slots()
                .iter()
                .map(|s| BitVec::zeros(s.domain.len()))
                .collect()
        };
        let mut filter = IncrementalFilter {
            queued: bitsets(),
            removed: bitsets(),
            queue: Vec::new(),
        };
        net.stats.support_inits += net
            .arcs_raw()
            .iter()
            .map(|m| m.rows() + m.cols())
            .sum::<usize>();
        let (_, unsupported) = filter.run_sweep(net, true, sweep);
        filter.enqueue(unsupported);
        filter
    }

    /// Run `sweep` over every arc against this filter's bitsets.
    fn run_sweep(
        &self,
        net: &mut Network<'_>,
        build: bool,
        sweep: impl FnOnce(&FilterStep<'_>, &mut [BitMatrix]) -> SweepResult,
    ) -> SweepResult {
        let parts = net.parts_mut();
        let step = FilterStep {
            slots: parts.slots,
            queued: &self.queued,
            removed: &self.removed,
            pairs: parts.pairs,
            build,
        };
        sweep(&step, parts.arcs)
    }

    /// Queue `unsupported` as the next generation: sorted into the
    /// canonical (slot, value) order [`maintain`] removes in, so removal
    /// schedules compare bit-equal.
    fn enqueue(&mut self, mut unsupported: Vec<(SlotId, usize)>) {
        unsupported.sort_unstable();
        unsupported.dedup();
        for &(slot, idx) in &unsupported {
            self.queued[slot].set(idx, true);
        }
        self.queue = unsupported;
    }

    /// Remove one generation, the arc work run by `sweep` (see
    /// [`IncrementalFilter::build`]), and queue the next. Returns
    /// (removed, reached_fixpoint); an empty generation is the fixpoint,
    /// and still counts as a pass, like the full-scan pass that removes
    /// nothing.
    pub fn pass(
        &mut self,
        net: &mut Network<'_>,
        sweep: impl FnOnce(&FilterStep<'_>, &mut [BitMatrix]) -> SweepResult,
    ) -> (usize, bool) {
        let _phase = obsv::span("maintain");
        net.stats.maintain_passes += 1;
        if self.queue.is_empty() {
            return (0, true);
        }
        let generation = std::mem::take(&mut self.queue);
        for mask in &mut self.removed {
            let len = mask.len();
            mask.reset(len);
        }
        for &(slot, idx) in &generation {
            self.removed[slot].set(idx, true);
            net.clear_alive(slot, idx);
        }
        let (zeroed, unsupported) = self.run_sweep(net, false, sweep);
        net.stats.support_checks += zeroed;
        net.stats.entries_zeroed += zeroed;
        self.enqueue(unsupported);
        (generation.len(), false)
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
        let paper_g = paper::grammar();
        let anbn = formal::anbn_grammar();
        let cases = [
            (&paper_g, paper::example_sentence(&paper_g)),
            (&anbn, formal::anbn_sentence(&anbn, "aaaaabbbbbb")),
            (&anbn, formal::anbn_sentence(&anbn, "aaaaaabbbbb")),
        ];
        for (g, s) in cases {
            let mut full = Network::build(g, &s);
            apply_all_unary(&mut full);
            full.init_arcs();
            apply_all_binary(&mut full);
            let mut inc = full.clone();
            let mut f = IncrementalFilter::build(&mut inc, sweep_arcs);
            assert!(inc.stats.support_inits > 0);
            loop {
                let before = inc.stats;
                let removed_full = maintain(&mut full);
                let (removed_inc, fixpoint) = f.pass(&mut inc, sweep_arcs);
                assert_eq!(
                    removed_full, removed_inc,
                    "`{s}`: generation sizes diverged"
                );
                assert_eq!(fixpoint, removed_full == 0);
                for (a, b) in full.slots().iter().zip(inc.slots()) {
                    assert_eq!(a.alive, b.alive, "`{s}`: alive sets diverged");
                }
                assert_eq!(full.arcs_raw(), inc.arcs_raw(), "`{s}`: matrices diverged");
                assert_eq!(
                    inc.stats.support_checks - before.support_checks,
                    inc.stats.entries_zeroed - before.entries_zeroed
                );
                if fixpoint {
                    break;
                }
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
