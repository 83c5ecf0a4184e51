//! The CRCW-P-RAM-style engine on rayon.

use bitmat::{BitMatrix, BitVec};
use cdg_core::consistency::{FilterStep, IncrementalFilter, SweepResult};
use cdg_core::kernel::{
    apply_pairwise_kernel_by, kernel_arc, ones, unary_slot, with_program, ArcKernelCounts,
    KernelScratch,
};
use cdg_core::network::{EvalStrategy, Network, RoleSlot};
use cdg_core::parser::{FilterMode, ParseOptions};
use cdg_core::PrecedenceGraph;
use cdg_grammar::kernel::LaneScratch;
use cdg_grammar::{Arity, Constraint, Grammar, Sentence};
use rayon::prelude::*;

/// Parallel-step and width accounting for the P-RAM model.
///
/// `steps` counts synchronous parallel rounds (the quantity the paper
/// bounds by O(k)); `max_width` is the largest number of virtual processors
/// any round would occupy (the paper's O(n⁴)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PramStats {
    /// Synchronous parallel rounds executed.
    pub steps: usize,
    /// Maximum virtual processors used by any single round.
    pub max_width: usize,
    /// Consistency-maintenance passes run (each costs O(1) rounds).
    pub maintain_passes: usize,
    /// Role values removed in total.
    pub removals: usize,
}

impl PramStats {
    fn round(&mut self, width: usize) {
        self.steps += 1;
        self.max_width = self.max_width.max(width);
    }
}

/// Outcome of a P-RAM parse: the settled network plus step accounting.
#[derive(Debug)]
pub struct PramOutcome<'g> {
    pub network: Network<'g>,
    pub stats: PramStats,
    pub roles_nonempty: bool,
    pub filter_passes: usize,
}

impl<'g> PramOutcome<'g> {
    pub fn accepted(&self) -> bool {
        self.roles_nonempty && cdg_core::extract::has_parse(&self.network)
    }

    /// Enumerate parses with the parallel extractor (identical results to
    /// the sequential one; see `extract_par`).
    pub fn parses(&self, limit: usize) -> Vec<PrecedenceGraph> {
        crate::extract_par::precedence_graphs_par(&self.network, limit)
    }

    /// Propagate additional constraints in parallel — the P-RAM analogue
    /// of `ParseOutcome::propagate_extra` (§1.5 contextual constraint
    /// sets), followed by maintenance to the fixpoint.
    pub fn propagate_extra(&mut self, constraints: &[Constraint]) {
        for c in constraints {
            match c.arity {
                Arity::Unary => {
                    apply_unary_par(&mut self.network, c, &mut self.stats);
                }
                Arity::Binary => {
                    apply_binary_par(&mut self.network, c, &mut self.stats);
                }
            }
        }
        loop {
            self.filter_passes += 1;
            if maintain_par(&mut self.network, &mut self.stats) == 0 {
                break;
            }
        }
        self.roles_nonempty = self.network.all_roles_nonempty();
    }
}

/// Group removal indices by slot for the arc-parallel removal sweep.
fn group_by_slot(num_slots: usize, doomed: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut by_slot = vec![Vec::new(); num_slots];
    for &(slot, idx) in doomed {
        by_slot[slot].push(idx);
    }
    by_slot
}

/// Apply removals: flip alive bits, then zero rows/columns arc-parallel
/// (each worker owns one arc matrix — race-free by construction).
fn remove_values_par(net: &mut Network<'_>, doomed: &[(usize, usize)], stats: &mut PramStats) {
    if doomed.is_empty() {
        return;
    }
    stats.removals += doomed.len();
    let by_slot = group_by_slot(net.num_slots(), doomed);
    if net.arcs_ready() {
        let parts = net.parts_mut();
        parts
            .arcs
            .par_iter_mut()
            .zip(parts.pairs.par_iter())
            .for_each(|(m, &(i, j, _))| {
                for &idx in &by_slot[i] {
                    m.zero_row(idx);
                }
                for &idx in &by_slot[j] {
                    m.zero_col(idx);
                }
            });
    }
    for (slot_id, idxs) in by_slot.iter().enumerate() {
        for &idx in idxs {
            net.clear_alive(slot_id, idx);
        }
    }
    // One parallel round for the zeroing sweep.
    stats.round(doomed.len() * net.num_slots());
}

/// One unary constraint over all role values, in parallel. O(1) P-RAM
/// rounds, width O(n²). Under [`EvalStrategy::Kernel`] each worker runs
/// one slot's class and lane pass ([`unary_slot`]); `Naive` tree-walks
/// every value (the oracle).
pub fn apply_unary_par(net: &mut Network<'_>, c: &Constraint, stats: &mut PramStats) -> usize {
    debug_assert_eq!(c.arity, Arity::Unary);
    let doomed: Vec<(usize, usize)> = match net.eval {
        EvalStrategy::Kernel => with_program(net, c, |net, prog| {
            net.ensure_lane_tables();
            let (sentence, lanes) = (net.sentence(), net.lane_tables());
            let per_slot: Vec<Vec<(usize, usize)>> = net
                .slots()
                .par_iter()
                .enumerate()
                .map_init(
                    || (LaneScratch::new(), Vec::new()),
                    |(scratch, words), (k, slot)| {
                        if !slot.alive.any() {
                            return Vec::new();
                        }
                        unary_slot(prog, sentence, lanes, k, slot, scratch, words);
                        ones(words).map(|idx| (k, idx)).collect()
                    },
                )
                .collect();
            per_slot.concat()
        }),
        EvalStrategy::Naive => {
            let sentence = net.sentence();
            net.slots()
                .par_iter()
                .enumerate()
                .flat_map_iter(|(slot_id, slot)| {
                    slot.alive
                        .iter_ones()
                        .filter(|&idx| !c.check_unary(sentence, slot.binding(idx)))
                        .map(move |idx| (slot_id, idx))
                        .collect::<Vec<_>>()
                })
                .collect()
        }
    };
    stats.round(net.total_alive());
    remove_values_par(net, &doomed, stats);
    doomed.len()
}

/// Sum of alive-pair products over all arcs — the virtual-processor width
/// of one arc-parallel round.
fn pairwise_width(net: &Network<'_>) -> usize {
    let slots = net.slots();
    net.arc_pairs()
        .iter()
        .map(|&(i, j, _)| slots[i].alive_count() * slots[j].alive_count())
        .sum()
}

/// The arc-parallel kernel sweep: the shared prologue resolves the program
/// and builds the signatures, slot classes and lane tables once, then each
/// worker owns one arc and runs the shared lane-pass loop
/// ([`kernel_arc`]). Bit-identical to the naive sweep; see
/// `cdg_core::kernel`.
fn apply_pairwise_kernel_par(net: &mut Network<'_>, c: &Constraint) -> usize {
    apply_pairwise_kernel_by(net, c, &mut KernelScratch::new(), |sweep, arcs, _| {
        let per_arc: Vec<ArcKernelCounts> = arcs
            .par_iter_mut()
            .zip(sweep.pairs.par_iter())
            .map_init(KernelScratch::new, |scratch, (m, &(i, j, _))| {
                kernel_arc(sweep, i, j, m, scratch)
            })
            .collect();
        let mut totals = ArcKernelCounts::default();
        for counts in per_arc {
            totals.absorb(counts);
        }
        totals
    })
}

/// One binary constraint over all arcs, in parallel (arc-owner workers).
/// O(1) P-RAM rounds, width O(n⁴).
pub fn apply_binary_par(net: &mut Network<'_>, c: &Constraint, stats: &mut PramStats) -> usize {
    debug_assert_eq!(c.arity, Arity::Binary);
    let width = pairwise_width(net);
    let zeroed = match net.eval {
        EvalStrategy::Kernel => apply_pairwise_kernel_par(net, c),
        EvalStrategy::Naive => {
            let parts = net.parts_mut();
            let slots = parts.slots;
            let sentence = parts.sentence;
            parts
                .arcs
                .par_iter_mut()
                .zip(parts.pairs.par_iter())
                .map(|(m, &(i, j, _))| {
                    let (si, sj) = (&slots[i], &slots[j]);
                    let mut count = 0;
                    for a in si.alive.iter_ones() {
                        let ba = si.binding(a);
                        for b in sj.alive.iter_ones() {
                            if m.get(a, b) && !c.check_pair(sentence, ba, sj.binding(b)) {
                                m.set(a, b, false);
                                count += 1;
                            }
                        }
                    }
                    count
                })
                .sum()
        }
    };
    stats.round(width.max(1));
    zeroed
}

/// A unary constraint applied pairwise with witness semantics (lexically
/// ambiguous sentences; see `cdg_core::propagate::apply_unary_pairwise`).
pub fn apply_unary_pairwise_par(
    net: &mut Network<'_>,
    c: &Constraint,
    stats: &mut PramStats,
) -> usize {
    debug_assert_eq!(c.arity, Arity::Unary);
    let zeroed = match net.eval {
        EvalStrategy::Kernel => apply_pairwise_kernel_par(net, c),
        EvalStrategy::Naive => {
            let parts = net.parts_mut();
            let slots = parts.slots;
            let sentence = parts.sentence;
            parts
                .arcs
                .par_iter_mut()
                .zip(parts.pairs.par_iter())
                .map(|(m, &(i, j, _))| {
                    let (si, sj) = (&slots[i], &slots[j]);
                    let mut count = 0;
                    for a in si.alive.iter_ones() {
                        let ba = si.binding(a);
                        for b in sj.alive.iter_ones() {
                            if !m.get(a, b) {
                                continue;
                            }
                            let bb = sj.binding(b);
                            if !c.check_unary_with_witness(sentence, ba, bb)
                                || !c.check_unary_with_witness(sentence, bb, ba)
                            {
                                m.set(a, b, false);
                                count += 1;
                            }
                        }
                    }
                    count
                })
                .sum()
        }
    };
    stats.round(1);
    zeroed
}

/// One simultaneous consistency-maintenance pass: the parallel analogue of
/// the paper's constant-time OR/AND support test. O(1) P-RAM rounds, width
/// O(n⁴). Returns values removed.
pub fn maintain_par(net: &mut Network<'_>, stats: &mut PramStats) -> usize {
    let _phase = obsv::span("maintain");
    let num = net.num_slots();
    let support_width: usize = net.total_alive() * num.saturating_sub(1);
    // Read-only support scan over (slot, value) in parallel.
    let doomed: Vec<(usize, usize)> = {
        let netref = &*net;
        // Column support tested against per-arc occupancy vectors (one
        // word-strided sweep per matrix) instead of per-value column scans.
        let occ: Vec<BitVec> = netref
            .arcs_raw()
            .par_iter()
            .map(|m| m.col_occupancy())
            .collect();
        let occ = &occ;
        (0..num)
            .into_par_iter()
            .flat_map_iter(|i| {
                let si: &RoleSlot = netref.slot(i);
                si.alive
                    .iter_ones()
                    .filter(move |&a| {
                        (0..num).any(|j| {
                            if j == i {
                                return false;
                            }
                            let supported = if i < j {
                                let (m, _) = netref.arc(i, j);
                                m.row_any(a)
                            } else {
                                occ[netref.arc_index(j, i)].get(a)
                            };
                            !supported
                        })
                    })
                    .map(move |a| (i, a))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    stats.round(support_width.max(1));
    stats.maintain_passes += 1;
    remove_values_par(net, &doomed, stats);
    doomed.len()
}

/// The incremental filter's arc sweep fanned arc-parallel: each worker owns
/// one arc matrix (race-free by construction) and runs the serial filter's
/// [`FilterStep::arc`]; the results are folded in arc storage order. The
/// filter sorts each generation, so the removal schedule, the network and
/// the `NetStats` ledger are the serial filter's at any thread count.
fn sweep_arcs_par(step: &FilterStep<'_>, arcs: &mut [BitMatrix]) -> SweepResult {
    let per_arc: Vec<(usize, Vec<(usize, usize)>)> = arcs
        .par_iter_mut()
        .zip(step.pairs.par_iter())
        .map_init(Vec::new, |words, (m, &(i, j, _))| {
            let mut unsupported = Vec::new();
            let zeroed = step.arc(i, j, m, words, &mut unsupported);
            (zeroed, unsupported)
        })
        .collect();
    let mut zeroed = 0;
    let mut unsupported = Vec::new();
    for (z, u) in per_arc {
        zeroed += z;
        unsupported.extend(u);
    }
    (zeroed, unsupported)
}

/// Filter to at most `max_passes` generations with the arc-parallel
/// incremental filter. Returns the passes run. Charges one round for the
/// build (every row and column tested at once) and one per non-empty
/// generation (its removals against every other slot).
fn filter_incremental_par(
    net: &mut Network<'_>,
    max_passes: usize,
    stats: &mut PramStats,
) -> usize {
    if max_passes == 0 {
        return 0;
    }
    let mut filter = IncrementalFilter::build_by(net, sweep_arcs_par);
    let inits: usize = net.arcs_raw().iter().map(|m| m.rows() + m.cols()).sum();
    stats.round(inits.max(1));
    let num = net.num_slots();
    let mut passes = 0;
    while passes < max_passes {
        passes += 1;
        stats.maintain_passes += 1;
        let (removed, fixpoint) = filter.pass_by(net, sweep_arcs_par);
        if fixpoint {
            break;
        }
        stats.removals += removed;
        stats.round(removed * num.max(1));
    }
    passes
}

/// The full parallel pipeline, mirroring `cdg_core::parse` phase for phase.
///
/// ```
/// use cdg_parallel::parse_pram;
/// use cdg_core::parser::ParseOptions;
/// use cdg_grammar::grammars::paper;
///
/// let grammar = paper::grammar();
/// let sentence = paper::example_sentence(&grammar);
/// let outcome = parse_pram(&grammar, &sentence, ParseOptions::default());
/// assert!(outcome.accepted());
/// // The P-RAM accounting: a handful of parallel steps, n⁴-scale width.
/// assert!(outcome.stats.steps < 60);
/// assert!(outcome.stats.max_width > 100);
/// ```
pub fn parse_pram<'g>(
    grammar: &'g Grammar,
    sentence: &Sentence,
    options: ParseOptions,
) -> PramOutcome<'g> {
    parse_pram_compiled(grammar, sentence, options, None)
}

/// [`parse_pram`] with the grammar's compiled artifact attached: kernel
/// sweeps look constraint programs up instead of recompiling per call.
/// `None` is the compile-per-call oracle path; results are bit-identical.
pub fn parse_pram_compiled<'g>(
    grammar: &'g Grammar,
    sentence: &Sentence,
    options: ParseOptions,
    compiled: Option<std::sync::Arc<cdg_grammar::CompiledGrammar>>,
) -> PramOutcome<'g> {
    let mut stats = PramStats::default();
    // Role-value generation: one O(1) round of O(n²) processors. The host
    // builds the domains; the round accounting mirrors the model.
    let mut net = Network::build(grammar, sentence);
    net.eval = options.eval;
    net.filter_strategy = options.filter_strategy;
    net.compiled = compiled;
    stats.round(net.total_alive());

    let run_unary = |net: &mut Network<'g>, stats: &mut PramStats| {
        let _phase = obsv::span("unary_propagation");
        for c in grammar.unary_constraints() {
            let _c = obsv::span_with(|| format!("unary:{}", c.name));
            apply_unary_par(net, c, stats);
        }
    };
    if options.arcs_before_unary {
        net.init_arcs();
        stats.round(net.stats.arc_entries_initialized.max(1));
        run_unary(&mut net, &mut stats);
    } else {
        run_unary(&mut net, &mut stats);
        net.init_arcs();
        stats.round(net.stats.arc_entries_initialized.max(1));
    }
    {
        let _phase = obsv::span("binary_propagation");
        for c in grammar.binary_constraints() {
            let _c = obsv::span_with(|| format!("binary:{}", c.name));
            apply_binary_par(&mut net, c, &mut stats);
        }
        if sentence.has_lexical_ambiguity() {
            for c in grammar.unary_constraints() {
                let _c = obsv::span_with(|| format!("unary-pairwise:{}", c.name));
                apply_unary_pairwise_par(&mut net, c, &mut stats);
            }
        }
    }
    let mut passes = 0;
    let _filtering = obsv::span("filtering");
    let mode_max = match options.filter {
        FilterMode::None => 0,
        FilterMode::Bounded(max) => max,
        FilterMode::Fixpoint => usize::MAX,
    };
    // The incremental filter swaps the per-pass support scan for the
    // arc-parallel generation sweep; generations (and hence pass counts,
    // alive sets, and matrices) are identical to `maintain_par`'s removal
    // rounds.
    if options.filter_strategy.incremental(options.eval) {
        passes = filter_incremental_par(&mut net, mode_max, &mut stats);
    } else {
        while passes < mode_max {
            passes += 1;
            if maintain_par(&mut net, &mut stats) == 0 {
                break;
            }
        }
    }
    drop(_filtering);
    PramOutcome {
        roles_nonempty: net.all_roles_nonempty(),
        stats,
        filter_passes: passes,
        network: net,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::{english, formal, paper};

    fn options() -> ParseOptions {
        ParseOptions::default()
    }

    fn assert_equivalent(grammar: &Grammar, sentence: &Sentence) {
        let serial = cdg_core::parse(grammar, sentence, options());
        let par = parse_pram(grammar, sentence, options());
        assert_eq!(serial.roles_nonempty, par.roles_nonempty);
        for (a, b) in serial.network.slots().iter().zip(par.network.slots()) {
            assert_eq!(a.alive, b.alive, "alive sets diverge");
        }
        assert_eq!(serial.parses(100), par.parses(100));
    }

    #[test]
    fn equivalent_on_the_paper_example() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        assert_equivalent(&g, &s);
    }

    #[test]
    fn equivalent_on_english_suite() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        for text in [
            "the dog runs",
            "the dog runs in the park",
            "the big red dog sees a small cat",
            "program the runs",
            "the watch runs",
            "they often watch dogs near the table",
        ] {
            if let Ok(s) = lex.sentence(text) {
                assert_equivalent(&g, &s);
            }
        }
    }

    #[test]
    fn step_count_is_independent_of_sentence_length() {
        // The P-RAM promise: parallel steps are O(k + filtering passes),
        // not O(n). Compare step counts across lengths with filtering
        // bounded to a constant.
        let g = paper::grammar();
        let opts = ParseOptions {
            filter: FilterMode::Bounded(3),
            ..Default::default()
        };
        let steps: Vec<usize> = [3usize, 6, 9]
            .iter()
            .map(|&n| {
                let s = paper::cost_sweep_sentence(&g, n);
                parse_pram(&g, &s, opts).stats.steps
            })
            .collect();
        let spread = steps.iter().max().unwrap() - steps.iter().min().unwrap();
        // Steps may differ by a few removal rounds, never by O(n) factors.
        assert!(
            spread <= 4,
            "parallel steps should be nearly constant in n: {steps:?}"
        );
    }

    #[test]
    fn width_grows_with_sentence_length() {
        let g = paper::grammar();
        let w: Vec<usize> = [3usize, 6]
            .iter()
            .map(|&n| {
                let s = paper::cost_sweep_sentence(&g, n);
                parse_pram(&g, &s, options()).stats.max_width
            })
            .collect();
        assert!(w[1] > w[0] * 4, "width should grow ~n⁴: {w:?}");
    }

    #[test]
    fn parallel_incremental_constraints_match_serial() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the dog runs in the park").unwrap();
        let pin = g
            .compile_extra_constraint(
                "pp-attaches-to-verb",
                "(if (eq (lab x) PP) (eq (cat (word (mod x))) verb))",
            )
            .unwrap();

        let mut serial = cdg_core::parse(&g, &s, options());
        serial.propagate_extra(std::slice::from_ref(&pin));

        let mut par = parse_pram(&g, &s, options());
        par.propagate_extra(std::slice::from_ref(&pin));

        assert_eq!(serial.parses(16), par.parses(16));
        for (a, b) in serial.network.slots().iter().zip(par.network.slots()) {
            assert_eq!(a.alive, b.alive);
        }
        assert_eq!(par.parses(16).len(), 1);
    }

    #[test]
    fn incremental_filter_charges_the_serial_ledger() {
        // The arc-parallel sweep runs the serial filter's per-arc step, so
        // beyond the same network it must charge the same `NetStats`
        // ledger — English n = 8–12, and aⁿbⁿ / brackets n = 18–24 in full
        // and one symbol short.
        let (english, lex) = corpus::standard_setup();
        let anbn = formal::anbn_grammar();
        let brackets = formal::brackets_grammar();
        let mut cases: Vec<(&Grammar, Sentence)> = Vec::new();
        for n in 8..=12 {
            cases.push((
                &english,
                corpus::english_sentence(&english, &lex, n, n as u64),
            ));
        }
        for n in [18, 24] {
            let s = corpus::formal::anbn(n / 2);
            let b = corpus::formal::nested_brackets(n / 2);
            for gap in [None, Some(0), Some(n / 2), Some(n - 1)] {
                let (mut s, mut b) = (s.clone(), b.clone());
                if let Some(gap) = gap {
                    s.remove(gap);
                    b.remove(gap);
                }
                cases.push((&anbn, formal::anbn_sentence(&anbn, &s)));
                cases.push((&brackets, formal::brackets_sentence(&brackets, &b)));
            }
        }
        for (g, s) in cases {
            let serial = cdg_core::parse(g, &s, options());
            let par = parse_pram(g, &s, options());
            assert_eq!(serial.filter_passes, par.filter_passes, "`{s}`");
            for (a, b) in serial.network.slots().iter().zip(par.network.slots()) {
                assert_eq!(a.alive, b.alive, "`{s}`: alive sets diverge");
            }
            let (a, b) = (&serial.network.stats, &par.network.stats);
            assert!(a.support_checks > 0, "`{s}`: no filter work to compare");
            assert_eq!(a.support_checks, b.support_checks, "`{s}`: support_checks");
            assert_eq!(a.support_inits, b.support_inits, "`{s}`: support_inits");
            assert_eq!(a.entries_zeroed, b.entries_zeroed, "`{s}`: entries_zeroed");
            assert_eq!(a.removals, b.removals, "`{s}`: removals");
            assert_eq!(
                a.maintain_passes, b.maintain_passes,
                "`{s}`: maintain_passes"
            );
        }
    }

    #[test]
    fn accepted_matches_serial_on_rejections() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("dog the runs").unwrap();
        let par = parse_pram(&g, &s, options());
        assert!(!par.accepted());
    }
}
