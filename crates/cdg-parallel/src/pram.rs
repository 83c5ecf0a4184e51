//! The CRCW-P-RAM-style engine on rayon: an executor of the `cdg-core`
//! phase driver whose kernel steps run slot- or arc-parallel, and which
//! keeps the P-RAM round ledger.

use cdg_core::consistency::{FilterStep, SweepResult};
use cdg_core::kernel::{
    apply_pairwise_kernel_by, apply_unary_kernel_by, kernel_arc, ArcKernelCounts, KernelScratch,
};
use cdg_core::network::{ArcMatrix, Network};
use cdg_core::parser::{Executor, Step};
use cdg_grammar::kernel::LaneScratch;
use cdg_grammar::Constraint;
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Parallel-step and width accounting for the P-RAM model.
///
/// `steps` counts synchronous parallel rounds (the quantity the paper
/// bounds by O(k)); `max_width` is the largest number of virtual processors
/// any round would occupy (the paper's O(n⁴)). The phase driver keeps
/// the ledger when it runs with this executor:
///
/// ```
/// use cdg_core::api::{ParseRequest, WarmState};
/// use cdg_grammar::grammars::paper;
/// use cdg_parallel::PramStats;
///
/// let grammar = paper::grammar();
/// let sentence = paper::example_sentence(&grammar);
/// let mut stats = PramStats::default();
/// let outcome = WarmState::new().run(&ParseRequest::new(&grammar), &sentence, &mut stats);
/// assert!(outcome.accepted());
/// // A handful of parallel steps, n⁴-scale width.
/// assert!(stats.steps < 60);
/// assert!(stats.max_width > 100);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PramStats {
    /// Synchronous parallel rounds executed.
    pub steps: usize,
    /// Maximum virtual processors used by any single round.
    pub max_width: usize,
}

impl PramStats {
    fn round(&mut self, width: usize) {
        self.steps += 1;
        self.max_width = self.max_width.max(width);
    }
}

/// The P-RAM executor: every kernel step fans out — a unary constraint one
/// worker per slot, a pairwise constraint and the incremental filter's
/// sweep one worker per arc (race-free by construction; a worker that
/// stores an outer arc takes its matrix from the network's pool under a
/// lock) — and each phase is charged as O(1) rounds:
///
/// * role-value generation: one round of O(n²) processors;
/// * each unary constraint: one round over the alive values, plus one
///   zeroing round when it removes any;
/// * arc init, and each binary constraint: one round of O(n⁴);
/// * each full-scan pass: one support round, plus one zeroing round when
///   it removes any; the incremental filter: one round for its build and
///   one per non-empty generation.
///
/// The naive tree-walk oracle and the full scan run serially but are
/// charged the same rounds. Workers fold their results in slot or arc
/// order, so the network and its `NetStats` ledger are the serial
/// engine's at any thread count.
impl Executor for PramStats {
    fn unary(
        &mut self,
        net: &mut Network<'_>,
        c: &Constraint,
        scratch: &mut KernelScratch,
    ) -> usize {
        apply_unary_kernel_by(net, c, scratch, |sweep, out, _| {
            out.par_iter_mut()
                .enumerate()
                .map_init(LaneScratch::new, |lanes, (k, (class, doomed))| {
                    *class = sweep.slot(k, lanes, doomed);
                })
                .for_each(|()| ());
        })
    }

    fn pairwise(
        &mut self,
        net: &mut Network<'_>,
        c: &Constraint,
        scratch: &mut KernelScratch,
    ) -> usize {
        apply_pairwise_kernel_by(net, c, scratch, |sweep, arcs, pool, _| {
            let pool = Mutex::new(pool);
            let per_arc: Vec<ArcKernelCounts> = arcs
                .par_iter_mut()
                .zip(sweep.pairs.par_iter())
                .map_init(KernelScratch::new, |scratch, (arc, &(i, j, _))| {
                    let acquire = &mut |rows, cols| {
                        let mut pool = pool.lock().unwrap_or_else(PoisonError::into_inner);
                        pool.acquire(rows, cols)
                    };
                    kernel_arc(sweep, i, j, arc, scratch, acquire)
                })
                .collect();
            let mut totals = ArcKernelCounts::default();
            for counts in per_arc {
                totals.absorb(counts);
            }
            totals
        })
    }

    fn sweep_arcs(&mut self, step: &FilterStep<'_>, arcs: &mut [ArcMatrix]) -> SweepResult {
        let per_arc: Vec<(usize, Vec<(usize, usize)>)> = arcs
            .par_iter_mut()
            .zip(step.pairs.par_iter())
            .map_init(Vec::new, |words, (arc, &(i, j, _))| {
                let mut unsupported = Vec::new();
                let zeroed = step.arc(i, j, arc, words, &mut unsupported);
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

    fn cost(&mut self, net: &Network<'_>, step: Step, done: Option<usize>) {
        let num = net.num_slots();
        let width = match (step, done) {
            (Step::Build, _) | (Step::Unary, None) => net.total_alive(),
            (Step::ArcInit, _) => net.stats.arc_entries_initialized.max(1),
            (Step::Binary, None) => pairwise_width(net).max(1),
            (Step::UnaryPairwise, None) => 1,
            (Step::FilterBuild, _) => net.arc_sides().max(1),
            (Step::Scan, None) => (net.total_alive() * num.saturating_sub(1)).max(1),
            (Step::Unary | Step::Scan | Step::Generation, Some(removed)) if removed > 0 => {
                removed * num
            }
            _ => return,
        };
        self.round(width);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::api::{ParseRequest, WarmState};
    use cdg_core::parser::{FilterMode, ParseOptions, ParseOutcome};
    use cdg_core::{EvalStrategy, NetStats};
    use cdg_grammar::grammars::{english, formal, paper};
    use cdg_grammar::{Grammar, Sentence};

    fn options() -> ParseOptions {
        ParseOptions::default()
    }

    /// The phase driver under the P-RAM executor, and its round ledger.
    fn run_pram<'g>(
        grammar: &'g Grammar,
        sentence: &Sentence,
        options: ParseOptions,
    ) -> (ParseOutcome<'g>, PramStats) {
        let mut stats = PramStats::default();
        let req = ParseRequest::new(grammar).options(options);
        let outcome = WarmState::new().run(&req, sentence, &mut stats);
        (outcome, stats)
    }

    fn assert_equivalent(grammar: &Grammar, sentence: &Sentence) {
        let serial = cdg_core::parse(grammar, sentence, options());
        let (par, _) = run_pram(grammar, sentence, options());
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
                run_pram(&g, &s, opts).1.steps
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
                run_pram(&g, &s, options()).1.max_width
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

        let (mut par, _) = run_pram(&g, &s, options());
        par.propagate_extra(std::slice::from_ref(&pin));

        assert_eq!(serial.parses(16), par.parses(16));
        for (a, b) in serial.network.slots().iter().zip(par.network.slots()) {
            assert_eq!(a.alive, b.alive);
        }
        assert_eq!(par.parses(16).len(), 1);
    }

    #[test]
    fn incremental_filter_charges_the_serial_ledger() {
        // The three engines run one phase driver and the same per-slot,
        // per-arc steps, so beyond the same network they must charge the
        // same `NetStats` ledger (the observational `bmm_*` aside) under
        // every option set — English n = 8–12, and aⁿbⁿ / brackets
        // n = 18–24 in full and one symbol short.
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
        let option_sets = [
            options(),
            ParseOptions {
                arcs_before_unary: true,
                ..options()
            },
            ParseOptions {
                eval: EvalStrategy::Naive,
                ..options()
            },
        ];
        let ledger = |s: NetStats| NetStats {
            bmm_tiles: 0,
            bmm_words: 0,
            ..s
        };
        for opts in option_sets {
            for (g, s) in &cases {
                let serial = cdg_core::parse(g, s, opts);
                let (par, _) = run_pram(g, s, opts);
                let (mesh, _) = crate::MeshCdg::run(g, s, opts);
                assert_eq!(serial.filter_passes, par.filter_passes, "`{s}` {opts:?}");
                let stats = serial.network.stats;
                assert!(stats.support_checks > 0, "`{s}`: no filter work to compare");
                for (engine, net) in [("pram", &par.network), ("mesh", &mesh)] {
                    for (a, b) in serial.network.slots().iter().zip(net.slots()) {
                        assert_eq!(a.alive, b.alive, "`{s}` {engine}: alive sets diverge");
                    }
                    assert_eq!(
                        ledger(stats),
                        ledger(net.stats),
                        "`{s}` {engine} {opts:?}: ledger diverges"
                    );
                }
            }
        }
    }

    #[test]
    fn accepted_matches_serial_on_rejections() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("dog the runs").unwrap();
        let (par, _) = run_pram(&g, &s, options());
        assert!(!par.accepted());
    }
}
