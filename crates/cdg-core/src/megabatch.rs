//! Cross-sentence mega-batching: flatten a batch into joined SoA buffers.
//!
//! Per-sentence batch parsing leaves most of a wide machine idle on short
//! inputs — the exact waste the paper's ⌈q²n⁴/16384⌉ virtualization model
//! charges for. The fix (papagpu's `joined_alphas`/`stack_base` layout) is
//! to concatenate every sentence's buffers into one joined array with a
//! per-sentence `base`/`len` table, then run each phase once over the whole
//! joined extent instead of once per sentence.
//!
//! [`MegaBatch`] is that offset table. The host engines use it to drive
//! the phase-major sweep in [`parse_batch_mega_with_pool`]; the MasPar
//! engine joins only sentences of one length, so its joined array is a
//! stack of equal PE grids and needs no table.
//!
//! Two invariants make mega-batching safe to gate behind an option:
//!
//! * **Digest identity** — every strategy produces byte-identical
//!   [`BatchOutcome`]s. Sentences are independent, so reordering work
//!   *across* sentences (phase-major instead of sentence-major) cannot
//!   change any per-sentence result; the differential suite
//!   (`tests/megabatch_equivalence.rs`) holds the paths to this.
//! * **Per-sentence accounting** — budgets, degradation, and (on the
//!   MasPar engine) `MachineStats` stay per-sentence: the offset table
//!   partitions the joined buffers, and nothing ever reads across a
//!   sentence boundary.
//!
//! Wall-time budgets are the one thing a joined sweep cannot account
//! per-sentence (elapsed time is shared), so a request carrying
//! `max_wall_time` silently falls back to the per-sentence path.

use crate::batch::{parse_batch_with_pool, BatchOutcome};
use crate::consistency::{filter, is_locally_consistent, BmmFilter, IncrementalFilter};
use crate::error::{BudgetResource, EngineError, ParseBudget};
use crate::network::{FilterStrategy, Network};
use crate::parser::{predicted_arc_cells, FilterMode, ParseOptions, ParseOutcome};
use crate::pool::ArcPool;
use crate::propagate::{apply_all_binary, apply_all_unary};
use cdg_grammar::{Grammar, Sentence};
use std::ops::Range;

/// How [`crate::api::Engine::parse_batch`] schedules a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchStrategy {
    /// One full parse per sentence, in input order — the differential
    /// oracle, and the default (existing behaviour).
    #[default]
    PerSentence,
    /// Flatten the batch into joined buffers ([`MegaBatch`]) and sweep
    /// each phase once across every sentence. Byte-identical outcomes;
    /// falls back to [`BatchStrategy::PerSentence`] for requests the
    /// joined sweep cannot account per-sentence (wall-time budgets,
    /// fault injection, machine traces).
    Mega,
}

impl BatchStrategy {
    /// Parse the CLI/CI spelling (`mega` | `per-sentence`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mega" => Ok(BatchStrategy::Mega),
            "per-sentence" | "per_sentence" | "persentence" => Ok(BatchStrategy::PerSentence),
            other => Err(format!(
                "unknown batch strategy `{other}` (expected `mega` or `per-sentence`)"
            )),
        }
    }

    /// The stable spelling, for bench row names and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            BatchStrategy::PerSentence => "per-sentence",
            BatchStrategy::Mega => "mega",
        }
    }
}

/// Why a [`BatchStrategy::Mega`] request took the per-sentence path after
/// all. The fallback is *correct by construction* (outcomes are identical
/// either way) but it silently costs the joined sweep's speedup, so every
/// occurrence is recorded on the `megabatch.fallback` counter with a
/// reason-labelled sibling series — and the CLI prints a one-line notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MegaFallback {
    /// A fault plan is armed: fault timing is keyed to the machine's
    /// instruction counter, which a joined sweep would share across
    /// sentences.
    Faults,
    /// An instruction trace was requested (per-sentence attribution).
    Trace,
    /// A wall-time budget: elapsed time cannot be attributed per-sentence
    /// inside a joined sweep.
    WallBudget,
    /// The unpacked scalar oracle was requested.
    Unpacked,
}

impl MegaFallback {
    /// Stable reason label (the counter suffix and the CLI notice word).
    pub fn reason(self) -> &'static str {
        match self {
            MegaFallback::Faults => "faults",
            MegaFallback::Trace => "trace",
            MegaFallback::WallBudget => "wall_budget",
            MegaFallback::Unpacked => "unpacked",
        }
    }

    fn counter(self) -> &'static str {
        match self {
            MegaFallback::Faults => "megabatch.fallback.faults",
            MegaFallback::Trace => "megabatch.fallback.trace",
            MegaFallback::WallBudget => "megabatch.fallback.wall_budget",
            MegaFallback::Unpacked => "megabatch.fallback.unpacked",
        }
    }
}

/// Record one mega→per-sentence fallback on the metrics registry.
pub fn note_mega_fallback(reason: MegaFallback) {
    obsv::counter_add("megabatch.fallback", 1);
    obsv::counter_add(reason.counter(), 1);
}

/// The joined-buffer offset table: sentence `s` owns `len(s)` units
/// starting at `base(s)` of a `total()`-unit joined buffer; the host
/// engines join role-value slots (papagpu's `stack_base` generalized).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MegaBatch {
    base: Vec<usize>,
    len: Vec<usize>,
    total: usize,
}

impl MegaBatch {
    /// Build the offset table from per-sentence unit counts (exclusive
    /// prefix sums — `base[s] = Σ lens[..s]`).
    pub fn from_lengths(lens: &[usize]) -> Self {
        let mut base = Vec::with_capacity(lens.len());
        let mut total = 0usize;
        for &l in lens {
            base.push(total);
            total += l;
        }
        MegaBatch {
            base,
            len: lens.to_vec(),
            total,
        }
    }

    /// The host-slot table for a batch: sentence `s` contributes
    /// `n_s · q` role slots.
    pub fn slots(grammar: &Grammar, sentences: &[Sentence]) -> Self {
        let q = grammar.num_roles();
        let lens: Vec<usize> = sentences.iter().map(|s| s.len() * q).collect();
        MegaBatch::from_lengths(&lens)
    }

    /// Number of sentences in the table.
    pub fn count(&self) -> usize {
        self.len.len()
    }

    /// Total units across the joined buffer.
    pub fn total(&self) -> usize {
        self.total
    }

    /// First unit owned by sentence `s`.
    pub fn base(&self, s: usize) -> usize {
        self.base[s]
    }

    /// Unit count of sentence `s`.
    pub fn len(&self, s: usize) -> usize {
        self.len[s]
    }

    /// Is the whole table empty (no sentences, or only empty sentences)?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The joined-buffer extent owned by sentence `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.base[s]..self.base[s] + self.len[s]
    }

    /// Which sentence owns joined unit `unit` (binary search; `unit` must
    /// be in range).
    pub fn sentence_of(&self, unit: usize) -> usize {
        debug_assert!(unit < self.total);
        match self.base.binary_search(&unit) {
            Ok(mut s) => {
                // Zero-length sentences share a base; take the last one
                // that actually owns units.
                while self.len[s] == 0 {
                    s += 1;
                }
                s
            }
            Err(i) => i - 1,
        }
    }
}

/// Per-sentence pipeline state carried between phases of the joined sweep.
struct SentState<'g> {
    net: Network<'g>,
    degraded: Option<EngineError>,
    build_arcs: bool,
    passes: usize,
    fixpoint: bool,
    filtering: bool,
    inc: Option<IncrementalFilter>,
    bmm: Option<BmmFilter>,
}

/// [`crate::parse_batch_with_pool`] scheduled phase-major over the joined
/// batch: every network is built, then every unary constraint sweep runs,
/// then arcs, then binary propagation, then filtering proceeds in rounds
/// (pass *k* for every still-active sentence before pass *k+1* for any).
/// Outcomes are byte-identical to the per-sentence path — sentences are
/// independent, so only locality and amortization change.
///
/// Requests carrying a wall-time budget fall back to the per-sentence
/// path: a joined sweep cannot attribute elapsed time per-sentence.
pub fn parse_batch_mega_with_pool(
    grammar: &Grammar,
    sentences: &[Sentence],
    options: ParseOptions,
    max_parses: usize,
    pool: &mut ArcPool,
) -> Vec<BatchOutcome> {
    if options.budget.max_wall_time.is_some() {
        note_mega_fallback(MegaFallback::WallBudget);
        return parse_batch_with_pool(grammar, sentences, options, max_parses, pool);
    }
    let mega = MegaBatch::slots(grammar, sentences);
    obsv::counter_add("megabatch.sentences", mega.count() as u64);
    obsv::counter_add("megabatch.joined_slots", mega.total() as u64);

    // --- Build every network (joined "network_build" phase).
    let _root = obsv::span("parse");
    let budget = options.budget;
    let mut states: Vec<SentState<'_>> = sentences
        .iter()
        .map(|sentence| {
            let mut net = Network::build(grammar, sentence);
            net.eval = options.eval;
            net.filter_strategy = options.filter_strategy;
            let arc_cells = predicted_arc_cells(&net);
            let (build_arcs, degraded) = match budget.max_arc_cells {
                Some(cap) if arc_cells > cap => (
                    false,
                    Some(ParseBudget::exceeded(
                        BudgetResource::ArcCells,
                        cap,
                        arc_cells,
                    )),
                ),
                _ => (true, None),
            };
            SentState {
                net,
                degraded,
                build_arcs,
                passes: 0,
                fixpoint: false,
                filtering: true,
                inc: None,
                bmm: None,
            }
        })
        .collect();

    // --- Arc init + unary propagation, joined, honouring the
    // per-sentence pipeline order option.
    if options.arcs_before_unary {
        for st in states.iter_mut().filter(|st| st.build_arcs) {
            st.net.init_arcs_with(pool);
        }
        for st in &mut states {
            apply_all_unary(&mut st.net);
        }
    } else {
        for st in &mut states {
            apply_all_unary(&mut st.net);
        }
        for st in &mut states {
            if st.build_arcs && st.degraded.is_none() {
                st.net.init_arcs_with(pool);
            }
        }
    }

    // --- Binary propagation, joined.
    for st in &mut states {
        if st.net.arcs_ready() {
            apply_all_binary(&mut st.net);
        }
    }

    // --- Filtering in joined rounds: one maintenance pass per active
    // sentence per round, so pass k finishes everywhere before pass k+1
    // starts anywhere (the MasPar iteration structure, sentence-parallel).
    let mode_max = match options.filter {
        FilterMode::None => 0,
        FilterMode::Bounded(max) => max,
        FilterMode::Fixpoint => usize::MAX,
    };
    loop {
        let mut any = false;
        for st in &mut states {
            if !st.filtering || !st.net.arcs_ready() || st.passes >= mode_max {
                st.filtering = false;
                continue;
            }
            if st.degraded.is_some() {
                st.filtering = false;
                continue;
            }
            if let Some(cap) = budget.max_filter_iterations {
                if st.passes >= cap {
                    st.degraded = Some(ParseBudget::exceeded(
                        BudgetResource::FilterIterations,
                        cap,
                        st.passes + 1,
                    ));
                    st.filtering = false;
                    continue;
                }
            }
            let step = match options.filter_strategy.resolve(options.eval) {
                FilterStrategy::Incremental => {
                    let net = &mut st.net;
                    let inc = st.inc.get_or_insert_with(|| IncrementalFilter::build(net));
                    inc.pass(net).map(|(_, fx)| (1, fx))
                }
                FilterStrategy::Bmm => {
                    let net = &mut st.net;
                    let f = st.bmm.get_or_insert_with(|| BmmFilter::build(net));
                    f.pass(net).map(|(_, fx)| (1, fx))
                }
                _ => {
                    let (_, p, fx) = filter(&mut st.net, 1);
                    Ok((p, fx))
                }
            };
            let (p, fx) = match step {
                Ok(v) => v,
                Err(e) => {
                    st.degraded = Some(e);
                    st.filtering = false;
                    continue;
                }
            };
            st.passes += p;
            if fx || p == 0 {
                st.fixpoint = fx;
                st.filtering = false;
            } else {
                any = true;
            }
        }
        if !any {
            break;
        }
    }

    // --- Readback: per-sentence summaries, recycling arc storage.
    states
        .into_iter()
        .map(|st| {
            let locally_consistent = if st.fixpoint {
                true
            } else if st.net.arcs_ready() {
                is_locally_consistent(&st.net)
            } else {
                false
            };
            let outcome = ParseOutcome {
                roles_nonempty: st.net.all_roles_nonempty(),
                locally_consistent,
                filter_passes: st.passes,
                degraded: st.degraded,
                network: st.net,
            };
            let summary = BatchOutcome::summarize(&outcome, max_parses);
            outcome.network.recycle(pool);
            summary
        })
        .collect()
}

/// [`parse_batch_mega_with_pool`] with a fresh pool.
pub fn parse_batch_mega(
    grammar: &Grammar,
    sentences: &[Sentence],
    options: ParseOptions,
    max_parses: usize,
) -> Vec<BatchOutcome> {
    parse_batch_mega_with_pool(grammar, sentences, options, max_parses, &mut ArcPool::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::parse_batch;
    use cdg_grammar::grammars::english;

    fn corpus(texts: &[&str]) -> (Grammar, Vec<Sentence>) {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences = texts.iter().map(|t| lex.sentence(t).unwrap()).collect();
        (g, sentences)
    }

    #[test]
    fn offset_table_partitions_the_joined_buffer() {
        let mb = MegaBatch::from_lengths(&[4, 0, 2, 7]);
        assert_eq!(mb.count(), 4);
        assert_eq!(mb.total(), 13);
        assert_eq!(mb.range(0), 0..4);
        assert_eq!(mb.range(1), 4..4);
        assert_eq!(mb.range(2), 4..6);
        assert_eq!(mb.range(3), 6..13);
        for unit in 0..mb.total() {
            let s = mb.sentence_of(unit);
            assert!(mb.range(s).contains(&unit), "unit {unit} → sentence {s}");
        }
    }

    #[test]
    fn mega_sweep_matches_per_sentence_oracle() {
        let (g, sentences) = corpus(&[
            "the dog runs",
            "dog the runs",
            "the dog runs in the park",
            "the watch runs",
            "she sleeps",
            "the big red dog sees a small cat",
        ]);
        let oracle = parse_batch(&g, &sentences, ParseOptions::default(), 50);
        let mega = parse_batch_mega(&g, &sentences, ParseOptions::default(), 50);
        assert_eq!(oracle, mega);
    }

    #[test]
    fn mega_sweep_matches_under_bounded_filtering_and_budgets() {
        let (g, sentences) = corpus(&["the dog runs in the park", "she sleeps", "dog the runs"]);
        for options in [
            ParseOptions {
                filter: FilterMode::Bounded(1),
                ..Default::default()
            },
            ParseOptions {
                filter: FilterMode::None,
                ..Default::default()
            },
            ParseOptions {
                arcs_before_unary: true,
                ..Default::default()
            },
            ParseOptions {
                budget: ParseBudget {
                    max_filter_iterations: Some(1),
                    ..Default::default()
                },
                ..Default::default()
            },
            ParseOptions {
                budget: ParseBudget {
                    max_arc_cells: Some(10),
                    ..Default::default()
                },
                ..Default::default()
            },
        ] {
            let oracle = parse_batch(&g, &sentences, options, 20);
            let mega = parse_batch_mega(&g, &sentences, options, 20);
            assert_eq!(oracle, mega, "diverged under {options:?}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let g = english::grammar();
        assert!(parse_batch_mega(&g, &[], ParseOptions::default(), 10).is_empty());
        assert!(MegaBatch::slots(&g, &[]).is_empty());
    }

    #[test]
    fn strategy_spellings_round_trip() {
        assert_eq!(BatchStrategy::parse("mega"), Ok(BatchStrategy::Mega));
        assert_eq!(
            BatchStrategy::parse("per-sentence"),
            Ok(BatchStrategy::PerSentence)
        );
        assert!(BatchStrategy::parse("bogus").is_err());
        assert_eq!(BatchStrategy::Mega.as_str(), "mega");
        assert_eq!(BatchStrategy::default(), BatchStrategy::PerSentence);
    }
}
