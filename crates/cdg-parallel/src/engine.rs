//! The [`Engine`] implementation for the P-RAM backend.

use crate::pram::PramStats;
use cdg_core::api::{
    record_net_stats, BatchReport, Engine, ParseReport, ParseRequest, Sequential, WarmState,
};
use cdg_core::EngineError;
use cdg_grammar::Sentence;
use rayon::prelude::*;

/// The CRCW-P-RAM engine (§2.1): a single parse runs the serial kernels
/// and keeps the P-RAM round ledger ([`PramStats`]); only a batch runs in
/// parallel, one sentence per worker.
///
/// `ParseRequest::threads` sets the width of a batch's sentence fan-out,
/// on a pool of that width; the process-wide width (the CLI's
/// `--threads`) is left as it was. A single parse runs the serial
/// engine's phase driver, so a `ParseRequest::budget` binds at the same
/// checkpoints and the report comes back degraded exactly when the serial
/// one would. Parses come from the one extractor
/// ([`ParseReport::from_outcome`]) on the settled network, so they are
/// the serial engine's too.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pram;

impl Engine for Pram {
    fn name(&self) -> &'static str {
        "pram"
    }

    fn run<'g>(
        &self,
        req: &ParseRequest<'g>,
        sentence: &Sentence,
        warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError> {
        let mut stats = PramStats::default();
        let outcome = warm.run(req, sentence, &mut stats);
        obsv::counter_add("pram.steps", stats.steps as u64);
        obsv::gauge_set("pram.max_width", stats.max_width as f64);
        record_net_stats(&outcome.network.stats);
        Ok(ParseReport::from_outcome(
            self.name(),
            outcome,
            req.max_parses,
        ))
    }

    /// Sentences fan out across the rayon pool, each worker on its own
    /// [`WarmState`]. Each row is the serial engine's: the same network
    /// and report, without the round ledger a batch row does not report.
    /// Chunk boundaries depend only on the batch length and each row is
    /// independent of its neighbours, so the outcomes equal
    /// `Sequential`'s at any thread count.
    fn parse_batch(
        &self,
        sentences: &[Sentence],
        req: &ParseRequest<'_>,
    ) -> Result<BatchReport, EngineError> {
        let fan_out = || {
            BatchReport::collect(self.name(), req, || {
                // Each worker merges its per-sentence span trees into the
                // global trace buffer on drop (see `obsv::span`).
                sentences
                    .par_iter()
                    .map_init(WarmState::new, |warm, sentence| {
                        Sequential.batch_row(req, sentence, warm)
                    })
                    .collect()
            })
        };
        // A request width runs on a pool installed for this call alone.
        match req.threads {
            Some(threads) => rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("the shim's pool builder cannot fail")
                .install(fan_out),
            None => fan_out(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::{BudgetResource, ParseBudget};
    use cdg_grammar::grammars::{english, paper};
    use std::sync::Mutex;

    static OBSV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn report_matches_the_sequential_engine() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the dog runs in the park").unwrap();
        let req = ParseRequest::new(&g).sentence(s).max_parses(50);
        let serial = Sequential.parse(&req).unwrap();
        let pram = Pram.parse(&req).unwrap();
        assert_eq!(pram.engine, "pram");
        assert_eq!(pram.accepted, serial.accepted);
        assert_eq!(pram.ambiguous, serial.ambiguous);
        assert_eq!(pram.parses, serial.parses);
        assert_eq!(pram.network.total_alive(), serial.network.total_alive());
    }

    #[test]
    fn budgets_bind_like_the_sequential_engine() {
        let (g, lex) = corpus::standard_setup();
        let s = corpus::english_sentence(&g, &lex, 10, 10);
        let budget = |budget| ParseRequest::new(&g).sentence(s.clone()).budget(budget);
        let iters = budget(ParseBudget {
            max_filter_iterations: Some(1),
            ..ParseBudget::UNLIMITED
        });
        let (serial, pram) = (
            Sequential.parse(&iters).unwrap(),
            Pram.parse(&iters).unwrap(),
        );
        assert!(matches!(
            serial.degraded,
            Some(EngineError::BudgetExceeded {
                resource: BudgetResource::FilterIterations,
                ..
            })
        ));
        assert_eq!(pram.degraded, serial.degraded);
        assert_eq!(pram.filter_passes, serial.filter_passes);

        let cells = budget(ParseBudget {
            max_arc_cells: Some(10),
            ..ParseBudget::UNLIMITED
        });
        let pram = Pram.parse(&cells).unwrap();
        assert!(matches!(
            pram.degraded,
            Some(EngineError::BudgetExceeded {
                resource: BudgetResource::ArcCells,
                ..
            })
        ));
        assert!(!pram.network.arcs_ready());
        assert!(!pram.accepted);
        assert!(pram.parses.is_empty());
    }

    #[test]
    fn trace_covers_the_paper_phases_in_parallel() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let report = Pram
            .parse(&ParseRequest::new(&g).sentence(s).trace(true).metrics(true))
            .unwrap();
        let names = report.trace.as_ref().unwrap().names();
        for phase in [
            "parse",
            "network_build",
            "unary_propagation",
            "arc_init",
            "binary_propagation",
            "filtering",
            "maintain",
            "extraction",
        ] {
            assert!(names.iter().any(|n| n == phase), "missing span `{phase}`");
        }
        let snap = report.metrics.unwrap();
        assert!(snap.counter("pram.steps").unwrap() > 0);
    }

    #[test]
    fn batch_matches_sequential_batch_at_any_thread_count() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences: Vec<Sentence> = [
            "the dog runs",
            "dog the runs",
            "the dog runs in the park",
            "the watch runs",
            "she sleeps",
            "the big red dog sees a small cat",
            "they often watch dogs near the table",
            "runs sees",
        ]
        .iter()
        .map(|t| lex.sentence(t).unwrap())
        .collect();
        let req = ParseRequest::new(&g).max_parses(50);
        let seq = Sequential.parse_batch(&sentences, &req).unwrap();
        assert_eq!(seq.accepted(), 6);
        let attached = req.clone().compiled(cdg_core::resolve_compiled(&g));
        for threads in [1usize, 2, 8] {
            for req in [&req, &attached] {
                let par = Pram.parse_batch(&sentences, &req.clone().threads(threads));
                assert_eq!(
                    seq.outcomes,
                    par.unwrap().outcomes,
                    "batch diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_request_width_leaves_the_process_width_alone() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let before = rayon::current_num_threads();
        let req = ParseRequest::new(&g)
            .sentence(s.clone())
            .threads(before + 1);
        assert!(Pram.parse(&req).unwrap().accepted);
        assert_eq!(rayon::current_num_threads(), before, "after parse_warm");
        Pram.parse_batch(&[s], &req).unwrap();
        assert_eq!(rayon::current_num_threads(), before, "after parse_batch");
    }
}
