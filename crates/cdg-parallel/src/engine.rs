//! The [`Engine`] implementation for the P-RAM backend.

use crate::pram::{parse_pram_compiled, PramOutcome};
use cdg_core::api::{BatchReport, Engine, ObsvScope, ParseReport, ParseRequest};
use cdg_core::EngineError;
use cdg_grammar::Sentence;
use std::time::Instant;

/// The CRCW-P-RAM engine (§2.1): intra-sentence parallelism for single
/// parses, sentence-parallel fan-out for batches.
///
/// `ParseRequest::threads` resizes the global rayon pool (like the CLI's
/// `--threads`). The P-RAM pipeline runs the serial engine's phase
/// driver, so a `ParseRequest::budget` binds at the same checkpoints and
/// the report comes back degraded exactly when the serial one would.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pram;

impl Engine for Pram {
    fn name(&self) -> &'static str {
        "pram"
    }

    fn parse<'g>(&self, req: &ParseRequest<'g>) -> Result<ParseReport<'g>, EngineError> {
        let sentence = req.require_sentence()?;
        req.reject_faults(self.name())?;
        if let Some(threads) = req.threads {
            rayon::set_num_threads(threads);
        }
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let (outcome, parses) = {
            let _root = obsv::span("parse");
            let outcome =
                parse_pram_compiled(req.grammar, sentence, req.options, req.compiled.clone());
            let parses = outcome.parses(req.max_parses);
            (outcome, parses)
        };
        let PramOutcome { outcome, stats } = outcome;
        obsv::counter_add("pram.steps", stats.steps as u64);
        obsv::gauge_set("pram.max_width", stats.max_width as f64);
        let accepted = outcome.accepted();
        Ok(ParseReport::from_outcome(
            self.name(),
            outcome,
            accepted,
            parses,
            start,
            scope,
        ))
    }

    fn parse_batch(
        &self,
        sentences: &[Sentence],
        req: &ParseRequest<'_>,
    ) -> Result<BatchReport, EngineError> {
        req.reject_faults(self.name())?;
        if let Some(threads) = req.threads {
            rayon::set_num_threads(threads);
        }
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let outcomes = crate::batch::parse_batch_compiled(
            req.grammar,
            sentences,
            req.options,
            req.max_parses,
            req.compiled.clone(),
        );
        obsv::counter_add("batch.sentences", sentences.len() as u64);
        let (trace, metrics) = scope.finish();
        Ok(BatchReport {
            engine: self.name(),
            outcomes,
            wall: start.elapsed(),
            trace,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::api::Sequential;
    use cdg_core::parser::ParseOptions;
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
    fn batch_via_trait_matches_free_function() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences: Vec<_> = ["the dog runs", "dog the runs", "she sleeps"]
            .iter()
            .map(|t| lex.sentence(t).unwrap())
            .collect();
        let free = crate::batch::parse_batch(&g, &sentences, ParseOptions::default(), 10);
        let report = Pram
            .parse_batch(&sentences, &ParseRequest::new(&g).max_parses(10))
            .unwrap();
        assert_eq!(report.outcomes, free);
        assert_eq!(report.accepted(), 2);
    }
}
