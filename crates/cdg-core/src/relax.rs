//! Constraint-relaxation retry ladder.
//!
//! The paper (§1.5) treats the constraint set as *data*: contextually
//! chosen constraint sets can be applied to a network, and errorful
//! sentences — the transcribed speech PARSEC targeted is full of them —
//! should still yield a structure rather than a bare REJECT. This module
//! implements the recovery direction: when the strict grammar rejects a
//! sentence, re-parse under grammars with progressively more constraints
//! *removed* (via [`cdg_grammar::Grammar::retain_constraints`]) until one
//! rung accepts, and report exactly which constraints had to be dropped.
//! Every rung runs on the caller's engine ([`RelaxLadder::climb`]).
//!
//! Relaxation only ever *removes* constraints, so every rung's language is
//! a superset of the previous one; the first accepting rung is therefore
//! the minimal relaxation along the ladder.

use crate::api::{resolve_compiled, Engine, ParseRequest};
use crate::error::EngineError;
use crate::extract::PrecedenceGraph;

/// An ordered sequence of rungs; each rung names the constraints dropped
/// at that level (cumulative: rung r drops the union of rungs 1..=r).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaxLadder {
    rungs: Vec<Vec<String>>,
}

impl RelaxLadder {
    pub fn new(rungs: Vec<Vec<String>>) -> Self {
        RelaxLadder { rungs }
    }

    /// Number of rungs *above* strict parsing.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// All constraint names dropped at rung `r` (1-based; rung 0 = strict).
    pub fn dropped_at(&self, rung: usize) -> Vec<String> {
        let mut out: Vec<String> = self.rungs.iter().take(rung).flatten().cloned().collect();
        out.sort();
        out.dedup();
        out
    }

    /// The default ladder for the shipped English grammar, ordered from
    /// most to least innocuous error class:
    ///
    /// 1. dropped determiners ("dog runs in the park");
    /// 2. dangling determiners/modifiers (disfluent restarts);
    /// 3. scrambled word order.
    pub fn english_default() -> Self {
        RelaxLadder::new(vec![
            vec!["sing-noun-needs-det-left".into()],
            vec![
                "det-needs-blank".into(),
                "adj-needs-blank".into(),
                "adv-needs-blank".into(),
            ],
            vec![
                "subj-precedes-its-verb".into(),
                "obj-follows-its-verb".into(),
                "pobj-follows-its-prep".into(),
            ],
        ])
    }

    /// Parse `req` on `engine` at rung `first`, then at each higher rung,
    /// until one accepts. Rung 0 is the request's own grammar, so a caller
    /// that has already parsed strictly starts at 1. Each rung attaches its
    /// own grammar's compiled artifact when `req` carries one, and none
    /// otherwise. Returns `Ok(None)` when even the most relaxed rung
    /// rejects, and the engine's typed error when a rung cannot be parsed.
    pub fn climb(
        &self,
        engine: &dyn Engine,
        req: &ParseRequest<'_>,
        first: usize,
    ) -> Result<Option<RelaxOutcome>, EngineError> {
        for rung in first..=self.len() {
            let dropped = self.dropped_at(rung);
            let grammar = req
                .grammar
                .retain_constraints(|name| !dropped.iter().any(|d| d == name));
            let rung_req = ParseRequest {
                grammar: &grammar,
                compiled: req.compiled.as_ref().map(|_| resolve_compiled(&grammar)),
                ..req.clone()
            };
            let report = engine.parse(&rung_req)?;
            if report.accepted {
                return Ok(Some(RelaxOutcome {
                    rung,
                    dropped,
                    parses: report.parses,
                    ambiguous: report.ambiguous,
                    filter_passes: report.filter_passes,
                }));
            }
        }
        Ok(None)
    }
}

/// A successful parse found somewhere on the ladder.
#[derive(Debug, Clone)]
pub struct RelaxOutcome {
    /// Rung that accepted: 0 = the strict grammar, `r > 0` = after
    /// dropping [`RelaxOutcome::dropped`].
    pub rung: usize,
    /// Constraint names dropped at the accepting rung (empty for strict).
    pub dropped: Vec<String>,
    /// Parses extracted at the accepting rung, up to the request's
    /// `max_parses`. Role-value ids reference the *original* grammar's
    /// symbol tables (relaxation never renumbers labels or categories), so
    /// rendering against it is valid.
    pub parses: Vec<PrecedenceGraph>,
    /// Whether the accepting network still held multiple readings.
    pub ambiguous: bool,
    /// Filter passes spent at the accepting rung.
    pub filter_passes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Sequential;
    use cdg_grammar::grammars::english;
    use cdg_grammar::Grammar;

    /// Climb the English ladder from rung 0 on the serial engine.
    fn climb(g: &Grammar, text: &str) -> Option<RelaxOutcome> {
        let s = english::lexicon(g).sentence(text).unwrap();
        let req = ParseRequest::new(g).sentence(s).max_parses(8);
        RelaxLadder::english_default()
            .climb(&Sequential, &req, 0)
            .unwrap()
    }

    #[test]
    fn strict_sentences_accept_at_rung_zero() {
        let g = english::grammar();
        let r = climb(&g, "the dog runs").expect("grammatical sentence must parse");
        assert_eq!(r.rung, 0);
        assert!(r.dropped.is_empty());
        assert_eq!(r.parses.len(), 1);
    }

    #[test]
    fn missing_determiner_recovers_at_rung_one() {
        let g = english::grammar();
        let r = climb(&g, "dog runs in the park")
            .expect("relaxation must recover the dropped determiner");
        assert_eq!(r.rung, 1);
        assert_eq!(r.dropped, vec!["sing-noun-needs-det-left".to_string()]);
        assert!(!r.parses.is_empty());
        // The recovered structure still has `dog` as the subject of `runs`.
        let core = g.role_id("governor").unwrap();
        let graph = &r.parses[0];
        let dog = graph.value(&g, 0, core);
        assert_eq!(g.label_name(dog.label), "SUBJ");
    }

    #[test]
    fn word_salad_stays_rejected() {
        assert!(climb(&english::grammar(), "the the the").is_none());
    }

    #[test]
    fn dropped_sets_are_cumulative_and_sorted() {
        let ladder = RelaxLadder::new(vec![vec!["b".into()], vec!["a".into(), "b".into()]]);
        assert_eq!(ladder.dropped_at(0), Vec::<String>::new());
        assert_eq!(ladder.dropped_at(1), vec!["b".to_string()]);
        assert_eq!(ladder.dropped_at(2), vec!["a".to_string(), "b".to_string()]);
    }
}
