//! The batch row type.
//!
//! Parsing a corpus one cold parse at a time pays the arc-matrix
//! allocation bill (O(n⁴) bits) and the scratch set-up once per sentence.
//! `Engine::parse_batch` runs a whole slice of sentences against one
//! grammar on one [`crate::WarmState`] per worker (arc pool, kernel
//! scratch, network slab), so sentence *i+1* reuses sentence *i*'s
//! buffers, and returns compact owned [`BatchOutcome`] summaries instead
//! of grammar-borrowing networks — which is also what lets the P-RAM
//! engine fan a batch out across threads: summaries are `Send`, full
//! networks borrow the grammar and carry per-sentence arc storage.
//!
//! A row is the engine's own parse summarized (`Engine::batch_row`), so it
//! equals `Engine::parse(..).summary()` for the same sentence: the warm
//! state only recycles allocations, never state (see [`crate::pool`]).

use crate::extract::PrecedenceGraph;

/// Owned per-sentence summary of a batch parse — everything the callers of
/// the batch API (CLI, bench harness, tests) consume, detached from the
/// network so it can cross threads and outlive the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Constructive acceptance: at least one complete parse exists.
    pub accepted: bool,
    /// More than one role value survived somewhere.
    pub ambiguous: bool,
    /// The paper's necessary acceptance condition.
    pub roles_nonempty: bool,
    /// Whether filtering reached the fixpoint.
    pub locally_consistent: bool,
    /// Filtering passes run.
    pub filter_passes: usize,
    /// Whether a [`crate::ParseBudget`] limit cut the parse short.
    pub degraded: bool,
    /// Total alive role values in the settled network — a cheap digest of
    /// the full network state, used by the determinism suite.
    pub total_alive: usize,
    /// Up to `max_parses` precedence graphs, in extraction order.
    pub parses: Vec<PrecedenceGraph>,
}

impl BatchOutcome {
    /// The row of a sentence the engine could not parse at all: not
    /// accepted, degraded, nothing alive.
    pub(crate) fn failed() -> Self {
        BatchOutcome {
            accepted: false,
            ambiguous: false,
            roles_nonempty: false,
            locally_consistent: false,
            filter_passes: 0,
            degraded: true,
            total_alive: 0,
            parses: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Engine, ParseRequest, Sequential, WarmState};
    use crate::parser::{parse, ParseOptions};
    use cdg_grammar::grammars::english;
    use cdg_grammar::{Grammar, Sentence};

    fn corpus(texts: &[&str]) -> (Grammar, Vec<Sentence>) {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences = texts.iter().map(|t| lex.sentence(t).unwrap()).collect();
        (g, sentences)
    }

    #[test]
    fn batch_matches_per_sentence_parses() {
        let (g, sentences) = corpus(&[
            "the dog runs",
            "dog the runs",
            "the dog runs in the park",
            "the watch runs",
            "she sleeps",
        ]);
        let req = ParseRequest::new(&g).max_parses(100);
        let batch = Sequential.parse_batch(&sentences, &req).unwrap().outcomes;
        assert_eq!(batch.len(), sentences.len());
        for (s, b) in sentences.iter().zip(&batch) {
            let solo = parse(&g, s, ParseOptions::default());
            let oracle = BatchOutcome {
                accepted: solo.accepted(),
                ambiguous: solo.ambiguous(),
                roles_nonempty: solo.roles_nonempty,
                locally_consistent: solo.locally_consistent,
                filter_passes: solo.filter_passes,
                degraded: solo.degraded.is_some(),
                total_alive: solo.network.total_alive(),
                parses: solo.parses(100),
            };
            assert_eq!(b, &oracle, "`{s}`");
        }
    }

    #[test]
    fn pool_actually_recycles_across_the_batch() {
        let (g, sentences) = corpus(&["the dog runs", "the dog sees the cat", "she sleeps"]);
        let mut warm = WarmState::new();
        let req = ParseRequest::new(&g).max_parses(0);
        for s in &sentences {
            Sequential.batch_row(&req, s, &mut warm);
        }
        // Sentence 1 fills the pool and the slab; sentences 2..n draw
        // from them.
        let pool = warm.pool_stats();
        assert!(pool.reuses > 0, "no buffers were reused");
        assert_eq!(pool.acquires, pool.releases);
        assert_eq!(warm.slab_reuses(), sentences.len() as u64 - 1);
    }

    #[test]
    fn empty_batch() {
        let (g, _) = corpus(&[]);
        let report = Sequential.parse_batch(&[], &ParseRequest::new(&g)).unwrap();
        assert!(report.outcomes.is_empty());
    }
}
