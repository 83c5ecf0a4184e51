//! Sentence-parallel batch parsing.
//!
//! The paper parallelizes *within* one sentence (O(n⁴) virtual processors
//! per arc sweep); a corpus offers the complementary, embarrassingly
//! parallel axis: sentences are independent, so a batch fans out across
//! cores with one worker per chunk of sentences. Each chunk carries its own
//! [`WarmState`] (via `map_init`) — arc pool, kernel scratch, network
//! slab — so buffers are recycled *within* a chunk and never
//! contended *between* chunks.
//!
//! Determinism: chunk boundaries depend only on the batch length (the
//! shim-rayon contract) and each sentence's parse is independent of its
//! neighbours, so the returned summaries are byte-identical to
//! [`cdg_core::parse_batch`] at any thread count — asserted by the
//! determinism suite.

use cdg_core::{BatchOutcome, ParseOptions, WarmState};
use cdg_grammar::{CompiledGrammar, Grammar, Sentence};
use rayon::prelude::*;
use std::sync::Arc;

/// Parse every sentence under one grammar, in parallel across sentences,
/// with per-worker warm state. Outcomes are in input order and identical
/// to [`cdg_core::parse_batch`].
pub fn parse_batch(
    grammar: &Grammar,
    sentences: &[Sentence],
    options: ParseOptions,
    max_parses: usize,
) -> Vec<BatchOutcome> {
    parse_batch_compiled(grammar, sentences, options, max_parses, None)
}

/// [`parse_batch`] with the grammar's compiled artifact attached (`None`
/// compiles each constraint per parse — the oracle path).
pub fn parse_batch_compiled(
    grammar: &Grammar,
    sentences: &[Sentence],
    options: ParseOptions,
    max_parses: usize,
    compiled: Option<Arc<CompiledGrammar>>,
) -> Vec<BatchOutcome> {
    sentences
        .par_iter()
        .map_init(WarmState::new, move |warm, sentence| {
            // Each worker merges its per-sentence span trees into the
            // global trace buffer on drop (see `obsv::span`).
            warm.summarize(grammar, sentence, options, max_parses, compiled.clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::english;

    #[test]
    fn parallel_batch_matches_sequential_batch() {
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

        let seq = cdg_core::parse_batch(&g, &sentences, ParseOptions::default(), 50);
        let compiled = cdg_core::resolve_compiled(&g);
        for threads in [1usize, 2, 8] {
            rayon::set_num_threads(threads);
            let par = parse_batch(&g, &sentences, ParseOptions::default(), 50);
            assert_eq!(seq, par, "batch diverged at {threads} threads");
            let attached = parse_batch_compiled(
                &g,
                &sentences,
                ParseOptions::default(),
                50,
                Some(compiled.clone()),
            );
            assert_eq!(
                seq, attached,
                "artifact batch diverged at {threads} threads"
            );
        }
        rayon::set_num_threads(0);
    }
}
