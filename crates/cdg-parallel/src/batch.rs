//! Sentence-parallel batch parsing.
//!
//! The paper parallelizes *within* one sentence (O(n⁴) virtual processors
//! per arc sweep); a corpus offers the complementary, embarrassingly
//! parallel axis: sentences are independent, so a batch fans out across
//! cores with one worker per chunk of sentences. Each chunk carries its own
//! [`ArcPool`] (via `map_init`), so arc-matrix buffers are recycled
//! *within* a chunk and never contended *between* chunks.
//!
//! Determinism: chunk boundaries depend only on the batch length (the
//! shim-rayon contract) and each sentence's parse is independent of its
//! neighbours, so the returned summaries are byte-identical to
//! [`cdg_core::parse_batch`] at any thread count — asserted by the
//! determinism suite.

use cdg_core::{parse_with_pool, ArcPool, BatchOutcome, ParseOptions};
use cdg_grammar::{Grammar, Sentence};
use rayon::prelude::*;

/// Parse every sentence under one grammar, in parallel across sentences,
/// with per-worker pooled arc-matrix allocations. Outcomes are in input
/// order and identical to [`cdg_core::parse_batch`].
pub fn parse_batch(
    grammar: &Grammar,
    sentences: &[Sentence],
    options: ParseOptions,
    max_parses: usize,
) -> Vec<BatchOutcome> {
    sentences
        .par_iter()
        .map_init(ArcPool::new, move |pool, sentence| {
            // Per-sentence root span; each worker merges its completed tree
            // into the global trace buffer on drop (see `obsv::span`).
            let _root = obsv::span("parse");
            let outcome = parse_with_pool(grammar, sentence, options, pool);
            let summary = BatchOutcome::summarize(&outcome, max_parses);
            outcome.network.recycle(pool);
            summary
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
        for threads in [1usize, 2, 8] {
            rayon::set_num_threads(threads);
            let par = parse_batch(&g, &sentences, ParseOptions::default(), 50);
            assert_eq!(seq, par, "batch diverged at {threads} threads");
        }
        rayon::set_num_threads(0);
    }
}
