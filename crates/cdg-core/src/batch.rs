//! Batched multi-sentence parsing.
//!
//! Parsing a corpus one [`crate::parse`] call at a time pays the arc-matrix
//! allocation bill (O(n⁴) bits) and the scratch set-up once per sentence.
//! [`parse_batch`] runs a whole slice of sentences against one grammar on
//! one [`WarmState`] (arc pool, kernel and BMM scratch, network slab), so
//! sentence *i+1* reuses sentence *i*'s buffers, and returns compact owned
//! [`BatchOutcome`] summaries instead of grammar-borrowing networks — which
//! is also what makes the parallel variant (`cdg_parallel::parse_batch`)
//! possible: summaries are `Send`, full networks borrow the grammar and
//! carry per-sentence arc storage. [`parse_batch_warm`] also takes the
//! grammar's compiled artifact, as `Engine::parse_batch` passes it.
//!
//! Results are byte-identical to calling [`crate::parse`] per sentence: the
//! warm state only recycles allocations, never state (see [`crate::pool`]).

use crate::api::WarmState;
use crate::error::EngineError;
use crate::extract::PrecedenceGraph;
use crate::parser::{ParseOptions, ParseOutcome};
use cdg_grammar::{CompiledGrammar, Grammar, Lexicon, Sentence};
use std::sync::Arc;

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
    /// Summarize a full outcome, extracting up to `max_parses` parses.
    pub fn summarize(outcome: &ParseOutcome<'_>, max_parses: usize) -> Self {
        BatchOutcome {
            accepted: outcome.accepted(),
            ambiguous: outcome.ambiguous(),
            roles_nonempty: outcome.roles_nonempty,
            locally_consistent: outcome.locally_consistent,
            filter_passes: outcome.filter_passes,
            degraded: outcome.degraded.is_some(),
            total_alive: outcome.network.total_alive(),
            parses: outcome.parses(max_parses),
        }
    }
}

/// Parse every sentence under one grammar, reusing pooled arc-matrix
/// allocations across the batch. Outcomes are in input order and identical
/// to per-sentence [`crate::parse`] calls.
///
/// ```
/// use cdg_core::{parse_batch, ParseOptions};
/// use cdg_grammar::grammars::english;
///
/// let g = english::grammar();
/// let lex = english::lexicon(&g);
/// let batch = vec![
///     lex.sentence("the dog runs").unwrap(),
///     lex.sentence("dog the runs").unwrap(),
/// ];
/// let outcomes = parse_batch(&g, &batch, ParseOptions::default(), 10);
/// assert!(outcomes[0].accepted && !outcomes[1].accepted);
/// ```
pub fn parse_batch(
    grammar: &Grammar,
    sentences: &[Sentence],
    options: ParseOptions,
    max_parses: usize,
) -> Vec<BatchOutcome> {
    parse_batch_warm(
        grammar,
        sentences,
        options,
        max_parses,
        None,
        &mut WarmState::new(),
    )
}

/// [`parse_batch`] on a caller-held [`WarmState`] — one pool, kernel
/// scratch, BMM scratch and network slab for every sentence, kept between
/// calls — with the grammar's compiled artifact attached (`None` compiles
/// each constraint per parse).
pub fn parse_batch_warm(
    grammar: &Grammar,
    sentences: &[Sentence],
    options: ParseOptions,
    max_parses: usize,
    compiled: Option<Arc<CompiledGrammar>>,
    warm: &mut WarmState,
) -> Vec<BatchOutcome> {
    sentences
        .iter()
        .map(|s| warm.summarize(grammar, s, options, max_parses, compiled.clone()))
        .collect()
}

/// One line of a text batch: where it came from and what became of it.
/// A line that fails to lex carries a typed [`EngineError::Lexicon`]
/// instead of panicking or aborting its siblings — the contract the batch
/// CLI and the parse service both rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct TextLine {
    /// 1-based line number in the input text.
    pub lineno: usize,
    /// The trimmed source line.
    pub text: String,
    /// Parse summary, or the typed error that stopped this line (and only
    /// this line).
    pub result: Result<BatchOutcome, EngineError>,
}

/// Parse every non-blank, non-`#` line of `text` against one grammar,
/// looking words up in `lexicon`. Malformed lines (unknown words, empty
/// after tokenization) become per-line typed errors; well-formed lines
/// parse exactly as [`parse_batch`] would, sharing one [`ArcPool`].
///
/// ```
/// use cdg_core::{parse_batch_text, EngineError, ParseOptions};
/// use cdg_grammar::grammars::english;
///
/// let g = english::grammar();
/// let lex = english::lexicon(&g);
/// let lines = parse_batch_text(&g, &lex, "the dog runs\nthe zyzzyva runs\n",
///                              ParseOptions::default(), 10);
/// assert!(lines[0].result.as_ref().unwrap().accepted);
/// assert!(matches!(lines[1].result, Err(EngineError::Lexicon(_))));
/// ```
pub fn parse_batch_text(
    grammar: &Grammar,
    lexicon: &Lexicon,
    text: &str,
    options: ParseOptions,
    max_parses: usize,
) -> Vec<TextLine> {
    let mut warm = WarmState::new();
    text.lines()
        .enumerate()
        .filter_map(|(i, raw)| {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let result = match lexicon.sentence(line) {
                Ok(sentence) => Ok(warm.summarize(grammar, &sentence, options, max_parses, None)),
                Err(e) => Err(EngineError::Lexicon(e)),
            };
            Some(TextLine {
                lineno: i + 1,
                text: line.to_string(),
                result,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use cdg_grammar::grammars::english;

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
        let batch = parse_batch(&g, &sentences, ParseOptions::default(), 100);
        assert_eq!(batch.len(), sentences.len());
        for (s, b) in sentences.iter().zip(&batch) {
            let solo = parse(&g, s, ParseOptions::default());
            assert_eq!(b, &BatchOutcome::summarize(&solo, 100));
        }
    }

    #[test]
    fn pool_actually_recycles_across_the_batch() {
        let (g, sentences) = corpus(&["the dog runs", "the dog sees the cat", "she sleeps"]);
        let mut warm = WarmState::new();
        let _ = parse_batch_warm(&g, &sentences, ParseOptions::default(), 0, None, &mut warm);
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
        assert!(parse_batch(&g, &[], ParseOptions::default(), 10).is_empty());
    }

    #[test]
    fn text_batch_survives_malformed_lines() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let text = "# corpus\n\nthe dog runs\nthe zyzzyva runs\n...\ndog the runs\n";
        let lines = parse_batch_text(&g, &lex, text, ParseOptions::default(), 10);
        assert_eq!(lines.len(), 4, "comments and blanks skipped");
        assert_eq!(lines[0].lineno, 3);
        assert!(lines[0].result.as_ref().unwrap().accepted);
        match &lines[1].result {
            Err(EngineError::Lexicon(e)) => {
                assert_eq!(e.to_string(), "word `zyzzyva` is not in the lexicon")
            }
            other => panic!("expected typed lexicon error, got {other:?}"),
        }
        // An all-punctuation line lexes to no words: typed, not a panic.
        assert!(matches!(lines[2].result, Err(EngineError::Lexicon(_))));
        assert_eq!(lines[2].lineno, 5);
        // The malformed lines did not poison the later well-formed one.
        assert!(!lines[3].result.as_ref().unwrap().accepted);
    }

    #[test]
    fn text_batch_matches_sentence_batch_on_clean_input() {
        let (g, sentences) = corpus(&["the dog runs", "she sleeps"]);
        let lex = english::lexicon(&g);
        let by_sentence = parse_batch(&g, &sentences, ParseOptions::default(), 10);
        let by_text = parse_batch_text(
            &g,
            &lex,
            "the dog runs\nshe sleeps\n",
            ParseOptions::default(),
            10,
        );
        for (a, b) in by_sentence.iter().zip(&by_text) {
            assert_eq!(a, b.result.as_ref().unwrap());
        }
    }
}
