//! Acceptance/rejection behaviour of the English grammar on a broad
//! sentence suite, plus CFG cross-validation: every sentence the corpus
//! generator emits is accepted by both the CDG English grammar and the
//! toy English CFG baseline (they were built to cover the same
//! constructions).

use cdg_core::api::{Engine, ParseRequest};
use cdg_core::parser::{parse, ParseOptions};
use cdg_grammar::grammars::english;
use cdg_parallel::Pram;
use proptest::prelude::*;

#[test]
fn acceptance_suite() {
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let accepted = [
        "the dog runs",
        "dogs run",
        "she sleeps",
        "john likes mary",
        "the big red dog sees a small cat",
        "every child runs quickly",
        "the dog sees the cat in the park",
        "the man watches the dog with the telescope",
        "they often watch dogs near the table",
        "a fast parser parses the sentence",
        "it runs",
        "children sleep",
    ];
    for text in accepted {
        let s = lex.sentence(text).unwrap();
        let outcome = parse(&g, &s, ParseOptions::default());
        assert!(outcome.accepted(), "`{text}` should be accepted");
        // Every parse re-checks against the raw constraints.
        for graph in outcome.parses(32) {
            assert!(graph.satisfies_all_constraints(&g, &s), "`{text}`");
        }
    }
}

#[test]
fn rejection_suite() {
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let rejected = [
        "dog the runs",              // noun lacks its determiner
        "the dog the",               // dangling determiner
        "runs sees",                 // two roots, no subject
        "the runs",                  // determiner with no noun
        "quickly",                   // adverb with no verb
        "in the park",               // PP with nothing to attach to
        "the dog the cat",           // no verb
        "sees the dog",              // no subject
        "the dog runs the dog runs", // two finite clauses (single-clause grammar)
    ];
    for text in rejected {
        let s = lex.sentence(text).unwrap();
        let outcome = parse(&g, &s, ParseOptions::default());
        assert!(!outcome.accepted(), "`{text}` should be rejected");
        assert!(outcome.parses(4).is_empty());
    }
}

#[test]
fn pp_attachment_ambiguity_counts() {
    let g = english::grammar();
    let lex = english::lexicon(&g);
    // One PP after an intransitive verb: attaches to verb or subject noun.
    let s = lex.sentence("the dog runs in the park").unwrap();
    assert_eq!(parse(&g, &s, ParseOptions::default()).parses(32).len(), 2);
    // The classic: object + PP gives verb/object/subject attachment plus
    // adjective-free readings; just require more than one parse.
    let s = lex
        .sentence("the man watches the dog with the telescope")
        .unwrap();
    let parses = parse(&g, &s, ParseOptions::default()).parses(32);
    assert!(
        parses.len() >= 2,
        "PP attachment should be ambiguous, got {}",
        parses.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_sentences_parse_under_cdg_and_cfg(n in 3usize..13, seed in 0u64..10_000) {
        let (g, lex) = corpus::standard_setup();
        let s = corpus::english_sentence(&g, &lex, n, seed);
        // CDG side.
        let outcome = parse(&g, &s, ParseOptions::default());
        prop_assert!(outcome.accepted(), "CDG rejects `{}`", s);
        // CFG side (identical string, lowercased tokens).
        let cfg = cfg_baseline::gen::english_cfg();
        let tokens = cfg.tokenize(&s.to_string().to_lowercase()).unwrap();
        prop_assert!(cfg_baseline::cky_recognize(&cfg, &tokens).0, "CKY rejects `{}`", s);
    }

    #[test]
    fn scrambled_sentences_rarely_parse(n in 4usize..9, seed in 0u64..10_000) {
        // Not a hard guarantee (some shuffles are grammatical), but both
        // engines must at least agree on the verdict.
        let (g, lex) = corpus::standard_setup();
        let good = corpus::english_sentence(&g, &lex, n, seed);
        let bad = corpus::scrambled(&lex, &good, seed ^ 0xDEAD);
        let cdg = parse(&g, &bad, ParseOptions::default()).accepted();
        let req = ParseRequest::new(&g).sentence(bad.clone());
        let pram = Pram.parse(&req).unwrap().accepted;
        prop_assert_eq!(cdg, pram);
    }
}
