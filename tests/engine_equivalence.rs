//! Property tests: the three CDG engines (sequential, P-RAM/rayon,
//! MasPar-simulated) compute identical networks and identical parse sets
//! on arbitrary inputs — DESIGN.md's central invariant.

use cdg_core::api::{Engine, ParseReport, ParseRequest, Sequential};
use cdg_core::parser::{parse, FilterMode, ParseOptions};
use cdg_grammar::grammars::{english, formal};
use cdg_grammar::{Grammar, Sentence};
use cdg_parallel::Pram;
use parsec_maspar::{parse_maspar_checked, Maspar, MasparOptions};
use proptest::prelude::*;

fn options() -> ParseOptions {
    // Bounded filtering keeps all engines on the same pass schedule; 10
    // passes reaches the fixpoint on everything these sizes generate.
    ParseOptions {
        filter: FilterMode::Bounded(10),
        ..Default::default()
    }
}

/// The P-RAM engine's report on `sentence`, with up to 64 parses.
fn pram_report<'g>(grammar: &'g Grammar, sentence: &Sentence) -> ParseReport<'g> {
    let req = ParseRequest::new(grammar)
        .sentence(sentence.clone())
        .options(options())
        .max_parses(64);
    Pram.parse(&req).unwrap()
}

/// Assert the engines agree on `sentence` (MasPar engine only for
/// lexically unambiguous input, matching the paper).
fn assert_all_engines_agree(grammar: &Grammar, sentence: &Sentence) {
    let serial = parse(grammar, sentence, options());
    let pram = pram_report(grammar, sentence);
    assert_eq!(serial.roles_nonempty, pram.roles_nonempty);
    for (a, b) in serial.network.slots().iter().zip(pram.network.slots()) {
        assert_eq!(a.alive, b.alive, "serial vs pram on `{sentence}`");
    }
    assert_eq!(
        serial.parses(64),
        pram.parses,
        "parse sets diverge on `{sentence}`"
    );
    if !sentence.has_lexical_ambiguity() {
        let maspar = parse_maspar_checked(
            grammar,
            sentence,
            &MasparOptions {
                filter_iterations: 10,
                ..Default::default()
            },
        )
        .unwrap();
        let net = maspar.to_network(grammar, sentence);
        for (a, b) in serial.network.slots().iter().zip(net.slots()) {
            assert_eq!(a.alive, b.alive, "serial vs maspar on `{sentence}`");
        }
        assert_eq!(
            serial.parses(64),
            cdg_core::extract::precedence_graphs(&net, 64),
            "maspar parse set diverges on `{sentence}`"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_generated_english(n in 3usize..10, seed in 0u64..1000) {
        let (g, lex) = corpus::standard_setup();
        let s = corpus::english_sentence(&g, &lex, n, seed);
        assert_all_engines_agree(&g, &s);
    }

    #[test]
    fn engines_agree_on_scrambled_english(n in 3usize..9, seed in 0u64..1000) {
        let (g, lex) = corpus::standard_setup();
        let good = corpus::english_sentence(&g, &lex, n, seed);
        let bad = corpus::scrambled(&lex, &good, seed.wrapping_mul(31));
        assert_all_engines_agree(&g, &bad);
    }

    #[test]
    fn engines_agree_on_random_binary_strings(s in "[01]{1,8}") {
        let g = formal::ww_grammar();
        let sentence = formal::ww_sentence(&g, &s);
        assert_all_engines_agree(&g, &sentence);
    }

    #[test]
    fn engines_agree_on_random_ab_strings(s in "[ab]{1,8}") {
        let g = formal::anbn_grammar();
        let sentence = formal::anbn_sentence(&g, &s);
        assert_all_engines_agree(&g, &sentence);
    }

    #[test]
    fn extracted_graphs_satisfy_every_constraint(n in 3usize..9, seed in 0u64..1000) {
        let (g, lex) = corpus::standard_setup();
        let s = corpus::english_sentence(&g, &lex, n, seed);
        let outcome = parse(&g, &s, ParseOptions::default());
        for graph in outcome.parses(64) {
            prop_assert!(graph.satisfies_all_constraints(&g, &s));
        }
    }

    #[test]
    fn filtering_never_changes_the_parse_set(n in 3usize..8, seed in 0u64..500) {
        let (g, lex) = corpus::standard_setup();
        let s = corpus::english_sentence(&g, &lex, n, seed);
        let unfiltered = parse(&g, &s, ParseOptions { filter: FilterMode::None, ..Default::default() });
        let filtered = parse(&g, &s, ParseOptions::default());
        prop_assert_eq!(unfiltered.parses(64), filtered.parses(64));
        // Filtering only shrinks alive sets.
        for (u, f) in unfiltered.network.slots().iter().zip(filtered.network.slots()) {
            prop_assert!(u.alive_count() >= f.alive_count());
        }
    }
}

#[test]
fn ambiguous_sentences_serial_vs_pram() {
    // The MasPar engine skips lexical ambiguity (per the paper); serial
    // and P-RAM must still agree there.
    let g = english::grammar();
    let lex = english::lexicon(&g);
    for text in [
        "the watch runs",
        "the saw sees the watch",
        "they watch the watch",
    ] {
        if let Ok(s) = lex.sentence(text) {
            let serial = parse(&g, &s, options());
            let pram = pram_report(&g, &s);
            assert_eq!(serial.parses(64), pram.parses, "`{text}`");
        }
    }
}

#[test]
fn every_engine_extracts_the_serial_parse_set_on_cut_grammars() {
    // A grammar cut to one constraint (as a `.cdg` file or a relax rung
    // cuts it) leaves many readings, so the `max_parses` cap decides
    // which ones come back. Every engine extracts with the one serial
    // search, so every engine returns the serial engine's prefix.
    let english = english::grammar();
    let lex = english::lexicon(&english);
    let she_sleeps = lex.sentence("she sleeps").unwrap();
    let english = english.retain_constraints(|n| n == "subj-precedes-its-verb");
    let anbn = formal::anbn_grammar().retain_constraints(|n| n == "b-points-left-at-a");
    let aab = formal::anbn_sentence(&anbn, "aab");
    let maspar = Maspar::default();
    for (grammar, sentence) in [(&english, she_sleeps), (&anbn, aab)] {
        for max_parses in 1..=8 {
            let req = ParseRequest::new(grammar)
                .sentence(sentence.clone())
                .max_parses(max_parses);
            let serial = Sequential.parse(&req).unwrap().parses;
            assert!(!serial.is_empty(), "`{sentence}` accepts");
            for threads in [1, 2] {
                let pram = Pram.parse(&req.clone().threads(threads)).unwrap();
                assert_eq!(
                    pram.parses, serial,
                    "pram at {threads} thread(s), `{sentence}`, max_parses {max_parses}"
                );
            }
            let maspar = maspar.parse(&req).unwrap();
            assert_eq!(
                maspar.parses, serial,
                "maspar, `{sentence}`, max_parses {max_parses}"
            );
        }
    }
}

/// Every engine, P-RAM at one and two threads, by name.
fn every_engine() -> Vec<(&'static str, Box<dyn Engine>, Option<usize>)> {
    vec![
        ("serial", Box::new(Sequential), None),
        ("pram/1", Box::new(Pram), Some(1)),
        ("pram/2", Box::new(Pram), Some(2)),
        ("maspar", Box::new(Maspar::default()), None),
    ]
}

/// Acceptance is one search on every engine: a sentence is accepted
/// exactly when the extractor finds a parse, and `max_parses` caps only
/// how many come back — `max_parses(0)` still answers acceptance.
#[test]
fn engines_agree_on_acceptance_and_parses_at_every_parse_cap() {
    let g = english::grammar();
    let lex = english::lexicon(&g);
    for (text, accepts) in [("the dog runs", true), ("dog the runs", false)] {
        let sentence = lex.sentence(text).unwrap();
        for max_parses in 0..=3 {
            let answers: Vec<(&str, bool, usize)> = every_engine()
                .into_iter()
                .map(|(name, engine, threads)| {
                    let req = ParseRequest::new(&g).sentence(sentence.clone());
                    let req = ParseRequest {
                        threads,
                        ..req.max_parses(max_parses)
                    };
                    let report = engine.parse(&req).unwrap();
                    (name, report.accepted, report.parses.len())
                })
                .collect();
            let want_parses = usize::from(accepts).min(max_parses);
            for &(name, accepted, parses) in &answers {
                assert_eq!(
                    (accepted, parses),
                    (accepts, want_parses),
                    "{name} on `{text}` at max_parses {max_parses}: {answers:?}"
                );
            }
        }
    }
}

/// A batch row is the engine's own parse summarized: every engine's
/// `parse_batch` rows equal its `parse(..).summary()` per sentence, on a
/// corpus that mixes accepts, rejects and an ambiguous sentence.
#[test]
fn batch_rows_equal_each_engines_own_parse_summaries() {
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let sentences: Vec<Sentence> = [
        "the dog runs",
        "dog the runs",
        "the dog runs in the park",
        "runs sees",
        "she sleeps",
    ]
    .iter()
    .map(|t| lex.sentence(t).unwrap())
    .collect();
    for (name, engine, threads) in every_engine() {
        let req = ParseRequest {
            threads,
            ..ParseRequest::new(&g).max_parses(8)
        };
        let rows = engine.parse_batch(&sentences, &req).unwrap().outcomes;
        assert_eq!(rows.len(), sentences.len(), "{name}");
        assert_eq!(rows.iter().filter(|r| r.accepted).count(), 3, "{name}");
        for (s, row) in sentences.iter().zip(&rows) {
            let solo = engine.parse(&req.clone().sentence(s.clone())).unwrap();
            assert_eq!(row, &solo.summary(), "{name} on `{s}`");
        }
    }
}

/// A fault plan on a host engine is a request error, from `parse` and
/// from `parse_batch` alike, never a column of degraded rows.
#[test]
fn host_engines_reject_a_fault_plan_with_a_typed_error() {
    let g = english::grammar();
    let s = english::lexicon(&g).sentence("the dog runs").unwrap();
    let req = ParseRequest::new(&g).faults(maspar_sim::FaultPlan::new().with_dead_pe(3));
    for engine in [&Sequential as &dyn Engine, &Pram] {
        let name = engine.name();
        let solo = engine.parse(&req.clone().sentence(s.clone()));
        assert!(
            matches!(&solo, Err(cdg_core::EngineError::GrammarError(m)) if m.contains("fault")),
            "{name}: {solo:?}"
        );
        let batch = engine.parse_batch(std::slice::from_ref(&s), &req);
        assert!(
            matches!(&batch, Err(cdg_core::EngineError::GrammarError(m)) if m.contains("fault")),
            "{name}: {batch:?}"
        );
    }
}
