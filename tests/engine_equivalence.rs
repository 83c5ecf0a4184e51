//! Property tests: the three CDG engines (sequential, P-RAM/rayon,
//! MasPar-simulated) compute identical networks and identical parse sets
//! on arbitrary inputs — DESIGN.md's central invariant.

use cdg_core::parser::{parse, FilterMode, ParseOptions};
use cdg_grammar::grammars::{english, formal};
use cdg_grammar::{Grammar, Sentence};
use cdg_parallel::parse_pram;
use parsec_maspar::{parse_maspar_checked, MasparOptions};
use proptest::prelude::*;

fn options() -> ParseOptions {
    // Bounded filtering keeps all engines on the same pass schedule; 10
    // passes reaches the fixpoint on everything these sizes generate.
    ParseOptions {
        filter: FilterMode::Bounded(10),
        ..Default::default()
    }
}

/// Assert the engines agree on `sentence` (MasPar engine only for
/// lexically unambiguous input, matching the paper).
fn assert_all_engines_agree(grammar: &Grammar, sentence: &Sentence) {
    let serial = parse(grammar, sentence, options());
    let pram = parse_pram(grammar, sentence, options());
    assert_eq!(serial.roles_nonempty, pram.roles_nonempty);
    for (a, b) in serial.network.slots().iter().zip(pram.network.slots()) {
        assert_eq!(a.alive, b.alive, "serial vs pram on `{sentence}`");
    }
    assert_eq!(
        serial.parses(64),
        pram.parses(64),
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
            let pram = parse_pram(&g, &s, options());
            assert_eq!(serial.parses(64), pram.parses(64), "`{text}`");
        }
    }
}
