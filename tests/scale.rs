//! Scale checks: the engines stay correct (and the counters keep their
//! asymptotic shape) on sentences well past the paper's 10-word example.

use cdg_core::api::{Engine, ParseRequest};
use cdg_core::parser::{parse, FilterMode, ParseOptions};
use cdg_parallel::Pram;

#[test]
fn sixteen_word_sentence_parses_and_engines_agree() {
    let (g, lex) = corpus::standard_setup();
    let s = corpus::english_sentence(&g, &lex, 16, 77);
    let options = ParseOptions {
        filter: FilterMode::Bounded(10),
        ..Default::default()
    };
    let serial = parse(&g, &s, options);
    assert!(serial.roles_nonempty, "`{s}` should parse");
    let req = ParseRequest::new(&g).sentence(s.clone()).options(options);
    let pram = Pram.parse(&req).unwrap();
    for (a, b) in serial.network.slots().iter().zip(pram.network.slots()) {
        assert_eq!(a.alive, b.alive);
    }
    // At n = 16 the serial op count sits in the n⁴ regime: compare with
    // n = 8 (should be roughly 2⁴ = 16×, allow a broad band).
    let s8 = corpus::english_sentence(&g, &lex, 8, 77);
    let small = parse(&g, &s8, options);
    let ratio = serial.network.stats.total_ops() as f64 / small.network.stats.total_ops() as f64;
    assert!(
        (6.0..40.0).contains(&ratio),
        "ops(16)/ops(8) = {ratio:.1}, expected ~16"
    );
}

#[test]
fn extraction_scales_with_many_parses() {
    // Plenty of PP attachments: parses multiply, enumeration stays capped.
    let (g, lex) = corpus::standard_setup();
    let s = lex
        .sentence("the dog sees the cat in the park near the table with the telescope")
        .unwrap();
    let outcome = parse(&g, &s, ParseOptions::default());
    assert!(outcome.roles_nonempty);
    let n = cdg_core::extract::count_parses(&outcome.network, 10_000);
    assert!(n >= 10, "stacked PPs should be highly ambiguous, got {n}");
    let seq = cdg_core::extract::precedence_graphs(&outcome.network, 50);
    assert_eq!(seq.len(), 50.min(n));
}

#[test]
fn long_formal_strings() {
    use cdg_grammar::grammars::formal;
    let g = formal::anbn_grammar();
    let s = formal::anbn_sentence(&g, &corpus::formal::anbn(10));
    assert!(parse(&g, &s, ParseOptions::default()).accepted());
    let bad = formal::anbn_sentence(&g, &format!("{}b", corpus::formal::anbn(10)));
    assert!(!parse(&g, &bad, ParseOptions::default()).accepted());

    let g = formal::ww_grammar();
    let s = formal::ww_sentence(&g, &corpus::formal::ww(9, 3));
    assert!(parse(&g, &s, ParseOptions::default()).accepted());
}
