//! The q = 3 extended English grammar across all engines: auxiliaries,
//! finite/base agreement, lexical ambiguity, and engine equivalence with
//! three roles per word.

use cdg_core::parser::{parse, FilterMode, ParseOptions};
use cdg_grammar::grammars::english_aux;
use cdg_parallel::parse_pram;
use parsec_maspar::{parse_maspar_checked, MasparOptions};

fn setup() -> (cdg_grammar::Grammar, cdg_grammar::Lexicon) {
    let g = english_aux::grammar();
    let lex = english_aux::lexicon(&g);
    (g, lex)
}

#[test]
fn auxiliary_acceptance() {
    let (g, lex) = setup();
    for text in [
        "the dog can run",
        "she will sleep",
        "dogs must run quickly",
        "the dog can see the cat",
        "john may watch the dog in the park",
        "the dog runs",   // plain finite still works
        "children sleep", // ambiguous finite reading resolves
        "the old dog can run near the park",
    ] {
        let s = lex.sentence(text).unwrap();
        let outcome = parse(&g, &s, ParseOptions::default());
        assert!(outcome.accepted(), "`{text}` should parse");
        for graph in outcome.parses(16) {
            assert!(graph.satisfies_all_constraints(&g, &s), "`{text}`");
        }
    }
}

#[test]
fn agreement_rejections() {
    let (g, lex) = setup();
    for text in [
        "the dog can",        // auxiliary without a verb complement
        "the dog exist",      // base verb without an auxiliary
        "the dog can exists", // finite verb under an auxiliary
        "can the dog run",    // no subject to the auxiliary's left
        "the dog can can run",
        "the dog must will run",
    ] {
        let s = lex.sentence(text).unwrap();
        let outcome = parse(&g, &s, ParseOptions::default());
        assert!(!outcome.accepted(), "`{text}` should be rejected");
    }
}

#[test]
fn auxiliary_parse_structure() {
    let (g, lex) = setup();
    let s = lex.sentence("the dog can exist").unwrap();
    let outcome = parse(&g, &s, ParseOptions::default());
    let graphs = outcome.parses(10);
    assert_eq!(graphs.len(), 1);
    let graph = &graphs[0];
    let governor = g.role_id("governor").unwrap();
    let needs = g.role_id("needs").unwrap();
    let needs2 = g.role_id("needs2").unwrap();
    // dog SUBJ→3 (the auxiliary), can ROOT-nil + S→2 + VC→4, exist VCOMP→3.
    let rv = |w: u16, r| graph.value(&g, w, r);
    assert_eq!(g.label_name(rv(1, governor).label), "SUBJ");
    assert_eq!(rv(1, governor).modifiee, cdg_grammar::Modifiee::Word(3));
    assert_eq!(g.label_name(rv(2, governor).label), "ROOT");
    assert_eq!(g.label_name(rv(2, needs).label), "S");
    assert_eq!(rv(2, needs).modifiee, cdg_grammar::Modifiee::Word(2));
    assert_eq!(g.label_name(rv(2, needs2).label), "VC");
    assert_eq!(rv(2, needs2).modifiee, cdg_grammar::Modifiee::Word(4));
    assert_eq!(g.label_name(rv(3, governor).label), "VCOMP");
    assert_eq!(rv(3, governor).modifiee, cdg_grammar::Modifiee::Word(3));
}

#[test]
fn base_finite_ambiguity_resolved_by_context() {
    let (g, lex) = setup();
    // "run" is verb|verbbase: finite in "dogs run", base in "dogs can run".
    let s = lex.sentence("dogs run").unwrap();
    let outcome = parse(&g, &s, ParseOptions::default());
    assert!(outcome.accepted());
    let verb = g.cat_id("verb").unwrap();
    assert_eq!(outcome.parses(4)[0].assignment[3].cat, verb);

    let s = lex.sentence("dogs can run").unwrap();
    let outcome = parse(&g, &s, ParseOptions::default());
    assert!(outcome.accepted());
    let base = g.cat_id("verbbase").unwrap();
    assert_eq!(outcome.parses(4)[0].assignment[2 * 3].cat, base);
}

#[test]
fn engines_agree_at_q3() {
    let (g, lex) = setup();
    let options = ParseOptions {
        filter: FilterMode::Bounded(10),
        ..Default::default()
    };
    for text in [
        "the dog can run",
        "dogs must run quickly",
        "the dog can",
        "the dog can see the cat near the park",
    ] {
        let s = lex.sentence(text).unwrap();
        let serial = parse(&g, &s, options);
        let pram = parse_pram(&g, &s, options);
        for (a, b) in serial.network.slots().iter().zip(pram.network.slots()) {
            assert_eq!(a.alive, b.alive, "`{text}`");
        }
        assert_eq!(serial.parses(32), pram.parses(32), "`{text}`");
    }
}

#[test]
fn maspar_engine_handles_q3() {
    // Unambiguous sentence (the MasPar engine's requirement): virtual PEs
    // = q²·n⁴ = 9·n⁴ with the three-role layout.
    let (g, lex) = setup();
    let s = lex.sentence("the dog can exist").unwrap();
    assert!(!s.has_lexical_ambiguity());
    let serial = parse(&g, &s, ParseOptions::default());
    let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
    assert_eq!(out.layout.virt_pes(), 9 * 4usize.pow(4));
    let net = out.to_network(&g, &s);
    for (a, b) in serial.network.slots().iter().zip(net.slots()) {
        assert_eq!(a.alive, b.alive);
    }
    assert!(out.roles_nonempty());
    // Rejection on the machine, too.
    let s = lex.sentence("the dog exists quickly near").unwrap();
    let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
    assert!(!out.roles_nonempty());
}

#[test]
fn merged_mod_label_serves_both_adjectives_and_adverbs() {
    let (g, lex) = setup();
    let s = lex.sentence("the fast dog can run quickly").unwrap();
    let outcome = parse(&g, &s, ParseOptions::default());
    assert!(outcome.accepted());
    let graph = &outcome.parses(8)[0];
    let governor = g.role_id("governor").unwrap();
    // fast: MOD → dog(3); quickly: MOD → run(5) (or can(4)).
    let fast = graph.value(&g, 1, governor);
    assert_eq!(g.label_name(fast.label), "MOD");
    assert_eq!(fast.modifiee, cdg_grammar::Modifiee::Word(3));
    let quickly = graph.value(&g, 5, governor);
    assert_eq!(g.label_name(quickly.label), "MOD");
}
