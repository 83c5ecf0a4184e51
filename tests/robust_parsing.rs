//! The paper's spoken-language motivation (§1.5): "By using CDG's
//! flexibility ... we should be able to develop a model which tolerates
//! the typical grammatical errors of spoken English." The mechanism is
//! constraint-set modulation: parse errorful input under a *core*
//! constraint set first (`Grammar::retain_constraints`), then layer
//! stricter, contextually-determined sets back on
//! (`propagate_extra`) when they apply.

use cdg_core::api::{resolve_compiled, Engine, ParseRequest, Sequential};
use cdg_core::parser::{parse, ParseOptions};
use cdg_core::RelaxLadder;
use cdg_grammar::grammars::english;
use cdg_parallel::Pram;
use parsec_maspar::Maspar;

#[test]
fn core_set_tolerates_a_missing_determiner() {
    // "dog runs in the park": spoken English drops the determiner; the
    // full grammar rejects it (singular nouns need a DET), but the core
    // set — everything except the determiner-requirement constraints —
    // accepts it with the right structure.
    let full = english::grammar();
    let lex = english::lexicon(&full);
    let s = lex.sentence("dog runs in the park").unwrap();

    let strict = parse(&full, &s, ParseOptions::default());
    assert!(
        !strict.accepted(),
        "the full grammar requires the determiner"
    );

    let core = full.retain_constraints(|name| name != "sing-noun-needs-det-left");
    assert_eq!(core.num_constraints(), full.num_constraints() - 1);
    let relaxed = parse(&core, &s, ParseOptions::default());
    assert!(
        relaxed.accepted(),
        "the core set tolerates the dropped determiner"
    );
    // The structure is still the intended one: dog SUBJ→runs.
    let graph = &relaxed.parses(8)[0];
    let governor = core.role_id("governor").unwrap();
    let dog = graph.value(&core, 0, governor);
    assert_eq!(core.label_name(dog.label), "SUBJ");
    assert_eq!(dog.modifiee, cdg_grammar::Modifiee::Word(2));
}

#[test]
fn core_then_context_recovers_the_strict_grammar() {
    // Grammatical input: relaxing then re-adding the constraint must end
    // in exactly the strict grammar's network.
    let full = english::grammar();
    let lex = english::lexicon(&full);
    let s = lex.sentence("the dog runs in the park").unwrap();

    let strict = parse(&full, &s, ParseOptions::default());

    let core = full.retain_constraints(|name| name != "sing-noun-needs-det-left");
    let mut staged = parse(&core, &s, ParseOptions::default());
    let readded = full
        .compile_extra_constraint(
            "sing-noun-needs-det-left",
            full.unary_constraints()
                .iter()
                .find(|c| c.name == "sing-noun-needs-det-left")
                .unwrap()
                .source
                .as_str(),
        )
        .unwrap();
    staged.propagate_extra(&[readded]);

    assert_eq!(strict.parses(32), staged.parses(32));
    for (a, b) in strict.network.slots().iter().zip(staged.network.slots()) {
        assert_eq!(a.alive, b.alive);
    }
}

#[test]
fn retain_everything_is_identity() {
    let g = english::grammar();
    let same = g.retain_constraints(|_| true);
    assert_eq!(same.num_constraints(), g.num_constraints());
    let none = g.retain_constraints(|_| false);
    assert_eq!(none.num_constraints(), 0);
    // A constraint-free grammar accepts anything the table T permits.
    let lex = english::lexicon(&g);
    let s = lex.sentence("dog the runs").unwrap();
    assert!(parse(&none, &s, ParseOptions::default()).accepted());
}

#[test]
fn degradation_is_graceful_not_binary() {
    // The network retains partial analyses even when the sentence is
    // rejected: most roles still hold candidates (the paper's argument
    // that CDG has no left-to-right failure cliff). Compare role survival
    // for a near-grammatical vs a scrambled sentence.
    let g = english::grammar();
    let lex = english::lexicon(&g);

    let near = lex.sentence("dog runs in the park").unwrap(); // one error
    let outcome = parse(
        &g,
        &near,
        ParseOptions {
            filter: cdg_core::parser::FilterMode::None,
            ..Default::default()
        },
    );
    let near_alive = outcome.network.total_alive();

    let scrambled = lex.sentence("park the in runs dog").unwrap();
    let outcome = parse(
        &g,
        &scrambled,
        ParseOptions {
            filter: cdg_core::parser::FilterMode::None,
            ..Default::default()
        },
    );
    let scrambled_alive = outcome.network.total_alive();

    assert!(
        near_alive > scrambled_alive,
        "one dropped word should preserve more analysis ({near_alive}) than a scramble ({scrambled_alive})"
    );
    assert!(near_alive > 0);
}

#[test]
fn relax_ladder_climbs_on_every_engine() {
    // Each rung runs on the engine it is given, with its own grammar's
    // artifact when the request carries one, and lands where the serial
    // engine does.
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let s = lex.sentence("dog runs in the park").unwrap();
    let req = ParseRequest::new(&g).sentence(s).max_parses(8);
    let ladder = RelaxLadder::english_default();
    let serial = ladder
        .climb(&Sequential, &req, 0)
        .unwrap()
        .expect("relaxation recovers the dropped determiner");
    assert_eq!(serial.rung, 1);
    assert_eq!(serial.dropped, ["sing-noun-needs-det-left"]);
    assert!(!serial.parses.is_empty());
    let attached = req.clone().compiled(resolve_compiled(&g));
    let engines: [&dyn Engine; 2] = [&Pram, &Maspar::default()];
    for engine in engines {
        for req in [&req, &attached] {
            let r = ladder
                .climb(engine, req, 0)
                .unwrap()
                .unwrap_or_else(|| panic!("{} rejects at every rung", engine.name()));
            assert_eq!(r.rung, serial.rung, "{}", engine.name());
            assert_eq!(r.dropped, serial.dropped, "{}", engine.name());
            assert_eq!(r.parses, serial.parses, "{}", engine.name());
        }
    }
}
