//! Warm-serving parity contract: parsing with a shared
//! [`CompiledGrammar`](cdg_grammar::CompiledGrammar) artifact and a
//! long-lived [`WarmState`] is bit-identical to compile-per-call cold
//! parsing — over the 64 differential seeds, both bundled grammars, every
//! filter strategy, and every engine. The host engines (serial, PRAM)
//! carry one warm state across requests; every engine must treat the
//! attached artifact as inert.

use std::sync::Arc;

use bitmat::BitVec;
use cdg_core::parser::{FilterMode, ParseOptions};
use cdg_core::{
    resolve_compiled, Engine, FilterStrategy, ParseRequest, PrecedenceGraph, Sequential, WarmState,
};
use cdg_grammar::{Grammar, Lexicon, Sentence};
use cdg_parallel::Pram;
use parsec_maspar::Maspar;

/// The differential seed count shared with the determinism suite.
const SEEDS: u64 = 64;

const STRATEGIES: [FilterStrategy; 2] = [FilterStrategy::Auto, FilterStrategy::Naive];

fn setups() -> Vec<(&'static str, Grammar, Lexicon)> {
    let pg = cdg_grammar::grammars::paper::grammar();
    let pl = cdg_grammar::grammars::paper::lexicon(&pg);
    let eg = cdg_grammar::grammars::english::grammar();
    let el = cdg_grammar::grammars::english::lexicon(&eg);
    vec![("paper", pg, pl), ("english", eg, el)]
}

/// Sentence for one differential seed: lengths cycle over 3..=7 so the
/// suite covers several network sizes. Words are drawn deterministically
/// from the grammar's own lexicon (a splitmix-style walk), so the same
/// generator covers both bundled grammars — including sentences the
/// grammar rejects, which exercise the doomed-value paths.
fn seeded_sentence(_grammar: &Grammar, lex: &Lexicon, seed: u64) -> Sentence {
    let n = 3 + (seed % 5) as usize;
    let words: Vec<&str> = lex.entries().map(|(w, _)| w).collect();
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut text = String::new();
    for i in 0..n {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        if i > 0 {
            text.push(' ');
        }
        text.push_str(words[(x % words.len() as u64) as usize]);
    }
    lex.sentence(&text).expect("lexicon words are known")
}

fn options(strategy: FilterStrategy) -> ParseOptions {
    ParseOptions {
        filter: FilterMode::Fixpoint,
        filter_strategy: strategy,
        ..Default::default()
    }
}

/// Byte-level fingerprint of a settled parse: every slot's alive
/// bit-vector plus the extracted parse set and the report's verdict bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    alive: Vec<BitVec>,
    parses: Vec<PrecedenceGraph>,
    accepted: bool,
    ambiguous: bool,
    roles_nonempty: bool,
    locally_consistent: bool,
    filter_passes: usize,
}

fn fingerprint(report: &cdg_core::ParseReport<'_>) -> Fingerprint {
    Fingerprint {
        alive: report
            .network
            .slots()
            .iter()
            .map(|s| s.alive.clone())
            .collect(),
        parses: report.parses.clone(),
        accepted: report.accepted,
        ambiguous: report.ambiguous,
        roles_nonempty: report.roles_nonempty,
        locally_consistent: report.locally_consistent,
        filter_passes: report.filter_passes,
    }
}

/// The tentpole contract: one `WarmState` carried across all 64 requests,
/// with the shared compiled artifact attached, produces fingerprints
/// bit-identical to the compile-per-call cold oracle — for both host
/// engines and every filter strategy on both bundled grammars.
#[test]
fn sequential_warm_matches_cold_oracle() {
    for (name, g, lex) in &setups() {
        let artifact = resolve_compiled(g);
        for strategy in STRATEGIES {
            for engine in [&Sequential as &dyn Engine, &Pram] {
                let engine_name = engine.name();
                let mut warm = WarmState::new();
                for seed in 0..SEEDS {
                    let s = seeded_sentence(g, lex, seed);
                    let cold = Sequential
                        .parse(
                            &ParseRequest::new(g)
                                .sentence(s.clone())
                                .options(options(strategy))
                                .max_parses(8),
                        )
                        .expect("cold parse");
                    let req = ParseRequest::new(g)
                        .sentence(s)
                        .options(options(strategy))
                        .max_parses(8)
                        .compiled(Arc::clone(&artifact));
                    let mut hot = engine.parse_warm(&req, &mut warm).expect("warm parse");
                    assert_eq!(
                        fingerprint(&cold),
                        fingerprint(&hot),
                        "warm/cold divergence: engine={engine_name} grammar={name} \
                         strategy={strategy:?} seed={seed}"
                    );
                    // Recycle only after the fingerprint is taken: the report's
                    // network is consumed by the hand-back.
                    warm.recycle_report(&mut hot);
                }
                assert_eq!(warm.parses(), SEEDS);
                // The warm state actually warmed up: recycled slot storage and
                // pooled arc matrices were reused across requests.
                assert!(
                    warm.slab_reuses() > 0,
                    "no slab reuse: engine={engine_name} grammar={name} strategy={strategy:?}"
                );
                assert!(
                    warm.pool_stats().reuses > 0,
                    "no pool reuse: engine={engine_name} grammar={name} strategy={strategy:?}"
                );
            }
        }
    }
}

/// Attaching the compiled artifact to a cold request (no warm state) is
/// equally bit-identical — the artifact changes where programs come from,
/// never what they compute.
#[test]
fn artifact_only_matches_cold_oracle() {
    for (name, g, lex) in &setups() {
        let artifact = resolve_compiled(g);
        for seed in 0..SEEDS {
            let s = seeded_sentence(g, lex, seed);
            let cold = Sequential
                .parse(
                    &ParseRequest::new(g)
                        .sentence(s.clone())
                        .options(options(FilterStrategy::Auto))
                        .max_parses(8),
                )
                .expect("cold parse");
            let with_artifact = Sequential
                .parse(
                    &ParseRequest::new(g)
                        .sentence(s)
                        .options(options(FilterStrategy::Auto))
                        .max_parses(8)
                        .compiled(Arc::clone(&artifact)),
                )
                .expect("artifact parse");
            assert_eq!(
                fingerprint(&cold),
                fingerprint(&with_artifact),
                "artifact divergence: grammar={name} seed={seed}"
            );
        }
    }
}

/// PRAM consumes the artifact on its thread workers; MasPar ignores it
/// (the simulated machine compiles into its own ledger). Both must be
/// unaffected observationally: `parse_warm` with the artifact must equal
/// the bare cold `parse`.
#[test]
fn pram_and_maspar_treat_artifact_as_inert() {
    // MasPar simulation is the slow engine; a seed subset keeps the suite
    // inside the tier-1 budget while still crossing network sizes.
    const ENGINE_SEEDS: u64 = 8;
    let mut maspar_cases = 0usize;
    for (name, g, lex) in &setups() {
        let artifact = resolve_compiled(g);
        let maspar = Maspar::default();
        for seed in 0..ENGINE_SEEDS {
            let s = seeded_sentence(g, lex, seed);
            for engine in [&Pram as &dyn Engine, &maspar as &dyn Engine] {
                // The MasPar engine only takes lexically unambiguous input
                // (as in the paper); those seeds stay PRAM-only.
                if engine.name() == "maspar" && s.has_lexical_ambiguity() {
                    continue;
                }
                let bare = engine
                    .parse(
                        &ParseRequest::new(g)
                            .sentence(s.clone())
                            .options(options(FilterStrategy::Auto))
                            .max_parses(8),
                    )
                    .expect("bare parse");
                let req = ParseRequest::new(g)
                    .sentence(s.clone())
                    .options(options(FilterStrategy::Auto))
                    .max_parses(8)
                    .compiled(Arc::clone(&artifact));
                let mut warm = WarmState::new();
                let with_artifact = engine.parse_warm(&req, &mut warm).expect("artifact parse");
                assert_eq!(
                    fingerprint(&bare),
                    fingerprint(&with_artifact),
                    "artifact not inert: engine={} grammar={name} seed={seed}",
                    engine.name()
                );
                if engine.name() == "maspar" {
                    maspar_cases += 1;
                }
            }
        }
    }
    // The ambiguity skip must not have silently emptied the MasPar leg.
    assert!(
        maspar_cases > 0,
        "no unambiguous seed reached the MasPar engine"
    );
}
