//! Warm-serving parity contract: parsing with a shared
//! [`CompiledGrammar`](cdg_grammar::CompiledGrammar) artifact and a
//! long-lived [`WarmState`] is bit-identical to compile-per-call cold
//! parsing — over the 64 differential seeds, both bundled grammars, every
//! filter strategy, and every engine. The host engines (serial, PRAM)
//! carry one warm state across requests; every engine must treat the
//! attached artifact as inert. The MasPar engine keeps one simulated
//! machine per host thread, and no state of one parse may reach the next
//! on it.

use std::sync::Arc;

use bitmat::BitVec;
use cdg_core::parser::{FilterMode, ParseOptions};
use cdg_core::{
    resolve_compiled, Engine, EngineConfig, FilterStrategy, ParseRequest, PrecedenceGraph,
    Sequential, WarmState,
};
use cdg_grammar::{Grammar, Lexicon, Sentence};
use cdg_parallel::Pram;
use maspar_sim::MachineStats;
use parsec_maspar::{parse_maspar_checked, Maspar, MasparOptions};

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

/// What a MasPar parse leaves for its caller: the settled network's
/// fingerprint, the machine's counters and estimate, the per-phase counts
/// and the PEs recovery retired.
#[derive(Debug, Clone, PartialEq)]
struct MasparRun {
    report: Fingerprint,
    report_stats: Option<MachineStats>,
    report_seconds: Option<f64>,
    alive: Vec<u64>,
    stats: MachineStats,
    phases: Vec<(String, MachineStats)>,
    estimated_seconds: f64,
    retired_pes: Vec<usize>,
}

/// One sentence through both MasPar entry points on the calling thread:
/// the engine's `parse_warm` with `warm`, then `parse_maspar_checked`.
fn maspar_run(req: &ParseRequest<'_>, warm: &mut WarmState) -> MasparRun {
    let report = Maspar::default()
        .parse_warm(req, warm)
        .expect("maspar parse");
    let opts = MasparOptions {
        faults: req.faults.clone(),
        ..Default::default()
    };
    let sentence = req.sentence.as_ref().expect("a sentence");
    let out = parse_maspar_checked(req.grammar, sentence, &opts).expect("checked parse");
    MasparRun {
        report: fingerprint(&report),
        report_stats: report.machine_stats,
        report_seconds: report.estimated_seconds,
        alive: out.alive.clone(),
        stats: out.stats,
        phases: out
            .phases
            .iter()
            .map(|p| (p.name.clone(), p.stats))
            .collect(),
        estimated_seconds: out.estimated_seconds,
        retired_pes: out.recovery.retired_pes.clone(),
    }
}

/// The MasPar engine keeps one simulated machine per host thread and
/// reuses its plural buffers, so a parse may leave nothing behind for the
/// next but those buffers. On one thread: n = 10, n = 3, n = 10 under
/// the fault plan `--faults 7` builds, then n = 10 clean. Every parse must
/// equal a cold parse on a thread of its own — the first on that thread,
/// so on a new machine.
#[test]
fn maspar_parses_on_one_thread_leak_no_state() {
    let g = cdg_grammar::grammars::english::grammar();
    let lex = cdg_grammar::grammars::english::lexicon(&g);
    let long = lex
        .sentence("the big dog sees the cat in the old park")
        .expect("lexicon words");
    let short = lex.sentence("the dog runs").expect("lexicon words");
    let clean = EngineConfig::default();
    let faulted = EngineConfig::builder()
        .faults_spec("7")
        .build()
        .expect("the CLI's fault spec");
    assert!(faulted.faults.is_some());
    let steps = [
        ("n = 10", &long, &clean),
        ("n = 3", &short, &clean),
        ("n = 10, --faults 7", &long, &faulted),
        ("n = 10 after the faulted parse", &long, &clean),
    ];
    let request = |s: &Sentence, config: &EngineConfig| {
        ParseRequest::with_config(&g, config).sentence(s.clone())
    };

    let mut warm = WarmState::new();
    let warm_runs: Vec<MasparRun> = steps
        .iter()
        .map(|(_, s, config)| maspar_run(&request(s, config), &mut warm))
        .collect();
    for ((name, s, config), got) in steps.iter().zip(&warm_runs) {
        let cold = std::thread::scope(|scope| {
            scope
                .spawn(|| maspar_run(&request(s, config), &mut WarmState::new()))
                .join()
                .expect("cold parse thread")
        });
        assert_eq!(got, &cold, "{name}: warm run differs from a cold one");
        assert_eq!(got.report_stats, Some(got.stats), "{name}");
        assert_eq!(got.report_seconds, Some(got.estimated_seconds), "{name}");
    }
    let faulted_run = &warm_runs[2];
    assert!(!faulted_run.retired_pes.is_empty(), "plan 7 kills PEs");
    assert!(faulted_run.stats.fault_events() > 0);
    let after = &warm_runs[3];
    assert_eq!(format!("{:.6}", after.estimated_seconds), "1.410960");
    assert!(
        after.retired_pes.is_empty(),
        "no retired PE survives a parse"
    );
    assert_eq!(after.stats.fault_events(), 0);
    assert_eq!(after, &warm_runs[0], "the clean n = 10 parses agree");
}
