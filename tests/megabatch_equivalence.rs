//! Differential parity for cross-sentence mega-batching.
//!
//! The joined-SoA mega-batch path ([`cdg_core::BatchStrategy::Mega`]) must
//! be *indistinguishable* from the per-sentence oracle on every engine:
//! same outcomes, same parse sets (the digest), same per-sentence
//! [`maspar_sim::MachineStats`] and phase accounting on the simulated
//! MP-1, and same typed degradation for sentences an engine cannot take.
//! This suite drives that claim over seeded adversarial batches:
//! one-word sentences packed next to long ones, duplicates, scrambled
//! rejection inputs, and mid-batch sentences the MasPar layout rejects.
//!
//! Seed count comes from `MEGABATCH_SEEDS` (default 64); the CI parity
//! matrix runs the default, the nightly soak widens it to 256. The
//! matrix scopes each job with `MEGABATCH_ENGINE` (serial | pram |
//! maspar; unset = all), `MEGABATCH_THREADS` (pram thread counts,
//! comma-separated; unset = 1 and 8), and `MEGABATCH_FILTER` (filter
//! strategy: incremental | bmm | naive; unset = engine default) — all
//! default to full coverage for a plain `cargo test`.

use cdg_core::api::{Engine, ParseRequest};
use cdg_core::{BatchOutcome, BatchStrategy};
use cdg_grammar::grammars::{english, paper};
use cdg_grammar::{Grammar, Lexicon, Sentence};
use parsec_maspar::{parse_maspar_checked, parse_maspar_mega, MasparOptions};

fn seeds() -> u64 {
    std::env::var("MEGABATCH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Engine scope for this run: unset means every engine.
fn engine_in_scope(name: &str) -> bool {
    match std::env::var("MEGABATCH_ENGINE") {
        Ok(scope) => scope == name,
        Err(_) => true,
    }
}

/// Filter-strategy override for the parity matrix (`incremental` | `bmm`
/// | `naive`; unset = engine default). Applied to BOTH the per-sentence
/// oracle and the mega path, so each matrix cell checks batching parity
/// *under* that filtering core — the blocked-BMM cells prove the tile
/// kernels survive the SoA batching layout bit-for-bit. The MasPar
/// engine filters by its own scans and ignores the choice.
fn filter_scope() -> Option<cdg_core::FilterStrategy> {
    std::env::var("MEGABATCH_FILTER")
        .ok()
        .filter(|v| !v.is_empty())
        .map(|v| cdg_core::FilterStrategy::parse(&v).expect("valid MEGABATCH_FILTER"))
}

/// Thread counts to drive the pram engine at (others ignore threads).
fn thread_scope() -> Vec<usize> {
    match std::env::var("MEGABATCH_THREADS") {
        Ok(list) => list
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect(),
        Err(_) => vec![1, 8],
    }
}

/// A mixed-length batch built to stress the offset tables: a one-word
/// sentence beside the longest one in the batch, duplicates (shared
/// digests, distinct slots), and a scrambled rejection input.
fn adversarial_batch(grammar: &Grammar, lexicon: &Lexicon, seed: u64) -> Vec<Sentence> {
    let long_n = 8 + (seed % 4) as usize;
    let long = corpus::english_sentence(grammar, lexicon, long_n, seed);
    let short = corpus::english_sentence(grammar, lexicon, 3, seed);
    vec![
        lexicon.sentence("runs").expect("one-word sentence"),
        long.clone(),
        short.clone(),
        corpus::scrambled(lexicon, &long, seed),
        short, // exact duplicate next to its original
        corpus::english_sentence(grammar, lexicon, 5, seed.wrapping_add(1)),
    ]
}

/// An order-insensitive FNV-1a digest of a batch's outcomes — the same
/// "equal digests mean identical results" currency the bench harness
/// uses, here folded over every field of every outcome in order.
fn digest(outcomes: &[BatchOutcome]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for o in outcomes {
        eat(&[
            o.accepted as u8,
            o.ambiguous as u8,
            o.roles_nonempty as u8,
            o.locally_consistent as u8,
            o.degraded as u8,
        ]);
        eat(&o.filter_passes.to_le_bytes());
        eat(&o.total_alive.to_le_bytes());
        for p in &o.parses {
            eat(format!("{p:?}").as_bytes());
        }
    }
    h
}

fn outcomes_for(
    engine: &dyn Engine,
    grammar: &Grammar,
    sentences: &[Sentence],
    strategy: BatchStrategy,
    threads: Option<usize>,
) -> Vec<BatchOutcome> {
    let mut req = ParseRequest::new(grammar)
        .max_parses(16)
        .batch_strategy(strategy);
    if let Some(t) = threads {
        req = req.threads(t);
    }
    if let Some(f) = filter_scope() {
        req = req.filter_strategy(f);
    }
    engine
        .parse_batch(sentences, &req)
        .expect("batch runs")
        .outcomes
}

#[test]
fn mega_matches_per_sentence_on_seeded_adversarial_batches() {
    let grammar = english::grammar();
    let lexicon = english::lexicon(&grammar);
    let mut cells: Vec<(&str, Option<usize>)> = Vec::new();
    if engine_in_scope("serial") {
        cells.push(("serial", None));
    }
    if engine_in_scope("pram") {
        cells.extend(thread_scope().into_iter().map(|t| ("pram", Some(t))));
    }
    for seed in 0..seeds() {
        let batch = adversarial_batch(&grammar, &lexicon, seed);
        for &(name, threads) in &cells {
            let engine = parsec::engine_by_name(name).unwrap();
            let per = outcomes_for(
                engine.as_ref(),
                &grammar,
                &batch,
                BatchStrategy::PerSentence,
                threads,
            );
            let mega = outcomes_for(
                engine.as_ref(),
                &grammar,
                &batch,
                BatchStrategy::Mega,
                threads,
            );
            assert_eq!(
                per, mega,
                "seed {seed}, engine {name}, threads {threads:?}: outcomes diverge"
            );
            assert_eq!(
                digest(&per),
                digest(&mega),
                "seed {seed}, engine {name}: digest diverges"
            );
        }
    }
}

#[test]
fn maspar_mega_matches_including_machine_stats_and_rejections() {
    // The simulated-MP-1 parity is stricter than outcome equality: the
    // ghost replay must reproduce per-sentence MachineStats, phase
    // tables, estimated seconds, and removal schedules exactly. English
    // corpus sentences mix parseable inputs with lexically ambiguous
    // ones the layout rejects — mid-batch typed rejections included.
    if !engine_in_scope("maspar") {
        return;
    }
    let grammar = english::grammar();
    let lexicon = english::lexicon(&grammar);
    let opts = MasparOptions::default();
    // The deep check costs a full simulated parse per sentence per path;
    // a quarter of the seed budget keeps the matrix affordable.
    for seed in 0..seeds().div_ceil(4) {
        let batch = adversarial_batch(&grammar, &lexicon, seed);
        let mega = parse_maspar_mega(&grammar, &batch, &opts);
        assert_eq!(mega.len(), batch.len());
        for (i, sentence) in batch.iter().enumerate() {
            let per = parse_maspar_checked(&grammar, sentence, &opts);
            match (&mega[i], per) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.alive, b.alive, "seed {seed} s{i}: alive masks");
                    assert_eq!(a.bits, b.bits, "seed {seed} s{i}: arc matrices");
                    assert_eq!(a.stats, b.stats, "seed {seed} s{i}: MachineStats");
                    assert_eq!(
                        a.estimated_seconds, b.estimated_seconds,
                        "seed {seed} s{i}: simulated seconds"
                    );
                    assert_eq!(
                        a.removals_per_iteration, b.removals_per_iteration,
                        "seed {seed} s{i}: removal schedule"
                    );
                    assert_eq!(
                        a.phases.len(),
                        b.phases.len(),
                        "seed {seed} s{i}: phase table"
                    );
                    for (pa, pb) in a.phases.iter().zip(&b.phases) {
                        assert_eq!(pa.name, pb.name, "seed {seed} s{i}");
                        assert_eq!(pa.stats, pb.stats, "seed {seed} s{i}: phase {}", pa.name);
                    }
                    assert_eq!(a.recovery, b.recovery, "seed {seed} s{i}: recovery report");
                }
                (Err(ea), Err(eb)) => assert_eq!(
                    ea.to_string(),
                    eb.to_string(),
                    "seed {seed} s{i}: rejection reason"
                ),
                (a, b) => panic!("seed {seed} s{i}: mega {a:?} vs per-sentence {b:?}"),
            }
        }
    }
}

#[test]
fn maspar_engine_batch_parity_with_mid_batch_unsupported_sentences() {
    // Through the Engine trait: a paper-grammar batch with a rejected
    // (ungrammatical-but-parseable) line and an unsupported (lexically
    // impossible on the array) one — summaries must agree slot by slot.
    if !engine_in_scope("maspar") {
        return;
    }
    let grammar = paper::grammar();
    let lexicon = paper::lexicon(&grammar);
    let batch = vec![
        paper::example_sentence(&grammar),
        lexicon.sentence("program the runs").unwrap(),
        paper::example_sentence(&grammar),
    ];
    let engine = parsec::engine_by_name("maspar").unwrap();
    let per = outcomes_for(
        engine.as_ref(),
        &grammar,
        &batch,
        BatchStrategy::PerSentence,
        None,
    );
    let mega = outcomes_for(engine.as_ref(), &grammar, &batch, BatchStrategy::Mega, None);
    assert_eq!(per, mega);
    assert_eq!(digest(&per), digest(&mega));
}

#[test]
fn fault_recovery_is_identical_because_faulted_requests_never_coalesce() {
    // A fault plan forces the mega driver down the per-sentence fallback
    // (fault horizons are per-sentence instruction counts), so recovery
    // behaviour — retired PEs, phase retries, recovered-or-degraded — is
    // the per-sentence engine's by construction. Pin that with a seeded
    // transient plan on both strategies.
    if !engine_in_scope("maspar") {
        return;
    }
    let grammar = paper::grammar();
    let batch = vec![
        paper::example_sentence(&grammar),
        paper::example_sentence(&grammar),
    ];
    let engine = parsec::engine_by_name("maspar").unwrap();
    for seed in 0..4u64 {
        let plan = maspar_sim::FaultPlan::seeded(seed, 16, 2_000);
        let per = engine
            .parse_batch(
                &batch,
                &ParseRequest::new(&grammar)
                    .max_parses(8)
                    .faults(plan.clone()),
            )
            .unwrap()
            .outcomes;
        let mega = engine
            .parse_batch(
                &batch,
                &ParseRequest::new(&grammar)
                    .max_parses(8)
                    .faults(plan)
                    .batch_strategy(BatchStrategy::Mega),
            )
            .unwrap()
            .outcomes;
        assert_eq!(per, mega, "seed {seed}: faulted batches diverge");
    }
}

#[test]
fn empty_batches_agree_across_strategies() {
    let grammar = english::grammar();
    for name in ["serial", "pram", "maspar"] {
        if !engine_in_scope(name) {
            continue;
        }
        let engine = parsec::engine_by_name(name).unwrap();
        let per = outcomes_for(
            engine.as_ref(),
            &grammar,
            &[],
            BatchStrategy::PerSentence,
            None,
        );
        let mega = outcomes_for(engine.as_ref(), &grammar, &[], BatchStrategy::Mega, None);
        assert!(per.is_empty() && mega.is_empty(), "engine {name}");
    }
}
