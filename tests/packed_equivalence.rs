//! The bit-sliced `PluralBits` engine against the unpacked `Plural<bool>`
//! oracle it replaced.
//!
//! Packing is a host-side representation change: nothing the simulated
//! machine can observe may move — not the readback, not a `MachineStats`
//! op count, not the estimated MP-1 seconds, and under faults neither the
//! typed error nor the recovered result. The oracle engine is gone; its
//! outcomes survive as the digests below, recorded while both engines
//! still ran and every outcome here was asserted bit-identical between
//! them. Each digest folds, per input and in plan order, the readback,
//! every `MachineStats` field, the estimated-seconds bits, the removal
//! schedule, the iteration count and the recovery bookkeeping — or the
//! typed error's `{:?}`.

use cdg_core::EngineError;
use cdg_grammar::grammars::{english, formal, paper};
use cdg_grammar::{Grammar, Sentence};
use maspar_sim::{FaultPlan, MachineConfig, MachineStats};
use parsec_maspar::{parse_maspar_checked, MasparOptions, MasparOutcome};

/// Fault-free runs, per input.
const FAULT_FREE_GOLDEN: &[(&str, u64)] = &[
    ("paper", 0x1504ac4ddc51ce9f),
    ("english", 0x90eef0f54bfb06bc),
    ("anbn", 0xf5a9b1d182dd7787),
    ("ww", 0x668ea31a81d97bcb),
];

/// Seeds 0–63, then the hand-written plan, per input.
const SEEDED_GOLDEN: &[(&str, u64)] = &[
    ("paper", 0x9c076a3d587b8317),
    ("english", 0xcf464a18ae89f0c5),
    ("anbn", 0x301a98b657865ea5),
    ("ww", 0xcbe792535baece3a),
];

/// The all-dead plan's typed error, per input.
const ALL_DEAD_GOLDEN: &[(&str, u64)] = &[
    ("paper", 0x7794972349dc8ff8),
    ("english", 0x7794972349dc8ff8),
    ("anbn", 0x7794972349dc8ff8),
    ("ww", 0x7794972349dc8ff8),
];

/// Physical array small enough that every bundled input virtualizes —
/// injected faults land on occupied hardware.
const PHYS_PES: usize = 64;
/// Instruction-count horizon for scheduled transients; a verified run of
/// the bundled examples spans a few hundred broadcast instructions.
const HORIZON_OPS: u64 = 600;
const SEEDS: u64 = 64;

/// The bundled grammars the engine sweep exercises: the paper's worked
/// example, a generated English sentence, and both formal languages.
fn inputs() -> Vec<(&'static str, Grammar, Sentence)> {
    let pg = paper::grammar();
    let ps = paper::example_sentence(&pg);
    let eg = english::grammar();
    let lex = english::lexicon(&eg);
    let es = corpus::english_sentence(&eg, &lex, 7, 11);
    let ag = formal::anbn_grammar();
    let as_ = formal::anbn_sentence(&ag, "aaabbb");
    let wg = formal::ww_grammar();
    let ws = formal::ww_sentence(&wg, "0101");
    vec![
        ("paper", pg, ps),
        ("english", eg, es),
        ("anbn", ag, as_),
        ("ww", wg, ws),
    ]
}

fn options(faults: Option<FaultPlan>) -> MasparOptions {
    MasparOptions {
        machine: MachineConfig {
            phys_pes: PHYS_PES,
            ..Default::default()
        },
        faults,
        ..Default::default()
    }
}

/// Fold `bytes` into the FNV-1a hash `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn stats_fields(s: &MachineStats) -> [u64; 11] {
    [
        s.plural_ops,
        s.plural_slices,
        s.scan_calls,
        s.scan_passes,
        s.router_ops,
        s.router_slices,
        s.peak_pe_memory_bytes as u64,
        s.dead_pe_skips,
        s.router_corruptions,
        s.memory_flips,
        s.oob_routes,
    ]
}

/// Everything a checked run produced, or the typed error.
fn outcome_text(r: &Result<MasparOutcome, EngineError>) -> String {
    match r {
        Ok(out) => format!(
            "{:?};{:?};{:?};{:#x};{:?};{};{:?}",
            out.alive,
            out.bits,
            stats_fields(&out.stats),
            out.estimated_seconds.to_bits(),
            out.removals_per_iteration,
            out.filter_iterations_run,
            out.recovery
        ),
        Err(e) => format!("{e:?}"),
    }
}

/// Assert the per-input digests `got` equal `want`, printing the
/// regenerated table on a mismatch.
fn assert_table(what: &str, got: &[(&str, u64)], want: &[(&str, u64)]) {
    assert!(
        got == want,
        "{what}: outcomes moved from the oracle's; regenerated table:\n{}",
        got.iter()
            .map(|(l, h)| format!("    ({l:?}, {h:#x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn packed_engine_is_bit_identical_fault_free() {
    let mut got = Vec::new();
    for (name, g, s) in inputs() {
        let checked = parse_maspar_checked(&g, &s, &options(None));
        let out = checked.as_ref().expect("fault-free run cannot fail");
        assert!(out.roles_nonempty(), "{name}: bundled example should parse");
        // A second run executes the same program.
        let rerun = parse_maspar_checked(&g, &s, &options(None));
        assert_eq!(
            outcome_text(&rerun),
            outcome_text(&checked),
            "{name}: two fault-free runs diverged"
        );
        got.push((name, fnv1a(FNV_OFFSET, outcome_text(&checked).as_bytes())));
    }
    assert_table("fault-free", &got, FAULT_FREE_GOLDEN);
}

#[test]
fn packed_engine_matches_oracle_across_seeded_fault_plans() {
    let mut plans: Vec<FaultPlan> = (0..SEEDS)
        .map(|seed| FaultPlan::seeded(seed, PHYS_PES, HORIZON_OPS))
        .collect();
    plans.push(
        FaultPlan::new()
            .with_dead_pe(3)
            .with_memory_flip(20, 7, 3)
            .with_router_corrupt(60, 11, 0xFF)
            .with_memory_flip(150, 30, 60),
    );
    let mut recovered = 0usize;
    let mut fault_events = 0u64;
    let mut got = Vec::new();
    for (name, g, s) in inputs() {
        let mut h = FNV_OFFSET;
        for plan in &plans {
            let r = parse_maspar_checked(&g, &s, &options(Some(plan.clone())));
            if let Ok(out) = &r {
                fault_events += out.stats.fault_events();
                recovered += 1;
            }
            h = fnv1a(h, outcome_text(&r).as_bytes());
        }
        got.push((name, h));
    }
    assert_table("seeded fault plans", &got, SEEDED_GOLDEN);
    // The sweep has to exercise the recovery machinery, not coast on
    // fault-free seeds.
    assert!(recovered > 0, "sweep produced no recovered runs");
    assert!(
        fault_events > 0,
        "at least one recovered run must have observed fault events"
    );
}

#[test]
fn packed_and_oracle_fail_with_the_same_typed_error() {
    // Kill every physical PE: probing can retire nothing, so recovery is
    // impossible and the engine must return the oracle's typed
    // `EngineError` — not panic, not silently produce garbage.
    let plan = (0..PHYS_PES).fold(FaultPlan::new(), |p, pe| p.with_dead_pe(pe));
    let mut got = Vec::new();
    for (name, g, s) in inputs() {
        let r = parse_maspar_checked(&g, &s, &options(Some(plan.clone())));
        assert!(r.is_err(), "{name}: an all-dead array cannot parse");
        got.push((name, fnv1a(FNV_OFFSET, outcome_text(&r).as_bytes())));
    }
    assert_table("all-dead plan", &got, ALL_DEAD_GOLDEN);
}
