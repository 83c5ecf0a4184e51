//! Property tests for the shared config table: `EngineConfig::parse` and
//! `EngineConfig::encode` are mutually inverse over random key subsets.
//!
//! Every externally spellable key is drawn from a pool of valid values
//! (or omitted), assembled into a wire spec, parsed, re-encoded, and
//! re-parsed. Because the CLI flag parser and the serve wire decoder both
//! construct through the same [`cdg_core::config::KEYS`] table, this one
//! suite covers the spelling round-trip for every front-end at once.

use cdg_core::config::{ConfigError, KEYS};
use cdg_core::EngineConfig;
use proptest::prelude::*;

const ENGINES: &[&str] = &["serial", "pram", "maspar"];
const BUDGETS: &[&str] = &["ms=50", "iters=3", "cells=4096", "ms=120,iters=7"];
const CLASSES: &[&str] = &["interactive", "standard", "batch"];
const FAULTS: &[&str] = &[
    "42",
    "7",
    "dead=0",
    "dead=0,dead=1",
    "dead=3,router=120:5:255,flip=80:3:17",
];
const FILTERS: &[&str] = &["auto", "naive"];
const EVALS: &[&str] = &["kernel", "naive"];

/// `Some(index into a pool of len)` or `None` (key omitted), uniformly.
fn opt(len: usize) -> impl Strategy<Value = Option<usize>> {
    (0usize..=len).prop_map(move |i| (i < len).then_some(i))
}

/// Assemble the chosen keys into wire `k=v` tokens. Faults require the
/// maspar engine (a cross-field `build` rule), so when a fault spec is
/// drawn alongside a different engine the engine is forced to `maspar` —
/// the draw still covers engine-present and engine-absent cases.
#[allow(clippy::too_many_arguments)]
fn assemble(
    engine: Option<usize>,
    budget: Option<usize>,
    class: Option<usize>,
    faults: Option<usize>,
    transient: Option<usize>,
    parses: Option<usize>,
    filter: Option<usize>,
    eval: Option<usize>,
    threads: Option<usize>,
) -> Vec<String> {
    let engine = match (engine, faults) {
        (Some(_), Some(_)) => Some(2), // index of "maspar"
        (e, _) => e,
    };
    let mut tokens = Vec::new();
    let mut push = |key: &str, value: Option<String>| {
        if let Some(v) = value {
            tokens.push(format!("{key}={v}"));
        }
    };
    push("engine", engine.map(|i| ENGINES[i].to_string()));
    push("budget", budget.map(|i| BUDGETS[i].to_string()));
    push("class", class.map(|i| CLASSES[i].to_string()));
    push("faults", faults.map(|i| FAULTS[i].to_string()));
    push("transient", transient.map(|k| k.to_string()));
    push("parses", parses.map(|n| n.to_string()));
    push("filter", filter.map(|i| FILTERS[i].to_string()));
    push("eval", eval.map(|i| EVALS[i].to_string()));
    push("threads", threads.map(|t| t.to_string()));
    tokens
}

proptest! {
    /// parse → encode → parse is the identity, and encode is a fixpoint
    /// (encoding the reparsed config reproduces the same canonical spec).
    #[test]
    fn parse_encode_parse_is_identity(
        engine in opt(ENGINES.len()),
        budget in opt(BUDGETS.len()),
        class in opt(CLASSES.len()),
        faults in opt(FAULTS.len()),
        transient in prop_oneof![(0usize..=5).prop_map(Some), (0usize..1).prop_map(|_| None)],
        parses in prop_oneof![(1usize..=12).prop_map(Some), (0usize..1).prop_map(|_| None)],
        filter in opt(FILTERS.len()),
        eval in opt(EVALS.len()),
        threads in prop_oneof![(1usize..=8).prop_map(Some), (0usize..1).prop_map(|_| None)],
    ) {
        let tokens = assemble(
            engine, budget, class, faults, transient, parses, filter, eval, threads,
        );
        let spec = tokens.join(" ");
        let config = EngineConfig::parse(&spec)
            .unwrap_or_else(|e| panic!("valid spec `{spec}` rejected: {e}"));

        let canonical = config.encode();
        let reparsed = EngineConfig::parse(&canonical)
            .unwrap_or_else(|e| panic!("own encoding `{canonical}` rejected: {e}"));
        prop_assert_eq!(&reparsed, &config, "spec `{}` -> `{}`", spec, canonical);
        prop_assert_eq!(reparsed.encode(), canonical, "encode is not a fixpoint");

        // Key order never matters: the reversed spelling parses identically.
        let reversed = tokens.iter().rev().cloned().collect::<Vec<_>>().join(" ");
        prop_assert_eq!(EngineConfig::parse(&reversed).unwrap(), config);
    }

    /// The canonical encoding only ever emits known keys, in table order,
    /// at most once each — so any `k=v` consumer can decode it.
    #[test]
    fn encoding_is_canonical_table_order(
        engine in opt(ENGINES.len()),
        budget in opt(BUDGETS.len()),
        faults in opt(FAULTS.len()),
        parses in prop_oneof![(1usize..=12).prop_map(Some), (0usize..1).prop_map(|_| None)],
        eval in opt(EVALS.len()),
    ) {
        let spec = assemble(
            engine, budget, None, faults, None, parses, None, eval, None,
        )
        .join(" ");
        let config = EngineConfig::parse(&spec).unwrap();
        let pairs = config.encode_pairs();
        let table_pos = |key: &str| KEYS.iter().position(|d| d.key == key);
        let positions: Vec<usize> = pairs
            .iter()
            .map(|(k, _)| table_pos(k).unwrap_or_else(|| panic!("unknown key `{k}` emitted")))
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&positions, &sorted, "keys out of table order or repeated");
        // The default config contributes nothing; every emitted pair is a
        // deviation from the default.
        let defaults = EngineConfig::default().encode_pairs();
        prop_assert!(defaults.is_empty());
    }

    /// Arbitrary junk never panics the parser: it either parses or comes
    /// back as one of the typed [`ConfigError`] variants.
    #[test]
    fn garbage_specs_fail_typed_not_loud(spec in "\\PC{0,48}") {
        match EngineConfig::parse(&spec) {
            Ok(_) => {}
            Err(ConfigError::UnknownKey { .. })
            | Err(ConfigError::InvalidValue { .. })
            | Err(ConfigError::Conflict { .. }) => {}
        }
    }
}
