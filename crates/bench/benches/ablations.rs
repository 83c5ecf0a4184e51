//! Ablations of the design decisions DESIGN.md calls out:
//!
//! * filtering mode (none / bounded / fixpoint) — the paper's design
//!   decision 5 trades completeness of filtering for bounded time;
//! * arcs-before-unary vs unary-before-arcs — design decision 1 changes
//!   how much matrix work the unary phase does;
//! * physical PE count — shrinking the simulated array raises the
//!   virtualization factor (design decision 6) and the simulator's
//!   estimated time, without changing results.

use cdg_core::parser::{FilterMode, ParseOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maspar_sim::MachineConfig;
use parsec_maspar::MasparOptions;
use std::hint::black_box;

fn filtering_modes(c: &mut Criterion) {
    let (g, lex) = corpus::standard_setup();
    let s = corpus::english_sentence(&g, &lex, 10, 9);
    let mut group = c.benchmark_group("ablation/filtering");
    group.sample_size(10);
    for (name, mode) in [
        ("none", FilterMode::None),
        ("bounded-3", FilterMode::Bounded(3)),
        ("fixpoint", FilterMode::Fixpoint),
    ] {
        let opts = ParseOptions {
            filter: mode,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &s, |b, s| {
            b.iter(|| black_box(cdg_core::parse(&g, s, opts)))
        });
    }
    group.finish();
}

fn pipeline_order(c: &mut Criterion) {
    let (g, lex) = corpus::standard_setup();
    let s = corpus::english_sentence(&g, &lex, 10, 9);
    let mut group = c.benchmark_group("ablation/pipeline-order");
    group.sample_size(10);
    for (name, arcs_first) in [("unary-then-arcs", false), ("arcs-then-unary", true)] {
        let opts = ParseOptions {
            arcs_before_unary: arcs_first,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &s, |b, s| {
            b.iter(|| black_box(cdg_core::parse(&g, s, opts)))
        });
    }
    group.finish();
}

fn virtualization(c: &mut Criterion) {
    // Same program, smaller simulated arrays: results identical, estimated
    // MP-1 time scales with the virtualization factor. Wall time of the
    // simulation itself is what Criterion sees.
    let g = cdg_grammar::grammars::paper::grammar();
    let s = cdg_grammar::grammars::paper::cost_sweep_sentence(&g, 7);
    let mut group = c.benchmark_group("ablation/virtualization");
    group.sample_size(10);
    for phys in [16_384usize, 4_096, 1_024] {
        let opts = MasparOptions {
            machine: MachineConfig {
                phys_pes: phys,
                ..Default::default()
            },
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(phys), &s, |b, s| {
            b.iter(|| {
                black_box(
                    parsec_maspar::parse_maspar_checked(&g, s, &opts)
                        .expect("the MasPar parse fits the simulated machine"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, filtering_modes, pipeline_order, virtualization);
criterion_main!(benches);
