//! RES-T1 (host side): the cost of propagating a single constraint —
//! the quantity the paper reports as <10 ms (MasPar) vs 15 s (serial
//! Sparcstation). Measures one unary and one binary constraint application
//! on a prepared network, serial vs rayon, plus the full MasPar-simulated
//! parse whose *estimated* per-constraint time is printed by
//! `tables -- timing`.

use cdg_core::network::Network;
use cdg_parallel::pram::PramStats;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn prepared<'g>(g: &'g cdg_grammar::Grammar, s: &cdg_grammar::Sentence) -> Network<'g> {
    let mut net = Network::build(g, s);
    cdg_core::propagate::apply_all_unary(&mut net);
    net.init_arcs();
    net
}

fn unary_constraint(c: &mut Criterion) {
    let (g, lex) = corpus::standard_setup();
    let mut group = c.benchmark_group("propagate/unary");
    group.sample_size(20);
    for n in [6usize, 10, 14] {
        let s = corpus::english_sentence(&g, &lex, n, 3);
        let constraint = &g.unary_constraints()[0];
        group.bench_with_input(BenchmarkId::new("serial", n), &s, |b, s| {
            b.iter_batched(
                || Network::build(&g, s),
                |mut net| black_box(cdg_core::propagate::apply_unary(&mut net, constraint)),
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("pram", n), &s, |b, s| {
            b.iter_batched(
                || (Network::build(&g, s), PramStats::default()),
                |(mut net, mut stats)| {
                    black_box(cdg_parallel::pram::apply_unary_par(
                        &mut net, constraint, &mut stats,
                    ))
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn binary_constraint(c: &mut Criterion) {
    let (g, lex) = corpus::standard_setup();
    let mut group = c.benchmark_group("propagate/binary");
    group.sample_size(10);
    for n in [6usize, 10, 14] {
        let s = corpus::english_sentence(&g, &lex, n, 3);
        let constraint = &g.binary_constraints()[0];
        group.bench_with_input(BenchmarkId::new("serial", n), &s, |b, s| {
            b.iter_batched(
                || prepared(&g, s),
                |mut net| black_box(cdg_core::propagate::apply_binary(&mut net, constraint)),
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("pram", n), &s, |b, s| {
            b.iter_batched(
                || (prepared(&g, s), PramStats::default()),
                |(mut net, mut stats)| {
                    black_box(cdg_parallel::pram::apply_binary_par(
                        &mut net, constraint, &mut stats,
                    ))
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn maspar_full_parse(c: &mut Criterion) {
    // The simulator's own wall time (the estimated MP-1 seconds are a
    // separate, deterministic output).
    let g = cdg_grammar::grammars::paper::grammar();
    let mut group = c.benchmark_group("propagate/maspar-sim-wall");
    group.sample_size(10);
    for n in [3usize, 7, 10] {
        let s = cdg_grammar::grammars::paper::cost_sweep_sentence(&g, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &s, |b, s| {
            b.iter(|| {
                black_box(
                    parsec_maspar::parse_maspar_checked(
                        &g,
                        s,
                        &parsec_maspar::MasparOptions::default(),
                    )
                    .expect("the MasPar parse fits the simulated machine"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    unary_constraint,
    binary_constraint,
    maspar_full_parse
);
criterion_main!(benches);
