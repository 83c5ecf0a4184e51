//! FIG8 (wall-clock side): scaling of each realizable architecture row.
//!
//! Criterion measures host wall time; the step/op counts that match the
//! table's asymptotic columns come from `cargo run -p bench --bin tables
//! -- fig8`. Together they regenerate Figure 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn cdg_engines(c: &mut Criterion) {
    let (g, lex) = corpus::standard_setup();
    let mut group = c.benchmark_group("fig8/cdg");
    group.sample_size(10);
    for n in [4usize, 8, 12] {
        let s = corpus::english_sentence(&g, &lex, n, 42);
        group.bench_with_input(BenchmarkId::new("serial", n), &s, |b, s| {
            b.iter(|| black_box(cdg_core::parse(&g, s, bench::run::comparable_options())))
        });
        group.bench_with_input(BenchmarkId::new("pram", n), &s, |b, s| {
            b.iter(|| {
                black_box(cdg_parallel::parse_pram(
                    &g,
                    s,
                    bench::run::comparable_options(),
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("maspar-sim", n), &s, |b, s| {
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

fn cfg_engines(c: &mut Criterion) {
    let (g, lex) = corpus::standard_setup();
    let cfg = cfg_baseline::gen::english_cfg();
    let mut group = c.benchmark_group("fig8/cfg");
    group.sample_size(10);
    for n in [8usize, 16, 24] {
        let s = corpus::english_sentence(&g, &lex, n, 42);
        let tokens = cfg
            .tokenize(&s.to_string().to_lowercase())
            .expect("corpus vocabulary is CFG-compatible");
        group.bench_with_input(BenchmarkId::new("cky-serial", n), &tokens, |b, t| {
            b.iter(|| black_box(cfg_baseline::cky_recognize(&cfg, t)))
        });
        group.bench_with_input(BenchmarkId::new("cky-wavefront", n), &tokens, |b, t| {
            b.iter(|| black_box(cfg_baseline::cky_recognize_par(&cfg, t)))
        });
        group.bench_with_input(BenchmarkId::new("cky-mesh", n), &tokens, |b, t| {
            b.iter(|| black_box(cfg_baseline::mesh_recognize(&cfg, t)))
        });
    }
    group.finish();
}

criterion_group!(benches, cdg_engines, cfg_engines);
criterion_main!(benches);
