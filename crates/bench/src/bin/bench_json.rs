//! `bench_json` — emit the machine-readable bench report (`BENCH_2.json`).
//!
//! ```text
//! bench_json [--quick] [--out PATH] [--threads N]
//! ```
//!
//! Three row families:
//!
//! 1. **Engine sweep** — every CDG engine (serial, PRAM, mesh, MasPar-sim)
//!    on English corpus sentences of increasing length, on one thread:
//!    wall-clock plus the model quantities (ops / parallel steps).
//! 2. **Formal grammars** — serial vs PRAM on the bundled a^n b^n and
//!    balanced-brackets grammars (the CI bench-smoke inputs).
//! 3. **Batch throughput** — `parse_batch` over an n-sentence corpus at 1
//!    thread and at N threads, with the output digest proving the results
//!    are byte-identical; `speedup_vs_1t` on the N-thread row is the
//!    repo's headline multi-core trajectory number.
//!
//! Every row carries an FNV-1a digest of its parse output, so two reports
//! (different thread counts, different machines) can be checked for
//! byte-identical results by comparing digests — see `bench_compare`.

use bench::json::Json;
use bench::report::{calibrate, fnv1a, validate_trace, BenchReport, BenchRow};
use bench::run::{
    binary_kernel, binary_naive, comparable_options, filter_incremental_phase, filter_naive_phase,
    maspar_cdg, mesh_cdg, pram_cdg, serial_cdg, serial_cdg_naive, Measurement, FILTER_PASSES,
};
use cdg_core::api::{Engine, ParseRequest, Sequential};
use cdg_core::{BatchOutcome, EvalStrategy, FilterStrategy};
use cdg_grammar::grammars::{english, formal};
use cdg_grammar::{Grammar, Sentence};
use cdg_parallel::Pram;
use parsec_maspar::{parse_maspar_checked, Maspar, MasparOptions};

struct Args {
    quick: bool,
    out: String,
    threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_2.json".into(),
        threads: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = it.next().unwrap_or_else(|| usage()),
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    args
}

fn usage() -> ! {
    eprintln!("usage: bench_json [--quick] [--out PATH] [--threads N]");
    std::process::exit(2);
}

/// Digest of a settled single-sentence network: every slot's alive set.
fn digest_with(grammar: &Grammar, sentence: &Sentence, eval: EvalStrategy) -> u64 {
    let options = cdg_core::ParseOptions {
        eval,
        ..comparable_options()
    };
    let outcome = cdg_core::parse(grammar, sentence, options);
    let mut buf = String::new();
    for slot in outcome.network.slots() {
        buf.push_str(&format!("{:?};", slot.alive_indices()));
    }
    fnv1a(buf.as_bytes())
}

/// Digest under the default (kernel) evaluator, cross-checked against the
/// naive tree-walk oracle — the bit-identity guarantee the kernel engine
/// ships under.
fn digest_outcome(grammar: &Grammar, sentence: &Sentence) -> u64 {
    let kernel = digest_with(grammar, sentence, EvalStrategy::Kernel);
    let naive = digest_with(grammar, sentence, EvalStrategy::Naive);
    assert_eq!(
        kernel, naive,
        "kernel and naive evaluators diverged — bit-identity bug"
    );
    kernel
}

/// Digest of one MasPar run: final alive masks, every submatrix word, the
/// full machine-op ledger and the estimated-seconds bits — everything the
/// simulated MP-1 computed, so equal digests mean bit-identical execution.
fn digest_maspar(grammar: &Grammar, sentence: &Sentence) -> u64 {
    let out = parse_maspar_checked(grammar, sentence, &MasparOptions::default())
        .expect("the MasPar parse fits the simulated machine");
    let buf = format!(
        "{:?};{:?};{:?};{:016x}",
        out.alive,
        out.bits,
        out.stats,
        out.estimated_seconds.to_bits()
    );
    fnv1a(buf.as_bytes())
}

/// Digest of the network state right after the binary-propagation phase
/// under `eval`: every slot's alive set plus the raw words of every arc
/// matrix. Captures the phase's full output, so equal digests across
/// evaluators mean bit-identical propagation, not merely equal parses.
fn digest_binary(grammar: &Grammar, sentence: &Sentence, eval: EvalStrategy) -> u64 {
    let mut net = cdg_core::Network::build(grammar, sentence);
    net.eval = eval;
    cdg_core::propagate::apply_all_unary(&mut net);
    net.init_arcs();
    cdg_core::propagate::apply_all_binary(&mut net);
    let mut buf = String::new();
    for slot in net.slots() {
        buf.push_str(&format!("{:?};", slot.alive_indices()));
    }
    for m in net.arcs_raw() {
        for r in 0..m.rows() {
            buf.push_str(&format!("{:?};", m.row(r)));
        }
    }
    fnv1a(buf.as_bytes())
}

/// Digest of the network state after the consistency-filtering phase
/// under `strategy` (`Auto` filters incrementally, `Naive` is the full
/// scan): every slot's alive set plus the raw words of every arc
/// matrix — equal digests across strategies mean bit-identical
/// filtering, not merely equal verdicts.
fn digest_filter(grammar: &Grammar, sentence: &Sentence, strategy: FilterStrategy) -> u64 {
    let mut net = cdg_core::Network::build(grammar, sentence);
    cdg_core::propagate::apply_all_unary(&mut net);
    net.init_arcs();
    cdg_core::propagate::apply_all_binary(&mut net);
    match strategy {
        FilterStrategy::Naive => cdg_core::consistency::filter(&mut net, FILTER_PASSES),
        FilterStrategy::Auto => cdg_core::filter_incremental(&mut net, FILTER_PASSES)
            .expect("the incremental filter cannot fail"),
    };
    let mut buf = String::new();
    for slot in net.slots() {
        buf.push_str(&format!("{:?};", slot.alive_indices()));
    }
    for m in net.arcs_raw() {
        for r in 0..m.rows() {
            buf.push_str(&format!("{:?};", m.row(r)));
        }
    }
    fnv1a(buf.as_bytes())
}

/// Digest of a batch result: the full owned summaries, Debug-formatted
/// (deterministic field order).
fn digest_batch(outcomes: &[BatchOutcome]) -> u64 {
    fnv1a(format!("{outcomes:?}").as_bytes())
}

/// Best-of-3 measurement (after one warm-up run): minimum wall-clock,
/// noise-robust on contended hosts; the model quantities are identical
/// across runs by determinism.
fn best_of(run: impl Fn() -> Measurement) -> Measurement {
    let _ = run();
    let mut best = run();
    for _ in 0..2 {
        let m = run();
        if m.wall_secs < best.wall_secs {
            best = m;
        }
    }
    best
}

/// Run `requests` sequential round trips against an in-process serve
/// instance over real loopback TCP and return the measured row plus the
/// normalized response lines (timing fields stripped) for digesting.
/// The request mix cycles accept/reject sentences with repeats, so the
/// cache path is exercised deterministically.
fn serve_loopback(requests: usize) -> (BenchRow, Vec<String>) {
    use std::io::{BufRead, BufReader, Write};

    let handle = parsec_serve::Server::start(parsec_serve::ServeConfig {
        grammar: "english".into(),
        workers: 2,
        ..Default::default()
    })
    .expect("serve scenario binds loopback");
    let stream = std::net::TcpStream::connect(handle.addr()).expect("loopback connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    // Protocol v2: accepted connections greet with the version line.
    let mut greeting = String::new();
    reader.read_line(&mut greeting).expect("greeting");
    assert_eq!(greeting.trim_end(), parsec_serve::PROTOCOL_VERSION);
    // Two distinct accepts and one reject; the second lap onward is all
    // cache hits for the repeated lines.
    let mix = [
        "PARSE the dog runs",
        "PARSE dog the runs",
        "PARSE the dog sees the cat in the park",
        "PARSE the dog runs",
    ];
    let mut normalized = Vec::with_capacity(requests);
    let mut all_ok = true;
    let start = std::time::Instant::now();
    for i in 0..requests {
        writer
            .write_all(format!("{}\n", mix[i % mix.len()]).as_bytes())
            .expect("serve write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("serve read");
        let line = line.trim_end();
        all_ok &= line.starts_with("OK");
        // wall_us varies run to run; everything else must be identical.
        normalized.push(
            line.split_ascii_whitespace()
                .filter(|tok| !tok.starts_with("wall_us="))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = handle.shutdown();
    assert_eq!(
        stats.parse_responses(),
        stats.requests,
        "serve scenario accounting must balance: {stats:?}"
    );
    let row = BenchRow {
        engine: "serve-loopback".into(),
        grammar: "english".into(),
        n: requests,
        threads: 2,
        wall_secs: wall,
        ops: stats.requests,
        steps: stats.cache_hits,
        speedup_vs_1t: 1.0,
        accepted: all_ok,
        digest: 0, // filled by the caller from the normalized lines
    };
    (row, normalized)
}

/// Run `requests` round trips from 8 concurrent client connections
/// against an in-process fleet server with `shards` simulated MasPar
/// machines (one band, so in-band stealing and least-depth routing do
/// the spreading) and return the wall clock, the *sorted* normalized
/// request/response pairs (timing fields stripped — scheduling order
/// varies, the multiset of answers must not), and the all-OK flag.
/// The artificial per-request service delay makes the scenario
/// service-bound: the fleet's shard concurrency, not host core count,
/// is what the wall clock measures — so the shards=4 / shards=1 ratio
/// is meaningful even on a single-core host.
fn fleet_loopback(requests: usize, shards: usize) -> (f64, Vec<String>, bool) {
    use std::io::{BufRead, BufReader, Write};

    let handle = parsec_serve::Server::start(parsec_serve::ServeConfig {
        grammar: "english".into(),
        workers: 1,
        shards,
        bands: parsec_serve::BandSpec::Count(1),
        cache_capacity: 0, // cache hits depend on arrival order; keep runs comparable
        service_delay: std::time::Duration::from_millis(4),
        ..Default::default()
    })
    .expect("fleet scenario binds loopback");
    let addr = handle.addr();
    const CLIENTS: usize = 8;
    assert_eq!(requests % CLIENTS, 0, "request count splits across clients");
    let per_client = requests / CLIENTS;
    // Two accepts, one reject, one long accept — every shard sees the
    // same deterministic work regardless of which client lands where.
    let mix = [
        "PARSE the dog runs",
        "PARSE the cat sees the dog",
        "PARSE dog the runs",
        "PARSE the dog sees the cat in the park",
    ];
    let start = std::time::Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).expect("loopback connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut writer = stream;
                let mut greeting = String::new();
                reader.read_line(&mut greeting).expect("greeting");
                assert_eq!(greeting.trim_end(), parsec_serve::PROTOCOL_VERSION);
                let mut pairs = Vec::with_capacity(per_client);
                let mut all_ok = true;
                for i in 0..per_client {
                    let request = mix[(c * per_client + i) % mix.len()];
                    writer
                        .write_all(format!("{request}\n").as_bytes())
                        .expect("fleet write");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("fleet read");
                    let line = line.trim_end();
                    all_ok &= line.starts_with("OK");
                    let normalized = line
                        .split_ascii_whitespace()
                        .filter(|tok| !tok.starts_with("wall_us="))
                        .collect::<Vec<_>>()
                        .join(" ");
                    pairs.push(format!("{request} => {normalized}"));
                }
                (pairs, all_ok)
            })
        })
        .collect();
    let mut pairs = Vec::with_capacity(requests);
    let mut all_ok = true;
    for client in clients {
        let (p, ok) = client.join().expect("fleet client");
        pairs.extend(p);
        all_ok &= ok;
    }
    let wall = start.elapsed().as_secs_f64();
    handle.begin_drain();
    let (stats, fleet) = handle.join_full();
    assert_eq!(
        stats.parse_responses(),
        stats.requests,
        "fleet scenario accounting must balance: {stats:?}"
    );
    assert_eq!(fleet.len(), shards, "one snapshot per shard");
    assert_eq!(
        fleet.iter().map(|s| s.serviced).sum::<u64>(),
        requests as u64,
        "every request serviced by exactly one shard"
    );
    pairs.sort_unstable();
    (wall, pairs, all_ok)
}

/// Run one traced, metered parse through the unified [`Engine`] API and
/// return the scenario's `parsec-trace-v1` document, validated before it
/// is embedded in the report.
fn capture_trace(
    scenario: &str,
    engine: &dyn Engine,
    grammar: &Grammar,
    sentence: &Sentence,
) -> (String, Json) {
    let request = ParseRequest::new(grammar)
        .sentence(sentence.clone())
        .options(comparable_options())
        .trace(true)
        .metrics(true)
        .max_parses(4);
    let report = engine
        .parse(&request)
        .unwrap_or_else(|e| panic!("trace scenario `{scenario}` failed: {e}"));
    let text = obsv::trace_to_json(
        report.engine,
        report.trace.as_ref().expect("trace requested"),
        report.metrics.as_ref(),
    );
    let doc = bench::json::parse(&text)
        .unwrap_or_else(|e| panic!("trace scenario `{scenario}` emitted bad JSON: {e}"));
    validate_trace(&doc)
        .unwrap_or_else(|e| panic!("trace scenario `{scenario}` failed validation: {e}"));
    (scenario.to_string(), doc)
}

fn row_from(m: Measurement, grammar: &str, threads: usize, digest: u64) -> BenchRow {
    BenchRow {
        engine: m.engine.into(),
        grammar: grammar.into(),
        n: m.n,
        threads,
        wall_secs: m.wall_secs,
        ops: m.ops.unwrap_or(0),
        steps: m.steps.unwrap_or(0),
        speedup_vs_1t: 1.0,
        accepted: m.accepted,
        digest,
    }
}

fn main() {
    let args = parse_args();
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n_threads = if args.threads > 0 {
        args.threads
    } else {
        host_threads
    };

    eprintln!("calibrating host ...");
    let calibration_secs = calibrate();
    let mut rows: Vec<BenchRow> = Vec::new();

    // --- 1. Engine sweep on English corpus sentences -----------------
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let lengths: &[usize] = if args.quick {
        &[4, 6, 8]
    } else {
        &[4, 6, 8, 10, 12]
    };
    // The sweep runs on one thread, as `parsec --engine maspar --threads 1`
    // and perfbench do: the simulator's parallel sweeps start their
    // threads per operation, so on a few shared vCPUs an N-thread sweep
    // times the scheduler. One thread also keeps every sweep row keyed
    // `1t` on any host, like the committed baseline.
    rayon::set_num_threads(1);
    let mut kernel_speedups: Vec<f64> = Vec::new();
    for &n in lengths {
        let s = corpus::english_sentence(&g, &lex, n, 11);
        let digest = digest_outcome(&g, &s);
        eprintln!("engine sweep: n={n}");
        let kernel = best_of(|| serial_cdg(&g, &s));
        let naive = best_of(|| serial_cdg_naive(&g, &s));
        if kernel.wall_secs > 0.0 {
            kernel_speedups.push(naive.wall_secs / kernel.wall_secs);
        }
        rows.push(row_from(kernel, "english", 1, digest));
        rows.push(row_from(naive, "english", 1, digest));
        rows.push(row_from(best_of(|| pram_cdg(&g, &s)), "english", 1, digest));
        rows.push(row_from(best_of(|| mesh_cdg(&g, &s)), "english", 1, digest));
        let maspar_digest = digest_maspar(&g, &s);
        rows.push(row_from(
            best_of(|| maspar_cdg(&g, &s)),
            "english",
            1,
            maspar_digest,
        ));
    }

    // --- 1b. Binary-propagation scenarios ----------------------------
    // The kernel engine's acceptance gate: the measured region is the
    // binary sweep alone (build / unary / arc-init untimed), where the
    // lane passes do their work. Digests cover alive sets AND raw arc
    // matrices, so kernel-vs-naive bit-identity is checked on the phase
    // output itself. English rows exercise the class-decided paths (few
    // pairs reach a pair verdict); the aⁿbⁿ and bracket rows exercise the
    // per-row verdict passes, where `a-matching-nests`-style order
    // constraints leave almost every row undecided by its classes.
    let bin_lengths: &[usize] = if args.quick { &[8, 12] } else { &[8, 12, 16] };
    let bin_formal = if args.quick { 24 } else { 48 };
    let bin_anbn = formal::anbn_grammar();
    let bin_brackets = formal::brackets_grammar();
    let mut bin_inputs: Vec<(&str, &Grammar, Sentence)> = bin_lengths
        .iter()
        .map(|&n| ("english", &g, corpus::english_sentence(&g, &lex, n, 11)))
        .collect();
    bin_inputs.push((
        "anbn",
        &bin_anbn,
        formal::anbn_sentence(&bin_anbn, &corpus::formal::anbn(bin_formal / 2)),
    ));
    bin_inputs.push((
        "brackets",
        &bin_brackets,
        formal::brackets_sentence(
            &bin_brackets,
            &corpus::formal::nested_brackets(bin_formal / 2),
        ),
    ));
    let mut binary_speedups: Vec<f64> = Vec::new();
    for (name, bg, s) in &bin_inputs {
        let n = s.len();
        let dk = digest_binary(bg, s, EvalStrategy::Kernel);
        let dn = digest_binary(bg, s, EvalStrategy::Naive);
        assert_eq!(
            dk, dn,
            "binary propagation diverged between evaluators on {name} n={n}"
        );
        eprintln!("binary propagation: {name} n={n}");
        let kernel = best_of(|| binary_kernel(bg, s));
        let naive = best_of(|| binary_naive(bg, s));
        if kernel.wall_secs > 0.0 {
            binary_speedups.push(naive.wall_secs / kernel.wall_secs);
        }
        rows.push(row_from(kernel, name, 1, dk));
        rows.push(row_from(naive, name, 1, dk));
    }
    if !binary_speedups.is_empty() {
        let geo =
            binary_speedups.iter().map(|s| s.ln()).sum::<f64>() / binary_speedups.len() as f64;
        eprintln!(
            "binary propagation kernel vs naive: geomean speedup {:.2}x (per input: {})",
            geo.exp(),
            binary_speedups
                .iter()
                .map(|s| format!("{s:.2}x"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // --- 1c. Consistency-filtering scenarios -------------------------
    // The incremental filter's acceptance gate: the measured region is
    // the n⁴ filtering fixpoint alone (build / unary / arc-init / binary
    // propagation untimed), where re-testing only the rows and columns a
    // removal touched replaces the full scan's every-value probe per
    // pass. Digests cover alive sets AND raw arc matrices after
    // filtering, asserted equal between the incremental filter and the
    // full scan, so bit-identity is checked on the phase output itself.
    //
    // Workloads: english sentences are small-n parity anchors (tiny
    // cascades); the formal-grammar inputs are the filter-dominated rows,
    // growing to n=48 (quick) / n=64 (full). The incremental row carries
    // its speedup over the `filter-naive` twin in `speedup_vs_1t`;
    // `bench_compare --filter-floor` gates the geomean of the large-n
    // (>= 32) rows.
    let formal_depths: &[usize] = if args.quick {
        &[8, 12, 16, 24]
    } else {
        &[8, 12, 16, 24, 32]
    };
    let anbn_f = formal::anbn_grammar();
    let brackets_f = formal::brackets_grammar();
    let mut filter_inputs: Vec<(&str, &Grammar, Sentence)> = [8usize, 12, 16]
        .iter()
        .map(|&n| ("english", &g, corpus::english_sentence(&g, &lex, n, 11)))
        .collect();
    for &d in formal_depths {
        filter_inputs.push((
            "anbn",
            &anbn_f,
            formal::anbn_sentence(&anbn_f, &("a".repeat(d) + &"b".repeat(d))),
        ));
        filter_inputs.push((
            "brackets",
            &brackets_f,
            formal::brackets_sentence(&brackets_f, &("(".repeat(d) + &")".repeat(d))),
        ));
    }
    let mut filter_speedups: Vec<(usize, f64)> = Vec::new();
    for (name, fg, s) in &filter_inputs {
        let n = s.len();
        let df = digest_filter(fg, s, FilterStrategy::Auto);
        assert_eq!(
            df,
            digest_filter(fg, s, FilterStrategy::Naive),
            "consistency filtering diverged between incremental and naive on {name} n={n}"
        );
        eprintln!("consistency filtering: {name} n={n}");
        let inc = best_of(|| filter_incremental_phase(fg, s));
        let naive = best_of(|| filter_naive_phase(fg, s));
        let speedup = if inc.wall_secs > 0.0 {
            naive.wall_secs / inc.wall_secs
        } else {
            1.0
        };
        filter_speedups.push((n, speedup));
        let mut inc_row = row_from(inc, name, 1, df);
        inc_row.speedup_vs_1t = speedup;
        rows.push(inc_row);
        rows.push(row_from(naive, name, 1, df));
    }
    let large_n: Vec<f64> = filter_speedups
        .iter()
        .filter(|&&(n, _)| n >= 32)
        .map(|&(_, s)| s)
        .collect();
    if !large_n.is_empty() {
        let geo = large_n.iter().map(|s| s.ln()).sum::<f64>() / large_n.len() as f64;
        eprintln!(
            "filtering incremental vs naive: geomean host-wall speedup {:.2}x over n>=32 (all rows: {})",
            geo.exp(),
            filter_speedups
                .iter()
                .map(|(n, s)| format!("n={n} {s:.2}x"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // --- 2. Formal grammars (the CI bench-smoke inputs) --------------
    let formal_inputs: Vec<(&str, Grammar, Sentence)> = {
        let anbn = formal::anbn_grammar();
        let brackets = formal::brackets_grammar();
        let depth = if args.quick { 3 } else { 5 };
        let anbn_s = formal::anbn_sentence(&anbn, &("a".repeat(depth) + &"b".repeat(depth)));
        let br_s = formal::brackets_sentence(&brackets, &("(".repeat(depth) + &")".repeat(depth)));
        vec![("anbn", anbn, anbn_s), ("brackets", brackets, br_s)]
    };
    for (name, g, s) in &formal_inputs {
        let digest = digest_outcome(g, s);
        eprintln!("formal: {name} n={}", s.len());
        rows.push(row_from(best_of(|| serial_cdg(g, s)), name, 1, digest));
        rows.push(row_from(
            best_of(|| serial_cdg_naive(g, s)),
            name,
            1,
            digest,
        ));
        rows.push(row_from(best_of(|| pram_cdg(g, s)), name, 1, digest));
    }

    // --- 3. Batch throughput: 1 thread vs N threads ------------------
    let batch_len = if args.quick { 32 } else { 64 };
    let sentence_len = 8;
    let sentences: Vec<Sentence> = (0..batch_len as u64)
        .map(|seed| corpus::english_sentence(&g, &lex, sentence_len, seed))
        .collect();
    let options = comparable_options();

    let batch_at = |threads: usize| -> (f64, Vec<BatchOutcome>) {
        rayon::set_num_threads(threads);
        let request = ParseRequest::new(&g).options(options).max_parses(4);
        // Warm-up run so thread spawn and lazy init don't pollute the
        // measurement, then best-of-5 (minimum is the noise-robust
        // estimator on a contended host).
        let _ = Pram.parse_batch(&sentences, &request);
        let mut best = f64::INFINITY;
        let mut outcomes = Vec::new();
        for _ in 0..5 {
            let report = Pram
                .parse_batch(&sentences, &request)
                .expect("batch throughput scenario parses");
            best = best.min(report.wall.as_secs_f64());
            outcomes = report.outcomes;
        }
        (best, outcomes)
    };

    eprintln!("batch: {batch_len} sentences x {sentence_len} words, 1 thread");
    let (wall_1t, out_1t) = batch_at(1);
    eprintln!("batch: {batch_len} sentences x {sentence_len} words, {n_threads} threads");
    let (wall_nt, out_nt) = batch_at(n_threads);
    rayon::set_num_threads(0);
    let digest_1t = digest_batch(&out_1t);
    let digest_nt = digest_batch(&out_nt);
    assert_eq!(
        digest_1t, digest_nt,
        "batch output diverged across thread counts — determinism bug"
    );
    let accepted_all = out_1t.iter().all(|o| o.accepted);
    let mk_batch_row = |threads: usize, wall: f64, speedup: f64| BenchRow {
        engine: "batch-pram".into(),
        grammar: "english".into(),
        n: batch_len,
        threads,
        wall_secs: wall,
        ops: batch_len as u64,
        steps: 0,
        speedup_vs_1t: speedup,
        accepted: accepted_all,
        digest: digest_1t,
    };
    rows.push(mk_batch_row(1, wall_1t, 1.0));
    if n_threads > 1 {
        // On a 1-core host the N-thread row would duplicate the 1-thread
        // key; the single row above is both.
        rows.push(mk_batch_row(n_threads, wall_nt, wall_1t / wall_nt));
    }

    if !kernel_speedups.is_empty() {
        let geo =
            kernel_speedups.iter().map(|s| s.ln()).sum::<f64>() / kernel_speedups.len() as f64;
        eprintln!(
            "kernel vs naive eval: geomean speedup {:.2}x across {} sweep points \
             (per-n: {})",
            geo.exp(),
            kernel_speedups.len(),
            kernel_speedups
                .iter()
                .map(|s| format!("{s:.2}x"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // --- 4. Parse-as-a-service loopback --------------------------------
    // One sequential client against an in-process `parsec-serve` server:
    // the measured quantity is request-response round trips through the
    // full service stack (protocol parse, admission, queue, worker,
    // reply). The digest covers every response line with the timing
    // fields stripped, so equal digests mean byte-identical service
    // behavior — statuses, parse results, cache markers, field order.
    let serve_requests = if args.quick { 32 } else { 128 };
    eprintln!("serve: loopback, {serve_requests} requests");
    let (serve_row, serve_digest_lines) = serve_loopback(serve_requests);
    let serve_digest = fnv1a(serve_digest_lines.join("\n").as_bytes());
    rows.push(BenchRow {
        digest: serve_digest,
        ..serve_row
    });

    // --- 4b. Sharded simulated-MasPar fleet ----------------------------
    // The same request mix against one simulated machine and against a
    // four-shard fleet. The per-request service delay makes the scenario
    // service-bound, so the shards=4 / shards=1 wall ratio measures the
    // fleet's real concurrency even on a single-core host, and the
    // sorted-response digests prove the fleet answers bit-identically to
    // the single machine — sharding changes throughput, never output.
    // `bench_compare --fleet-floor` gates the ratio (carried in
    // `speedup_vs_1t` on the shards=4 row, whose `threads` field holds
    // the shard count).
    let fleet_requests = if args.quick { 80 } else { 160 };
    eprintln!("fleet: loopback, {fleet_requests} requests, shards=1");
    let (fleet_wall_1, fleet_lines_1, fleet_ok_1) = fleet_loopback(fleet_requests, 1);
    eprintln!("fleet: loopback, {fleet_requests} requests, shards=4");
    let (fleet_wall_4, fleet_lines_4, fleet_ok_4) = fleet_loopback(fleet_requests, 4);
    assert_eq!(
        fleet_lines_1, fleet_lines_4,
        "fleet responses diverged between shards=1 and shards=4 — routing \
         must never change parse output"
    );
    let fleet_digest = fnv1a(fleet_lines_1.join("\n").as_bytes());
    let fleet_speedup = fleet_wall_1 / fleet_wall_4;
    eprintln!(
        "fleet 4-shard vs 1-shard: {fleet_speedup:.2}x \
         ({fleet_wall_1:.3}s -> {fleet_wall_4:.3}s, identical response digests)"
    );
    let mk_fleet_row = |shards: usize, wall: f64, speedup: f64, ok: bool| BenchRow {
        engine: "serve-fleet".into(),
        grammar: "english".into(),
        n: fleet_requests,
        threads: shards,
        wall_secs: wall,
        ops: fleet_requests as u64,
        steps: 0,
        speedup_vs_1t: speedup,
        accepted: ok,
        digest: fleet_digest,
    };
    rows.push(mk_fleet_row(1, fleet_wall_1, 1.0, fleet_ok_1));
    rows.push(mk_fleet_row(4, fleet_wall_4, fleet_speedup, fleet_ok_4));

    // --- 4c. Warm-state serving: compiled artifact + worker scratch ----
    // The warm-serving twin rows: the same short-sentence request stream
    // served cold (a fresh request per parse — constraints compiled per
    // call, buffers allocated per request: the oracle every worker ran
    // before warm state existed) and warm (the content-hash-keyed
    // `CompiledGrammar` artifact attached to every request plus one
    // persistent `WarmState` whose pool/scratch survive across requests,
    // exactly like a serve worker). Short sentences are the paper's
    // workload and the worst case for per-request overhead — the parse is
    // small, so compile time and allocation are a large fraction. One
    // digest per case covers the full per-request outcome summaries,
    // asserted equal here and gated again by `bench_compare --warm-floor`
    // (geomean of `speedup_vs_1t` on the `serve-warm` rows).
    let warm_requests = if args.quick { 96 } else { 192 };
    let paper_g = cdg_grammar::grammars::paper::grammar();
    let warm_cases: Vec<(&str, &Grammar, Vec<Sentence>)> = vec![
        (
            "english-short",
            &g,
            (0..warm_requests as u64)
                .map(|seed| corpus::english_sentence(&g, &lex, 3, seed))
                .collect(),
        ),
        (
            "paper-short",
            &paper_g,
            (0..warm_requests)
                .map(|_| cdg_grammar::grammars::paper::example_sentence(&paper_g))
                .collect(),
        ),
    ];
    let warm_options = comparable_options();
    let mut warm_speedups: Vec<f64> = Vec::new();
    for (label, wg, warm_sentences) in &warm_cases {
        eprintln!("warm-serve: {label}, {} requests", warm_sentences.len());
        let run_cold = || -> (f64, Vec<BatchOutcome>) {
            let t = std::time::Instant::now();
            let out: Vec<BatchOutcome> = warm_sentences
                .iter()
                .map(|s| {
                    Sequential
                        .parse(
                            &ParseRequest::new(wg)
                                .sentence(s.clone())
                                .options(warm_options)
                                .max_parses(4),
                        )
                        .expect("cold serve parse")
                        .summary()
                })
                .collect();
            (t.elapsed().as_secs_f64(), out)
        };
        let run_warm = || -> (f64, Vec<BatchOutcome>) {
            let artifact = cdg_grammar::compiled::resolve(wg).artifact;
            let mut warm_state = cdg_core::WarmState::new();
            let t = std::time::Instant::now();
            let out: Vec<BatchOutcome> = warm_sentences
                .iter()
                .map(|s| {
                    let mut report = Sequential
                        .parse_warm(
                            &ParseRequest::new(wg)
                                .sentence(s.clone())
                                .options(warm_options)
                                .max_parses(4)
                                .compiled(std::sync::Arc::clone(&artifact)),
                            &mut warm_state,
                        )
                        .expect("warm serve parse");
                    let summary = report.summary();
                    // Response consumed: recycle the network's storage
                    // into the worker's warm state, as a serve worker
                    // does after rendering.
                    warm_state.recycle_report(&mut report);
                    summary
                })
                .collect();
            (t.elapsed().as_secs_f64(), out)
        };
        let _ = run_cold();
        let _ = run_warm();
        let mut wall_cold = f64::INFINITY;
        let mut wall_warm = f64::INFINITY;
        let mut out_cold = Vec::new();
        let mut out_warm = Vec::new();
        for _ in 0..3 {
            let (wc, oc) = run_cold();
            if wc < wall_cold {
                wall_cold = wc;
            }
            out_cold = oc;
            let (ww, ow) = run_warm();
            if ww < wall_warm {
                wall_warm = ww;
            }
            out_warm = ow;
        }
        let warm_digest = digest_batch(&out_cold);
        assert_eq!(
            warm_digest,
            digest_batch(&out_warm),
            "warm serving diverged from the compile-per-request oracle ({label})"
        );
        let speedup = wall_cold / wall_warm;
        warm_speedups.push(speedup);
        let accepted = out_cold.iter().all(|o| o.accepted);
        let mk = |engine: &str, wall: f64, speedup: f64| BenchRow {
            engine: engine.into(),
            grammar: (*label).into(),
            n: warm_requests,
            threads: 1,
            wall_secs: wall,
            ops: warm_requests as u64,
            steps: 0,
            speedup_vs_1t: speedup,
            accepted,
            digest: warm_digest,
        };
        rows.push(mk("serve-cold", wall_cold, 1.0));
        rows.push(mk("serve-warm", wall_warm, speedup));
    }
    if !warm_speedups.is_empty() {
        let geo = warm_speedups.iter().map(|s| s.ln()).sum::<f64>() / warm_speedups.len() as f64;
        eprintln!(
            "warm vs cold serving (short sentences): geomean host-wall speedup {:.2}x (per-case: {})",
            geo.exp(),
            warm_speedups
                .iter()
                .map(|s| format!("{s:.2}x"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // --- 5. Per-scenario phase traces (the parsec-trace-v1 documents) -
    // One traced, metered parse per engine on a mid-size corpus sentence,
    // through the same unified API the CLI's `--trace=json` uses.
    let trace_sentence = corpus::english_sentence(&g, &lex, 6, 11);
    eprintln!("traces: capturing one document per engine");
    let traces = vec![
        capture_trace("engine-sweep/serial", &Sequential, &g, &trace_sentence),
        capture_trace("engine-sweep/pram", &Pram, &g, &trace_sentence),
        capture_trace(
            "engine-sweep/maspar",
            &Maspar::default(),
            &g,
            &trace_sentence,
        ),
    ];

    let report = BenchReport {
        host_threads,
        calibration_secs,
        rows,
        traces,
    };
    std::fs::write(&args.out, report.to_pretty()).unwrap_or_else(|e| {
        eprintln!("error: writing {}: {e}", args.out);
        std::process::exit(2);
    });
    if n_threads > 1 {
        eprintln!(
            "wrote {} ({} rows); batch speedup {n_threads}t vs 1t = {:.2}x",
            args.out,
            report.rows.len(),
            wall_1t / wall_nt
        );
    } else {
        eprintln!(
            "wrote {} ({} rows); single-core host, no multi-thread speedup row",
            args.out,
            report.rows.len()
        );
    }
}
