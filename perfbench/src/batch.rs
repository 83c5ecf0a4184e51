//! batch-long (`Sequential.parse_batch`, what `parsec --batch` runs) and
//! maspar-mixed (`parsec_maspar::Maspar` `parse_batch`), both with the
//! default request plus the grammar's compiled artifact, as the CLI sends.

use crate::inputs::{self, Grammars, Item, Lang, Round};
use crate::layers::{self, CoreReplay, MasparReplay, CORE_PHASES, MP1_PHASES};
use crate::oracle::{self, Answer};
use crate::reference::{self, Reference};
use crate::stats::{self, Summary};
use crate::{cpu_secs, mean, peak_rss_mb, time_setups, Args, Outcome};
use cdg_core::api::{Engine, ParseRequest, Sequential};
use cdg_core::{BatchOutcome, EngineConfig};
use cdg_grammar::{CompiledGrammar, Sentence};
use parsec_maspar::Maspar;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Long,
    Maspar,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Long => "batch-long",
            Kind::Maspar => "maspar-mixed",
        }
    }

    fn langs(self) -> &'static [Lang] {
        match self {
            Kind::Long => &inputs::LANGS,
            Kind::Maspar => &[Lang::English],
        }
    }

    /// Distinct rounds generated per seed and cycled through.
    fn rounds(self) -> usize {
        match self {
            Kind::Long => 24,
            Kind::Maspar => 12,
        }
    }

    fn engine(self) -> Box<dyn Engine> {
        match self {
            Kind::Long => Box::new(Sequential),
            Kind::Maspar => Box::new(Maspar::default()),
        }
    }

    fn matches(self, got: &BatchOutcome, want: &Answer) -> bool {
        match self {
            Kind::Long => oracle::serial_matches(got, want),
            Kind::Maspar => oracle::maspar_matches(got, want),
        }
    }
}

const SETUP_REPS: usize = 101;
const TRACE_SETUP_REPS: usize = 5;
const CORE_REPEATS: usize = 3;
/// Reference chunks timed right after the set-ups, for their factor.
const SETUP_REF_CHUNKS: usize = 9;

/// The per-layer metrics of `parsec-maspar` and `maspar-sim`, reported as
/// 0 on workloads that do not run them.
pub const MASPAR_LAYER_METRICS: [(&str, &str); 10] = [
    ("maspar.mp1_est_ms", "ms"),
    ("maspar.array_ms", "ms"),
    ("maspar.readback_ms", "ms"),
    ("maspar.host_ns_per_plural_op", "ns"),
    ("maspar.plural_ops", "count"),
    ("maspar.router_ops", "count"),
    ("maspar.scan_passes", "count"),
    ("maspar.mp1_phase_ms.unary", "ms"),
    ("maspar.mp1_phase_ms.binary", "ms"),
    ("maspar.mp1_phase_ms.filter", "ms"),
];

/// What set-up builds: the grammars, one compiled artifact per grammar,
/// and the engine.
struct Ready {
    g: Grammars,
    compiled: Vec<(Lang, Arc<CompiledGrammar>)>,
    engine: Box<dyn Engine>,
}

impl Ready {
    fn build(kind: Kind) -> Ready {
        cdg_grammar::compiled::evict_all();
        let g = Grammars::load(kind == Kind::Long);
        let compiled = kind
            .langs()
            .iter()
            .map(|&l| (l, cdg_core::resolve_compiled(g.of(l))))
            .collect();
        Ready {
            g,
            compiled,
            engine: kind.engine(),
        }
    }

    fn compiled(&self, lang: Lang) -> &Arc<CompiledGrammar> {
        let (_, artifact) = self
            .compiled
            .iter()
            .find(|(l, _)| *l == lang)
            .expect("set-up compiles every grammar of the workload");
        artifact
    }

    fn request(&self, lang: Lang) -> ParseRequest<'_> {
        ParseRequest::with_config(self.g.of(lang), &EngineConfig::default())
            .compiled(Arc::clone(self.compiled(lang)))
    }
}

/// One timed round: its wall time, the CPU time the process ran during it,
/// the reference chunk timed just before it, and every call's outcomes.
struct RoundRun {
    round: usize,
    secs: f64,
    cpu_secs: f64,
    ref_secs: f64,
    outcomes: Vec<Vec<BatchOutcome>>,
}

/// The rounds of one window.
struct Window {
    runs: Vec<RoundRun>,
}

impl Window {
    /// Round times in ms: the CPU time of the round, at the nominal host
    /// speed ([`reference`]). The batch engines run on the calling thread
    /// alone (maspar-mixed pins the simulator to one thread), so on an idle
    /// core this is the wall time; unlike the wall time it leaves out the
    /// time the thread waited for a CPU while other tasks or the hypervisor
    /// ran.
    fn round_ms(&self) -> Vec<f64> {
        let refs: Vec<f64> = self.runs.iter().map(|r| r.ref_secs).collect();
        self.runs
            .iter()
            .zip(reference::factors(&refs))
            .map(|(r, k)| r.cpu_secs * 1e3 * k)
            .collect()
    }

    /// Each distinct round the window ran, as its sentence count and its
    /// median time over its repeats: a slow outlier repeat does not count,
    /// and every distinct round weighs once.
    fn distinct_rounds(&self, rounds: &[Round]) -> Vec<(usize, f64)> {
        let ms = self.round_ms();
        rounds
            .iter()
            .enumerate()
            .filter_map(|(k, round)| {
                let times: Vec<f64> = (self.runs.iter().zip(&ms))
                    .filter(|(r, _)| r.round == k)
                    .map(|(_, &t)| t)
                    .collect();
                (!times.is_empty()).then(|| (round_items(round).count(), stats::median(&times)))
            })
            .collect()
    }

    /// Sentences per second: the sentences of every distinct round over
    /// the sum of their median times.
    fn throughput(&self, rounds: &[Round]) -> f64 {
        let distinct = self.distinct_rounds(rounds);
        let sentences: usize = distinct.iter().map(|&(n, _)| n).sum();
        let total_ms: f64 = distinct.iter().map(|&(_, ms)| ms).sum();
        sentences as f64 * 1e3 / total_ms
    }

    /// Median times of the distinct rounds, ms. Their p90 is the tail over
    /// inputs; over every repeat it also caught the repeats that the
    /// host-speed scaling missed, and spread 0.06 across five seeds, against
    /// 0.02 over the medians.
    fn round_latencies(&self, rounds: &[Round]) -> Vec<f64> {
        self.distinct_rounds(rounds)
            .into_iter()
            .map(|(_, ms)| ms)
            .collect()
    }
}

/// Run rounds back to back until `seconds` have passed, each after one
/// reference chunk. With `metrics` the obsv registry is armed for every
/// call (the traced loop).
fn window(
    reference: &mut Reference,
    ready: &Ready,
    batches: &[Vec<(Lang, Vec<Sentence>)>],
    first: usize,
    seconds: f64,
    metrics: bool,
) -> Window {
    let requests: Vec<(Lang, ParseRequest<'_>)> = ready
        .compiled
        .iter()
        .map(|&(l, _)| (l, ready.request(l).metrics(metrics)))
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut runs = Vec::new();
    let mut r = first;
    while runs.is_empty() || Instant::now() < deadline {
        let round = r % batches.len();
        let ref_secs = reference.time();
        let cpu0 = cpu_secs();
        let start = Instant::now();
        let outcomes = batches[round]
            .iter()
            .map(|(lang, sentences)| {
                let (_, req) = requests
                    .iter()
                    .find(|(l, _)| l == lang)
                    .expect("a request per workload grammar");
                ready
                    .engine
                    .parse_batch(sentences, req)
                    .expect("batch parses")
                    .outcomes
            })
            .collect();
        let secs = start.elapsed().as_secs_f64();
        runs.push(RoundRun {
            round,
            secs,
            cpu_secs: cpu_secs() - cpu0,
            ref_secs,
            outcomes,
        });
        r += 1;
    }
    Window { runs }
}

/// Check every outcome of every run against the oracle; returns
/// (attempted, failed).
fn verify(
    kind: Kind,
    rounds: &[Round],
    answers: &[Vec<Vec<Answer>>],
    runs: &[RoundRun],
    inject: &mut bool,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for run in runs {
        for (call, outcomes) in run.outcomes.iter().enumerate() {
            let items = &rounds[run.round][call].1;
            assert_eq!(outcomes.len(), items.len(), "one outcome per sentence");
            for (i, got) in outcomes.iter().enumerate() {
                let mut got = got.clone();
                if std::mem::take(inject) {
                    got.accepted = !got.accepted;
                }
                attempted += 1;
                failed += u64::from(!kind.matches(&got, &answers[run.round][call][i]));
            }
        }
    }
    (attempted, failed)
}

fn sentences_of(round: &Round) -> Vec<(Lang, Vec<Sentence>)> {
    round
        .iter()
        .map(|(l, items)| (*l, items.iter().map(|i| i.sentence.clone()).collect()))
        .collect()
}

fn round_items(round: &Round) -> impl Iterator<Item = &Item> {
    round.iter().flat_map(|(_, items)| items)
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    if kind == Kind::Maspar {
        // As `parsec --engine maspar --threads 1`: the simulator's parallel
        // sweeps start their threads per operation, and on a host of a few
        // shared vCPUs those start-ups measure the scheduler.
        rayon::set_num_threads(1);
    }
    let mut out = Outcome::default();
    let reps = if args.trace {
        TRACE_SETUP_REPS
    } else {
        SETUP_REPS
    };
    let mut reference = Reference::new();
    let (ready, setups) = time_setups(reps, || Ready::build(kind), drop);
    let setup_factor = reference.factor_now(SETUP_REF_CHUNKS);
    let g = &ready.g;
    let rounds = match kind {
        Kind::Long => inputs::batch_long_rounds(g, args.seed, kind.rounds()),
        Kind::Maspar => inputs::maspar_rounds(g, args.seed, kind.rounds()),
    };
    let batches: Vec<_> = rounds.iter().map(sentences_of).collect();
    // Warm-up: one round, not measured.
    window(&mut reference, &ready, &batches, 0, 0.0, false);

    let mut inject = args.inject_wrong_answer;
    let runs: Vec<RoundRun>;
    let answers;
    if !args.trace {
        let w = window(&mut reference, &ready, &batches, 0, args.seconds, false);
        let rss = peak_rss_mb() - reference.resident_mb();
        answers = oracle_answers(g, &rounds);
        let (attempted, failed) = verify(kind, &rounds, &answers, &w.runs, &mut inject);
        out.attempted = attempted;
        out.failed = failed;
        let latencies = w.round_latencies(&rounds);
        let latency = Summary::of(&latencies);
        out.metric("setup_s", stats::median(&setups) * setup_factor, "s");
        out.metric("throughput_sps", w.throughput(&rounds), "1/s");
        out.metric("latency_p50_ms", latency.median, "ms");
        out.metric(
            "latency_p90_ms",
            stats::percentile(&stats::sorted(&latencies), 90.0),
            "ms",
        );
        out.metric("peak_rss_mb", rss, "MB");
        out.detail("latency_ms", latency.to_json());
        out.detail("every_round_ms", Summary::of(&w.round_ms()).to_json());
        let raw_ms: Vec<f64> = w.runs.iter().map(|r| r.secs * 1e3).collect();
        out.detail("raw_latency_ms", Summary::of(&raw_ms).to_json());
        let cpu_ms: Vec<f64> = w.runs.iter().map(|r| r.cpu_secs * 1e3).collect();
        out.detail("cpu_latency_ms", Summary::of(&cpu_ms).to_json());
        let ref_ms: Vec<f64> = w.runs.iter().map(|r| r.ref_secs * 1e3).collect();
        out.detail("reference_ms", Summary::of(&ref_ms).to_json());
        out.detail("raw_setup_s", Summary::of(&setups).to_json());
        out.detail("setup_factor", format!("{setup_factor}"));
        let dump: Vec<String> = w
            .runs
            .iter()
            .map(|r| format!("[{},{},{},{}]", r.round, r.secs, r.cpu_secs, r.ref_secs))
            .collect();
        out.detail("rounds_dump", format!("[{}]", dump.join(",")));
        if kind == Kind::Maspar {
            let replays = maspar_replays(g, &rounds, &answers, &mut out);
            let mp1 = mean(replays.iter().map(|r| r.estimated_secs * 1e3));
            out.detail("mp1_est_ms", format!("{mp1}"));
        }
        runs = w.runs;
    } else {
        let half = args.seconds / 2.0;
        let untraced = window(&mut reference, &ready, &batches, 0, half, false);
        let traced = window(
            &mut reference,
            &ready,
            &batches,
            untraced.runs.len(),
            half,
            true,
        );
        answers = oracle_answers(g, &rounds);
        let (a1, f1) = verify(kind, &rounds, &answers, &untraced.runs, &mut inject);
        let (a2, f2) = verify(kind, &rounds, &answers, &traced.runs, &mut inject);
        out.attempted = a1 + a2;
        out.failed = f1 + f2;
        let (tput_u, tput_t) = (untraced.throughput(&rounds), traced.throughput(&rounds));

        for (name, unit) in crate::serve::SERVE_LAYER_METRICS {
            out.metric(name, 0.0, unit);
        }
        let compile: f64 = kind
            .langs()
            .iter()
            .map(|&l| crate::serve::compile_ms(g.of(l)))
            .sum();
        out.metric("grammar.compile_ms", compile, "ms");
        let pool: Vec<Item> = rounds.iter().flat_map(round_items).cloned().collect();
        out.metric(
            "grammar.lexicon_us",
            crate::serve::lexicon_us(g, &pool).median,
            "us",
        );
        core_layers(kind, &ready, &rounds, &untraced.runs, &mut out);
        match kind {
            Kind::Maspar => maspar_layers(g, &rounds, &answers, &mut out),
            Kind::Long => crate::serve::zero_maspar_layers(&mut out),
        }
        out.metric(
            "harness.trace_overhead",
            (tput_t - tput_u) / tput_u,
            "share",
        );
        runs = untraced.runs.into_iter().chain(traced.runs).collect();
    }
    inputs_detail(args, kind, &rounds, &answers, &runs, &mut out);
    out
}

/// The oracle's answer for every item of every round. Inputs that recur
/// across rounds (each round's accepted aⁿbⁿ strings) are parsed once.
fn oracle_answers(g: &Grammars, rounds: &[Round]) -> Vec<Vec<Vec<Answer>>> {
    let mut known: HashMap<(Lang, &str), Answer> = HashMap::new();
    rounds
        .iter()
        .map(|round| {
            round
                .iter()
                .map(|(_, items)| {
                    items
                        .iter()
                        .map(|i| {
                            known
                                .entry((i.lang, i.text.as_str()))
                                .or_insert_with(|| oracle::answer(g, i))
                                .clone()
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Per-sentence mean of `f` over replays, each sentence's time taken as
/// the median of its repeats.
fn per_sentence_ms(replays: &[Vec<CoreReplay>], phase: usize) -> f64 {
    mean(replays.iter().map(|runs| {
        let times: Vec<f64> = runs.iter().map(|r| r.secs[phase] * 1e3).collect();
        stats::median(&times)
    }))
}

/// Emit the `cdg-core` and `bitmat` layer metrics from serial replays
/// (each inner vector: one sentence's repeats).
pub fn emit_core(replays: &[Vec<CoreReplay>], out: &mut Outcome) {
    for (phase, name) in CORE_PHASES.iter().enumerate() {
        out.metric(
            &format!("core.{name}_ms"),
            per_sentence_ms(replays, phase),
            "ms",
        );
    }
    let stat =
        |f: fn(&cdg_core::NetStats) -> usize| mean(replays.iter().map(|r| f(&r[0].stats) as f64));
    out.metric("core.unary_checks", stat(|s| s.unary_checks), "count");
    out.metric("core.binary_checks", stat(|s| s.binary_checks), "count");
    out.metric("core.support_checks", stat(|s| s.support_checks), "count");
    out.metric("core.removals", stat(|s| s.removals), "count");
    out.metric(
        "core.filter_passes",
        mean(replays.iter().map(|r| r[0].outcome.filter_passes as f64)),
        "count",
    );
    let hits = stat(|s| s.kernel_memo_hits);
    let evals = stat(|s| s.binary_checks);
    out.metric(
        "core.kernel_memo_hit_share",
        hits / (hits + evals).max(1.0),
        "share",
    );
    out.metric("bitmat.tiles", stat(|s| s.bmm_tiles), "count");
    out.metric("bitmat.words", stat(|s| s.bmm_words), "count");
}

/// Replay the first round's sentences (every round for maspar-mixed)
/// through the serial pipeline phase by phase; their answers must equal
/// the end-to-end outcomes of the same sentences.
fn core_layers(kind: Kind, ready: &Ready, rounds: &[Round], runs: &[RoundRun], out: &mut Outcome) {
    let max_parses = EngineConfig::default().max_parses;
    let take = match kind {
        Kind::Long => 1,
        Kind::Maspar => rounds.len(),
    };
    let mut replays = Vec::new();
    for (r, round) in rounds.iter().enumerate().take(take) {
        let Some(e2e) = runs.iter().find(|run| run.round == r) else {
            continue;
        };
        for (call, (lang, items)) in round.iter().enumerate() {
            let compiled = ready.compiled(*lang);
            for (i, item) in items.iter().enumerate() {
                let reps: Vec<CoreReplay> = (0..CORE_REPEATS)
                    .map(|_| {
                        layers::replay_core(ready.g.of(*lang), compiled, &item.sentence, max_parses)
                    })
                    .collect();
                let served = &e2e.outcomes[call][i];
                let replayed = &reps[0].outcome;
                let same = match kind {
                    Kind::Long => replayed == served,
                    Kind::Maspar => {
                        replayed.accepted == served.accepted
                            && replayed.ambiguous == served.ambiguous
                            && replayed.total_alive == served.total_alive
                            && replayed.parses == served.parses
                    }
                };
                out.check(
                    same,
                    "core replay digest differs from the end-to-end output",
                );
                replays.push(reps);
            }
        }
    }
    out.check(!replays.is_empty(), "core replay ran");
    emit_core(&replays, out);
}

/// Replay every maspar-mixed sentence on the simulated array with the
/// host readback timed on its own, checking the alive sets against the
/// serial oracle.
fn maspar_replays(
    g: &Grammars,
    rounds: &[Round],
    answers: &[Vec<Vec<Answer>>],
    out: &mut Outcome,
) -> Vec<MasparReplay> {
    let mut all = Vec::new();
    for (round, want) in rounds.iter().zip(answers) {
        for (item, want) in round_items(round).zip(want.iter().flatten()) {
            let replay = layers::replay_maspar(&g.english, &item.sentence);
            out.check(
                replay.alive == want.alive,
                "maspar alive sets differ from the serial oracle",
            );
            all.push(replay);
        }
    }
    all
}

fn maspar_layers(g: &Grammars, rounds: &[Round], answers: &[Vec<Vec<Answer>>], out: &mut Outcome) {
    let all = maspar_replays(g, rounds, answers, out);
    let per = |f: fn(&MasparReplay) -> f64| mean(all.iter().map(f));
    let array_ms = per(|r| r.array_secs * 1e3);
    let plural_ops = per(|r| r.stats.plural_ops as f64);
    out.metric("maspar.mp1_est_ms", per(|r| r.estimated_secs * 1e3), "ms");
    out.metric("maspar.array_ms", array_ms, "ms");
    out.metric("maspar.readback_ms", per(|r| r.readback_secs * 1e3), "ms");
    out.metric(
        "maspar.host_ns_per_plural_op",
        array_ms * 1e6 / plural_ops.max(1.0),
        "ns",
    );
    out.metric("maspar.plural_ops", plural_ops, "count");
    out.metric(
        "maspar.router_ops",
        per(|r| r.stats.router_ops as f64),
        "count",
    );
    out.metric(
        "maspar.scan_passes",
        per(|r| r.stats.scan_passes as f64),
        "count",
    );
    for (k, (name, _)) in MP1_PHASES.iter().enumerate() {
        out.metric(
            &format!("maspar.mp1_phase_ms.{name}"),
            mean(all.iter().map(|r| r.phase_secs[k] * 1e3)),
            "ms",
        );
    }
}

fn inputs_detail(
    args: &Args,
    kind: Kind,
    rounds: &[Round],
    answers: &[Vec<Vec<Answer>>],
    runs: &[RoundRun],
    out: &mut Outcome,
) {
    let processed: Vec<(&Item, &Answer)> = runs
        .iter()
        .flat_map(|r| round_items(&rounds[r.round]).zip(answers[r.round].iter().flatten()))
        .collect();
    let n = processed.len().max(1) as f64;
    let rejects = processed
        .iter()
        .filter(|(_, a)| !a.summary.accepted)
        .count();
    let long = processed.iter().filter(|(i, _)| i.len() >= 9).count();
    out.detail(
        "inputs",
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"distinct_rounds\":{},\"sentences_per_round\":{},\"rounds_run\":{},\"length_histogram\":{},\"repeat_share\":0,\"reject_share\":{},\"n_ge_9_share\":{}}}",
            kind.name(),
            args.seed,
            rounds.len(),
            round_items(&rounds[0]).count(),
            runs.len(),
            inputs::histogram_json(processed.iter().map(|(i, _)| i.len())),
            rejects as f64 / n,
            long as f64 / n,
        ),
    );
}
