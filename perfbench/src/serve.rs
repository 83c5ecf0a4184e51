//! serve-short: an in-process `parsec_serve::Server` (English grammar,
//! serial engine, default `ServeConfig` except `workers = nproc`), driven
//! closed loop by `nproc` client connections over loopback TCP.

use crate::inputs::{self, Grammars, Item, Line};
use crate::layers;
use crate::stats::{self, Summary};
use crate::{peak_rss_mb, time_setups, Args, Host, Outcome, Ticks};
use cdg_core::EngineConfig;
use parsec_serve::{parse_request, split_response, ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Lines per client stream (wrapped if a run outlasts it).
const STREAM_LEN: usize = 400_000;
/// Lines each client sends before a leg's measured window opens.
const WARMUP_LINES: usize = 200;
/// Legs per run, each on a fresh server: the run reports medians across
/// legs, so one leg's unlucky thread placement does not set the figure.
const LEGS: usize = 6;
const SETUP_REPS: usize = 41;
const TRACE_SETUP_REPS: usize = 5;
/// Pool lines per length replayed through the serial pipeline.
const CORE_SAMPLE_PER_LENGTH: usize = 40;
const CORE_REPEATS: usize = 3;

/// The per-layer metrics of `parsec-serve`, reported as 0 on workloads
/// that do not run it.
pub const SERVE_LAYER_METRICS: [(&str, &str); 8] = [
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p90", "ms"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.decode_us", "us"),
    ("serve.cache_hit_share", "share"),
    ("serve.warm_reuse_share", "share"),
    ("serve.coalesced_share", "share"),
    ("serve.latency_p99_ms", "ms"),
];

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect and consume the `parsec-wire/2` greeting.
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the server");
        writer.set_nodelay(true).expect("nodelay");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut client = Client {
            reader: BufReader::new(writer.try_clone().expect("clone stream")),
            writer,
        };
        let greeting = client.read_line();
        assert_eq!(greeting, parsec_serve::PROTOCOL_VERSION, "server greeting");
        client
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read a response");
        assert!(n > 0, "server closed the connection");
        line.truncate(line.trim_end().len());
        line
    }

    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(line.as_bytes())
            .expect("send a request");
        self.read_line()
    }
}

/// A response as the client parsed it on arrival (a run keeps these few
/// bytes per request rather than the line itself).
#[derive(Clone, Copy)]
struct Reply {
    /// `OK` with every answer field present.
    ok: bool,
    answer: Want,
    cached: bool,
    wall_us: u32,
}

fn parse_reply(line: &str) -> Reply {
    let mut reply = Reply {
        ok: false,
        answer: Want::default(),
        cached: false,
        wall_us: 0,
    };
    let Ok((status, fields)) = split_response(line) else {
        return reply;
    };
    let field = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    let parsed = (|| {
        Some(Want {
            accepted: field("accepted")?.parse().ok()?,
            ambiguous: field("ambiguous")?.parse().ok()?,
            parses: field("parses")?.parse().ok()?,
            passes: field("passes")?.parse().ok()?,
        })
    })();
    if let (true, Some(answer)) = (status == "OK", parsed) {
        reply.ok = true;
        reply.answer = answer;
        reply.cached = field("cached") == Some("true");
        reply.wall_us = field("wall_us").and_then(|v| v.parse().ok()).unwrap_or(0);
    }
    reply
}

/// One answered request.
struct Sample {
    /// Position in the client's stream.
    pos: usize,
    rtt_ns: u32,
    reply: Reply,
}

fn wire_line(item: &Item) -> String {
    format!("PARSE -- {}\n", item.text)
}

/// Run every client closed loop over its stream from `from[c]`: first
/// [`WARMUP_LINES`] unmeasured lines, then measured lines until `seconds`
/// have passed. Returns each client's samples and moves `from` past them.
fn window(
    addr: SocketAddr,
    pool: &[Item],
    streams: &[Vec<Line>],
    from: &mut [usize],
    seconds: f64,
) -> Vec<Vec<Sample>> {
    let barrier = Barrier::new(streams.len());
    let opened = std::sync::OnceLock::new();
    let samples: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(from.iter())
            .map(|(stream, &from)| {
                let (barrier, opened) = (&barrier, &opened);
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let line_at =
                        |pos: usize| wire_line(&pool[stream[pos % stream.len()].idx as usize]);
                    for pos in from..from + WARMUP_LINES {
                        client.request(&line_at(pos));
                    }
                    barrier.wait();
                    let begin = *opened.get_or_init(Instant::now);
                    let deadline = begin + Duration::from_secs_f64(seconds);
                    // Reserved up front so growth never copies the buffer:
                    // peak memory then tracks the program, not the run.
                    let mut samples = Vec::with_capacity((seconds * 20_000.0) as usize);
                    let mut pos = from + WARMUP_LINES;
                    let mut now = Instant::now();
                    while now < deadline {
                        let line = line_at(pos);
                        let sent = Instant::now();
                        let response = client.request(&line);
                        now = Instant::now();
                        samples.push(Sample {
                            pos,
                            rtt_ns: u32::try_from((now - sent).as_nanos()).unwrap_or(u32::MAX),
                            reply: parse_reply(&response),
                        });
                        pos += 1;
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (from, samples) in from.iter_mut().zip(&samples) {
        *from = samples.last().map_or(*from + WARMUP_LINES, |s| s.pos + 1);
    }
    samples
}

/// Set-up as a user pays it: grammar and lexicon load, the compiled
/// artifact build, the bind and the worker spawn.
fn start_server(workers: usize) -> ServerHandle {
    cdg_grammar::compiled::evict_all();
    Server::start(ServeConfig {
        workers,
        ..Default::default()
    })
    .expect("server starts")
}

/// The answer fields a response carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Want {
    accepted: bool,
    ambiguous: bool,
    parses: u16,
    passes: u16,
}

impl Want {
    fn of(o: &cdg_core::BatchOutcome) -> Want {
        let small = |v: usize| u16::try_from(v).unwrap_or(u16::MAX);
        Want {
            accepted: o.accepted,
            ambiguous: o.ambiguous,
            parses: small(o.parses.len()),
            passes: small(o.filter_passes),
        }
    }
}

/// Everything measured over one window.
#[derive(Default)]
struct Tally {
    rtt_ms: Vec<f64>,
    service_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    repeats: u64,
    rejects: u64,
    lengths: Vec<usize>,
    /// Whether each pool line got a correct non-cached answer.
    answered: Vec<bool>,
}

impl Tally {
    fn of(
        samples: &[Vec<Sample>],
        streams: &[Vec<Line>],
        pool: &[Item],
        wants: &[Want],
        inject: &mut bool,
    ) -> Tally {
        let mut t = Tally {
            answered: vec![false; pool.len()],
            ..Tally::default()
        };
        for (client, samples) in samples.iter().enumerate() {
            let stream = &streams[client];
            for s in samples {
                let line = stream[s.pos % stream.len()];
                let idx = line.idx as usize;
                let mut want = wants[idx];
                if std::mem::take(inject) {
                    want.accepted = !want.accepted;
                }
                t.attempted += 1;
                t.repeats += u64::from(line.repeat);
                t.rejects += u64::from(!wants[idx].accepted);
                t.lengths.push(pool[idx].len());
                let rtt_ms = f64::from(s.rtt_ns) / 1e6;
                t.rtt_ms.push(rtt_ms);
                if !s.reply.ok || s.reply.answer != want {
                    t.failed += 1;
                } else if !s.reply.cached {
                    let service = f64::from(s.reply.wall_us) / 1e3;
                    t.service_ms.push(service);
                    t.overhead_ms.push(rtt_ms - service);
                    t.answered[idx] = true;
                }
            }
        }
        t
    }
}

/// One leg of a run: a fresh server, warmed up, then measured.
struct Leg {
    tally: Tally,
    seconds: f64,
    clients: usize,
    /// Share of the machine's busy CPU time the hypervisor stole during
    /// the leg.
    stolen: f64,
    /// Server ledger over the leg, its warm-up lines included.
    requests: u64,
    cache_hits: u64,
    warm_reuses: u64,
    /// obsv `serve.coalesced` over the window (traced legs only).
    coalesced: u64,
}

impl Leg {
    /// Answers per second of the leg's wall time net of stolen time, not
    /// counting the part of any round trip beyond the leg's p90: stalls of
    /// a shared host (a descheduled vCPU delays a thread wake-up by
    /// milliseconds) sit in that tail and would otherwise set the figure.
    fn throughput(&self) -> f64 {
        let p90 = self.raw_latency(90.0);
        let stalled_ms: f64 = self.tally.rtt_ms.iter().map(|&r| (r - p90).max(0.0)).sum();
        let seconds = self.seconds - stalled_ms / 1e3 / self.clients as f64;
        self.tally.attempted as f64 / (seconds * (1.0 - self.stolen))
    }

    /// Answers per second of the leg's wall time, stalls included.
    fn raw_throughput(&self) -> f64 {
        self.tally.attempted as f64 / self.seconds
    }

    /// Round-trip percentile `p` net of stolen time.
    fn latency(&self, p: f64) -> f64 {
        self.raw_latency(p) * (1.0 - self.stolen)
    }

    fn raw_latency(&self, p: f64) -> f64 {
        stats::percentile(&stats::sorted(&self.tally.rtt_ms), p)
    }
}

/// A run's serving state: the pool, streams, where each stream is, and
/// the oracle's answer per pool line.
struct Traffic<'a> {
    pool: &'a [Item],
    streams: &'a [Vec<Line>],
    from: Vec<usize>,
    wants: &'a [Want],
}

fn run_leg(
    server: ServerHandle,
    traffic: &mut Traffic<'_>,
    seconds: f64,
    traced: bool,
    inject: &mut bool,
) -> Leg {
    let before = server.stats();
    let ticks = Ticks::now();
    if traced {
        obsv::reset_metrics();
        obsv::set_metrics(true);
    }
    let samples = window(
        server.addr(),
        traffic.pool,
        traffic.streams,
        &mut traffic.from,
        seconds,
    );
    obsv::set_metrics(false);
    let stolen = ticks.stolen_from_work();
    let coalesced = if traced {
        obsv::snapshot().counter("serve.coalesced").unwrap_or(0)
    } else {
        0
    };
    let after = server.shutdown();
    Leg {
        tally: Tally::of(
            &samples,
            traffic.streams,
            traffic.pool,
            traffic.wants,
            inject,
        ),
        seconds,
        clients: traffic.streams.len(),
        stolen,
        requests: after.requests - before.requests,
        cache_hits: after.cache_hits - before.cache_hits,
        warm_reuses: after.warm_reuses - before.warm_reuses,
        coalesced,
    }
}

pub fn run(args: &Args, host: &Host) -> Outcome {
    let workers = host.nproc;
    let clients = host.nproc;
    let g = Grammars::load(false);
    let pool = inputs::serve_pool(&g, args.seed);
    let streams = inputs::serve_streams(pool.len(), clients, STREAM_LEN, args.seed);
    // The oracle answers every pool line, before any window opens.
    let wants: Vec<Want> = pool
        .iter()
        .map(|item| Want::of(&crate::oracle::answer(&g, item).summary))
        .collect();
    let mut out = Outcome::default();
    let mut traffic = Traffic {
        pool: &pool,
        streams: &streams,
        from: vec![0; clients],
        wants: &wants,
    };
    let reps = if args.trace {
        TRACE_SETUP_REPS
    } else {
        SETUP_REPS
    };
    let (first, setups) = time_setups(
        reps,
        || start_server(workers),
        |h| {
            h.shutdown();
        },
    );
    let mut first = Some(first);
    let mut inject = args.inject_wrong_answer;
    // Legs alternate untraced and traced in the traced run.
    let legs: Vec<(bool, Leg)> = (0..LEGS)
        .map(|k| {
            let traced = args.trace && k % 2 == 1;
            let server = first.take().unwrap_or_else(|| start_server(workers));
            let leg = run_leg(
                server,
                &mut traffic,
                args.seconds / LEGS as f64,
                traced,
                &mut inject,
            );
            (traced, leg)
        })
        .collect();
    let rss = peak_rss_mb();
    let median_of = |traced: bool, f: &dyn Fn(&Leg) -> f64| {
        let v: Vec<f64> = legs
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, l)| f(l))
            .collect();
        Summary::of(&v)
    };
    if !args.trace {
        let throughput = median_of(false, &Leg::throughput);
        let p50 = median_of(false, &|l: &Leg| l.latency(50.0));
        let p90 = median_of(false, &|l: &Leg| l.latency(90.0));
        out.metric("setup_s", stats::median(&setups), "s");
        out.metric("throughput_sps", throughput.median, "1/s");
        out.metric("latency_p50_ms", p50.median, "ms");
        out.metric("latency_p90_ms", p90.median, "ms");
        out.metric("peak_rss_mb", rss, "MB");
        out.detail("setup_s", Summary::of(&setups).to_json());
        out.detail("throughput_sps_per_leg", throughput.to_json());
        out.detail(
            "raw_throughput_sps_per_leg",
            median_of(false, &Leg::raw_throughput).to_json(),
        );
        out.detail(
            "raw_latency_p90_ms_per_leg",
            median_of(false, &|l: &Leg| l.raw_latency(90.0)).to_json(),
        );
        out.detail(
            "stolen_from_work_per_leg",
            median_of(false, &|l: &Leg| l.stolen).to_json(),
        );
        out.detail("latency_p50_ms_per_leg", p50.to_json());
        out.detail("latency_p90_ms_per_leg", p90.to_json());
    } else {
        let traced: Vec<&Leg> = legs.iter().filter(|(t, _)| *t).map(|(_, l)| l).collect();
        let pooled = |f: fn(&Tally) -> &Vec<f64>| -> Vec<f64> {
            traced
                .iter()
                .flat_map(|l| f(&l.tally).iter().copied())
                .collect()
        };
        let service_ms = pooled(|t| &t.service_ms);
        let rtt_ms = pooled(|t| &t.rtt_ms);
        let total = |f: fn(&Leg) -> u64| traced.iter().map(|l| f(l)).sum::<u64>() as f64;
        let requests = total(|l| l.requests).max(1.0);
        let hits = total(|l| l.cache_hits);
        let service = Summary::of(&service_ms);
        out.metric("serve.service_ms.p50", service.median, "ms");
        out.metric(
            "serve.service_ms.p90",
            stats::percentile(&stats::sorted(&service_ms), 90.0),
            "ms",
        );
        out.metric(
            "serve.overhead_ms.p50",
            stats::median(&pooled(|t| &t.overhead_ms)),
            "ms",
        );
        let decode = decode_us(&pool, &streams[0]);
        out.metric("serve.decode_us", decode.median, "us");
        out.metric("serve.cache_hit_share", hits / requests, "share");
        out.metric(
            "serve.warm_reuse_share",
            total(|l| l.warm_reuses) / (requests - hits).max(1.0),
            "share",
        );
        out.metric(
            "serve.coalesced_share",
            total(|l| l.coalesced) / requests,
            "share",
        );
        out.metric(
            "serve.latency_p99_ms",
            stats::percentile(&stats::sorted(&rtt_ms), 99.0),
            "ms",
        );
        out.metric("grammar.compile_ms", compile_ms(&g.english), "ms");
        out.metric("grammar.lexicon_us", lexicon_us(&g, &pool).median, "us");
        let answered: Vec<bool> = (0..pool.len())
            .map(|i| legs.iter().any(|(_, l)| l.tally.answered[i]))
            .collect();
        core_layers(&g, &pool, &answered, &wants, &mut out);
        zero_maspar_layers(&mut out);
        let tput_u = median_of(false, &Leg::throughput).median;
        let tput_t = median_of(true, &Leg::throughput).median;
        out.metric(
            "harness.trace_overhead",
            (tput_t - tput_u) / tput_u,
            "share",
        );
        out.detail("service_ms", service.to_json());
        out.detail("decode_us", decode.to_json());
        out.detail("latency_ms_traced", Summary::of(&rtt_ms).to_json());
    }
    let sum = |f: fn(&Tally) -> u64| legs.iter().map(|(_, l)| f(&l.tally)).sum::<u64>();
    out.attempted = sum(|t| t.attempted);
    out.failed = sum(|t| t.failed);
    let share = |v: u64| v as f64 / out.attempted.max(1) as f64;
    let inputs = format!(
        "{{\"workload\":\"serve-short\",\"seed\":{},\"pool\":{},\"clients\":{clients},\"workers\":{workers},\"legs\":{LEGS},\"lines\":{},\"length_histogram\":{},\"repeat_share\":{},\"reject_share\":{},\"n_ge_9_share\":0}}",
        args.seed,
        pool.len(),
        out.attempted,
        inputs::histogram_json(legs.iter().flat_map(|(_, l)| l.tally.lengths.iter().copied())),
        share(sum(|t| t.repeats)),
        share(sum(|t| t.rejects)),
    );
    out.detail("inputs", inputs);
    out
}

/// `parse_request` timed per line, µs.
fn decode_us(pool: &[Item], stream: &[Line]) -> Summary {
    let lines: Vec<String> = stream[..2000]
        .iter()
        .map(|l| wire_line(&pool[l.idx as usize]))
        .collect();
    let times: Vec<f64> = lines
        .iter()
        .map(|line| {
            let start = Instant::now();
            let req = parse_request(line, maspar_sim::MachineConfig::default().phys_pes);
            let t = start.elapsed().as_secs_f64() * 1e6;
            assert!(req.is_ok(), "benchmark lines decode");
            t
        })
        .collect();
    Summary::of(&times)
}

/// `Lexicon::sentence` timed per line, µs.
pub fn lexicon_us(g: &Grammars, items: &[Item]) -> Summary {
    let times: Vec<f64> = items
        .iter()
        .filter(|i| i.lang == inputs::Lang::English)
        .map(|item| {
            let start = Instant::now();
            let s = g.lexicon.sentence(&item.text);
            let t = start.elapsed().as_secs_f64() * 1e6;
            assert!(s.is_ok(), "benchmark words are in the lexicon");
            t
        })
        .collect();
    Summary::of(&times)
}

/// Median compiled-artifact build time on a registry miss, ms.
pub fn compile_ms(grammar: &cdg_grammar::Grammar) -> f64 {
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            cdg_grammar::compiled::evict_all();
            cdg_grammar::compiled::resolve(grammar).build_ns as f64 / 1e6
        })
        .collect();
    stats::median(&builds)
}

/// Replay a stratified pool sample through the serial pipeline phase by
/// phase. Its answers must equal what the server sent for those lines
/// (the lines the server answered correctly, uncached, carry the oracle's
/// answer).
fn core_layers(g: &Grammars, pool: &[Item], answered: &[bool], wants: &[Want], out: &mut Outcome) {
    let compiled = cdg_core::resolve_compiled(&g.english);
    let max_parses = EngineConfig::default().max_parses;
    let mut replays = Vec::new();
    let mut compared = 0;
    for i in inputs::serve_sample(pool, CORE_SAMPLE_PER_LENGTH) {
        let runs: Vec<layers::CoreReplay> = (0..CORE_REPEATS)
            .map(|_| layers::replay_core(&g.english, &compiled, &pool[i].sentence, max_parses))
            .collect();
        if answered[i] {
            compared += 1;
            out.check(
                Want::of(&runs[0].outcome) == wants[i],
                "core replay digest differs from the served answer",
            );
        }
        replays.push(runs);
    }
    out.check(compared > 0, "core replay compared against served answers");
    crate::batch::emit_core(&replays, out);
}

pub fn zero_maspar_layers(out: &mut Outcome) {
    for (name, unit) in crate::batch::MASPAR_LAYER_METRICS {
        out.metric(name, 0.0, unit);
    }
}
