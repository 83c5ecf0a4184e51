//! The server proper: accept loop, connection handlers, the shard fleet,
//! and the drain state machine.
//!
//! ```text
//!            ┌────────────┐  band-routed   ┌──────────────────────┐
//! TCP ──────▶│ connection │───try_push────▶│ shard 0 │ shard 1 │ … │──▶ Engine
//!  accept    │  handlers  │◀────reply──────│ (1 thread + queue ea.)│    (+ retry)
//!            └────────────┘    channel     └──────────────────────┘
//!                  │                          │        ▲
//!             admission +                     └─steal──┘ (band siblings
//!             cache lookup                                only)
//! ```
//!
//! Every worker runs one loop: pop its shard's queue, steal from band
//! siblings when idle, die when the shard-fault plan says so. With
//! `shards == 1` (the default) `workers` threads share shard 0 and its
//! queue. With more shards, each shard is an independent simulated
//! MasPar machine: one worker thread with its own simulated array and
//! bounded queue. Requests are routed by sentence length through the
//! [`BandPlan`] so every shard's virtualization ratio stays on one side of
//! the q²n⁴ cliffs, and an idle worker steals only from band siblings — a
//! stolen job is the same size class as a native one.
//!
//! **Exactly one response per request** is owned by the connection
//! handler: every `PARSE` line either produces an immediate typed
//! rejection (cache hit, admission shed, queue full, dead band) or hands
//! the job — with a single-use reply channel — to exactly one of: a
//! worker (parse, timeout, fault, error), a dying shard's drain
//! (re-homed to a sibling, or `DEGRADED cause=shard`), or the drain
//! supervisor (drain-deadline shed). Nothing else writes to the
//! connection.
//!
//! **Lifecycle**: `Running → Draining → Stopped`. Draining (via the
//! `SHUTDOWN` verb, [`ServerHandle::begin_drain`], or the CLI's signal
//! flag) stops the accept loop, sheds new requests with
//! `reason=draining`, and lets the supervisor flush every shard queue:
//! workers finish what they hold, queued jobs run until the drain
//! deadline, and anything still queued at the deadline is shed — typed
//! responses all the way down, never a silently dropped request.

use crate::admission::{decide, Admit, SloClass};
use crate::cache::{request_digest, ResponseCache};
use crate::fleet::BandPlan;
use crate::queue::{Bounded, PushError};
use crate::wire::{self, cause_field, render_fields, Request, PROTOCOL_VERSION};
use crate::{engine_for, ServeConfig, ServeStats, StatsSnapshot};
use cdg_core::api::{ParseRequest, WarmState};
use cdg_core::{EngineConfig, EngineError};
use cdg_grammar::grammars::{english, paper};
use cdg_grammar::{CompiledGrammar, Grammar, Lexicon};
use maspar_sim::MachineStats;
use parsec_maspar::parse_with_retry;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// How long a fleet worker camps on its own empty queue before probing
/// band siblings for stealable work.
const STEAL_TICK: Duration = Duration::from_millis(5);

/// One admitted parse job, owned by whoever answers it.
struct Job {
    text: String,
    config: EngineConfig,
    class: SloClass,
    engine_name: String,
    enqueued: Instant,
    deadline: Instant,
    /// Cache slot to fill on success (`None` = uncacheable).
    digest: Option<u64>,
    /// Single-use reply channel back to the connection handler.
    reply: mpsc::SyncSender<String>,
}

/// Interned `fleet.shard.<id>.*` obsv series names, computed once per
/// shard at startup so the hot path never formats.
struct ShardSeries {
    requests: &'static str,
    steals: &'static str,
    rehomed: &'static str,
    deaths: &'static str,
    depth_peak: &'static str,
    est_seconds: &'static str,
    /// Compiled-artifact registry hits scored to this shard (its worker
    /// resolving the shared artifact at spawn).
    compile_hits: &'static str,
}

impl ShardSeries {
    fn new(id: usize) -> Self {
        let name = |what: &str| obsv::series_name(&format!("fleet.shard.{id}.{what}"));
        ShardSeries {
            requests: name("requests"),
            steals: name("steals"),
            rehomed: name("rehomed"),
            deaths: name("deaths"),
            depth_peak: name("queue_depth_peak"),
            est_seconds: name("estimated_mp1_seconds"),
            compile_hits: name("compile.hits"),
        }
    }
}

/// One simulated machine: its queue, its liveness, and its ledger.
struct Shard {
    id: usize,
    queue: Bounded<Job>,
    alive: AtomicBool,
    /// Responses produced by this shard's worker(s) — also the clock the
    /// deterministic shard-fault plan runs on.
    serviced: AtomicU64,
    steals: AtomicU64,
    rehomed: AtomicU64,
    depth_peak: AtomicU64,
    /// Aggregated simulated-machine counters (maspar jobs only).
    machine: Mutex<MachineStats>,
    /// Accumulated estimated MP-1 seconds, as f64 bits.
    est_seconds_bits: AtomicU64,
    /// Die after this many serviced requests (chaos hook).
    fault_after: Option<u64>,
    series: ShardSeries,
}

impl Shard {
    fn new(id: usize, capacity: usize, fault_after: Option<u64>) -> Self {
        Shard {
            id,
            queue: Bounded::new(capacity),
            alive: AtomicBool::new(true),
            serviced: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            rehomed: AtomicU64::new(0),
            depth_peak: AtomicU64::new(0),
            machine: Mutex::new(MachineStats::default()),
            est_seconds_bits: AtomicU64::new(0),
            fault_after,
            series: ShardSeries::new(id),
        }
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    fn note_depth(&self, depth: usize) {
        self.depth_peak.fetch_max(depth as u64, Ordering::Relaxed);
        obsv::gauge_max(self.series.depth_peak, depth as f64);
    }

    fn add_estimated_seconds(&self, s: f64) {
        // f64 accumulate via CAS on the bit pattern (plain atomics only).
        let mut cur = self.est_seconds_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + s).to_bits();
            match self.est_seconds_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        obsv::gauge_set(
            self.series.est_seconds,
            f64::from_bits(self.est_seconds_bits.load(Ordering::Relaxed)),
        );
    }

    fn estimated_seconds(&self) -> f64 {
        f64::from_bits(self.est_seconds_bits.load(Ordering::Relaxed))
    }
}

/// Point-in-time public view of one shard, for STATS, the CLI's final
/// report, and the bench fleet scenario.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    pub id: usize,
    pub band: usize,
    pub alive: bool,
    pub serviced: u64,
    pub steals: u64,
    pub rehomed: u64,
    pub queue_depth: usize,
    pub queue_depth_peak: u64,
    pub machine: MachineStats,
    pub estimated_seconds: f64,
}

impl ShardSnapshot {
    /// The CLI's per-shard summary line.
    pub fn render(&self) -> String {
        format!(
            "serve.shard[{}]: band={} alive={} serviced={} steals={} rehomed={} \
             depth_peak={} plural_ops={} router_ops={} est_mp1_s={:.6}",
            self.id,
            self.band,
            self.alive,
            self.serviced,
            self.steals,
            self.rehomed,
            self.queue_depth_peak,
            self.machine.plural_ops,
            self.machine.router_ops,
            self.estimated_seconds,
        )
    }
}

struct Shared {
    config: ServeConfig,
    grammar: Grammar,
    /// The grammar's compiled artifact, resolved once through the
    /// process-wide registry at startup; every worker re-resolves at spawn
    /// (a registry hit) and all requests attach this same `Arc`.
    compiled: Arc<CompiledGrammar>,
    lexicon: Lexicon,
    plan: BandPlan,
    shards: Vec<Shard>,
    cache: Mutex<ResponseCache>,
    stats: ServeStats,
    state: AtomicU8,
    inflight: AtomicUsize,
    conns: AtomicUsize,
}

impl Shared {
    fn draining(&self) -> bool {
        self.state.load(Ordering::SeqCst) != RUNNING
    }

    fn total_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.depth()).sum()
    }
}

/// Constructor namespace: [`Server::start`] is the entry point.
pub struct Server;

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] (drain + join) or [`ServerHandle::join`]
/// after an external `SHUTDOWN`/signal triggers the drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

fn load_grammar(config: &ServeConfig) -> Result<(Grammar, Lexicon), String> {
    match config.grammar.as_str() {
        "paper" => {
            let g = paper::grammar();
            let lex = paper::lexicon(&g);
            Ok((g, lex))
        }
        "english" => {
            let g = english::grammar();
            let lex = english::lexicon(&g);
            Ok((g, lex))
        }
        path if path.ends_with(".cdg") => {
            let (g, lex) = cdg_grammar::file::load_path(std::path::Path::new(path))
                .map_err(|e| e.to_string())?;
            if lex.is_empty() {
                return Err(format!("grammar file `{path}` has no lexicon"));
            }
            Ok((g, lex))
        }
        other => Err(format!(
            "unknown grammar `{other}` (expected paper, english, or a .cdg path)"
        )),
    }
}

/// Resolve the grammar's compiled artifact through the process-wide
/// registry, scoring the outcome to both the serve ledger and the obsv
/// registry (`compile.cache.hits` / `compile.cache.misses` /
/// `compile.cache.build_ns`).
fn resolve_artifact(grammar: &Grammar, stats: &ServeStats) -> Arc<CompiledGrammar> {
    let resolved = cdg_grammar::compiled::resolve(grammar);
    if resolved.cache_hit {
        stats.bump(&stats.compile_hits, "compile.cache.hits");
    } else {
        stats.bump(&stats.compile_misses, "compile.cache.misses");
        obsv::counter_add("compile.cache.build_ns", resolved.build_ns);
    }
    resolved.artifact
}

impl Server {
    /// Bind, spawn the shard fleet and accept loop, and return the handle.
    pub fn start(config: ServeConfig) -> Result<ServerHandle, String> {
        let (grammar, lexicon) = load_grammar(&config)?;
        if engine_for(&config.engine, &config.machine).is_none() {
            return Err(format!("unknown engine `{}`", config.engine));
        }
        let shard_count = config.shards.max(1);
        for fault in &config.shard_faults {
            if fault.shard >= shard_count {
                return Err(format!(
                    "shard fault names shard {} but the fleet has {shard_count}",
                    fault.shard
                ));
            }
        }
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind `{}`: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let plan = BandPlan::build(
            config.bands,
            shard_count,
            grammar.num_roles(),
            config.machine.phys_pes,
        );
        let shards = (0..shard_count)
            .map(|id| {
                let fault_after = config
                    .shard_faults
                    .iter()
                    .find(|f| f.shard == id)
                    .map(|f| f.after_requests);
                Shard::new(id, config.queue_capacity, fault_after)
            })
            .collect();
        let stats = ServeStats::default();
        // Build (or find) the compiled artifact before any worker spawns:
        // the one registry miss per grammar content hash happens here, and
        // every worker's own resolve below lands as a hit.
        let compiled = resolve_artifact(&grammar, &stats);
        let shared = Arc::new(Shared {
            plan,
            shards,
            cache: Mutex::new(ResponseCache::new(config.cache_capacity)),
            stats,
            state: AtomicU8::new(RUNNING),
            inflight: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            grammar,
            compiled,
            lexicon,
            config,
        });
        // One shard: `workers` threads share it. The fleet: one worker
        // thread per shard.
        let worker_shards: Vec<usize> = if shard_count == 1 {
            vec![0; shared.config.workers.max(1)]
        } else {
            (0..shard_count).collect()
        };
        let workers = worker_shards
            .into_iter()
            .map(|id| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || shard_worker(&shared, id))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, listener))
        };
        Ok(ServerHandle {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ground-truth counters, snapshotted now.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Total queue depth across shards (for tests and the STATS verb).
    pub fn queue_depth(&self) -> usize {
        self.shared.total_depth()
    }

    /// Per-shard snapshots, in shard-id order.
    pub fn fleet_stats(&self) -> Vec<ShardSnapshot> {
        self.shared
            .shards
            .iter()
            .map(|s| ShardSnapshot {
                id: s.id,
                band: self.shared.plan.band_of_shard(s.id),
                alive: s.is_alive(),
                serviced: s.serviced.load(Ordering::Relaxed),
                steals: s.steals.load(Ordering::Relaxed),
                rehomed: s.rehomed.load(Ordering::Relaxed),
                queue_depth: s.queue.depth(),
                queue_depth_peak: s.depth_peak.load(Ordering::Relaxed),
                machine: *s.machine.lock().unwrap(),
                estimated_seconds: s.estimated_seconds(),
            })
            .collect()
    }

    /// The routing table, rendered (`..=5:s0+s1 ..=11:s2 ..:s3`).
    pub fn band_plan(&self) -> String {
        self.shared.plan.describe()
    }

    /// Enter the drain state: stop accepting, shed new work, flush the
    /// queues under the drain deadline. Idempotent.
    pub fn begin_drain(&self) {
        let _ = self.shared.state.compare_exchange(
            RUNNING,
            DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Whether drain has started (or finished).
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Wait for the drain to complete and every worker to exit, then
    /// return the final counters. Blocks until something triggers the
    /// drain (`SHUTDOWN`, [`Self::begin_drain`], a signal via the CLI).
    pub fn join(self) -> StatsSnapshot {
        self.join_full().0
    }

    /// [`Self::join`], also returning the final per-shard snapshots (the
    /// CLI prints one `serve.shard[k]:` line each at drain).
    pub fn join_full(mut self) -> (StatsSnapshot, Vec<ShardSnapshot>) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let fleet = self.fleet_stats();
        (self.shared.stats.snapshot(), fleet)
    }

    /// [`Self::begin_drain`] then [`Self::join`].
    pub fn shutdown(self) -> StatsSnapshot {
        self.begin_drain();
        self.join()
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    // Nonblocking so the loop can poll the drain flag between arrivals.
    let _ = listener.set_nonblocking(true);
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // One-line request/response traffic: Nagle + delayed ACK
                // would add ~40ms to every round trip.
                let _ = stream.set_nodelay(true);
                let stats = &shared.stats;
                if shared.conns.fetch_add(1, Ordering::SeqCst) >= shared.config.max_connections {
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                    stats.bump(&stats.shed_connections, "serve.shed.connections");
                    // No greeting on a refused connection: the SHED line is
                    // the whole conversation.
                    let mut stream = stream;
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.write_all(b"SHED reason=connections\n");
                    continue;
                }
                stats.bump(&stats.connections, "serve.connections");
                let shared = Arc::clone(shared);
                thread::spawn(move || {
                    handle_connection(&shared, stream);
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    // Past this point no new connection is accepted; flush the queues.
    drop(listener);
    supervise_drain(shared);
}

/// The drain state machine's second half: wait for queues + in-flight to
/// empty, shed whatever is still queued at the deadline, then close the
/// queues so workers exit.
fn supervise_drain(shared: &Arc<Shared>) {
    let deadline = Instant::now() + shared.config.drain_deadline;
    loop {
        if shared.total_depth() == 0 && shared.inflight.load(Ordering::SeqCst) == 0 {
            break;
        }
        if Instant::now() >= deadline {
            let stats = &shared.stats;
            for shard in &shared.shards {
                for job in shard.queue.drain_now() {
                    stats.bump(&stats.shed_drain_deadline, "serve.shed.drain_deadline");
                    let _ = job.reply.send(shed_line("drain_deadline", job.class));
                }
            }
            // In-flight work is never abandoned: wait it out.
            while shared.inflight.load(Ordering::SeqCst) > 0 {
                thread::sleep(Duration::from_millis(1));
            }
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    for shard in &shared.shards {
        shard.queue.close();
    }
    shared.state.store(STOPPED, Ordering::SeqCst);
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // Idle connections self-expire rather than pinning a thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    // The wire/2 greeting: version tag first, before reading anything.
    if writer
        .write_all(format!("{PROTOCOL_VERSION}\n").as_bytes())
        .is_err()
    {
        return;
    }
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(shared, &line);
        if writer.write_all(response.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            break;
        }
    }
}

fn handle_line(shared: &Arc<Shared>, line: &str) -> String {
    let stats = &shared.stats;
    match wire::parse_request(line, shared.config.machine.phys_pes) {
        Ok(Request::Ping) => "PONG".into(),
        Ok(Request::Stats) => stats_line(shared),
        Ok(Request::Shutdown) => {
            let _ = shared.state.compare_exchange(
                RUNNING,
                DRAINING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            "DRAINING".into()
        }
        Ok(Request::Parse { text, config }) => handle_parse(shared, text, *config),
        Err(err) => {
            stats.bump(&stats.proto_errors, "serve.proto_errors");
            err.render()
        }
    }
}

fn stats_line(shared: &Arc<Shared>) -> String {
    let s = shared.stats.snapshot();
    let n = |v: u64| v.to_string();
    render_fields(
        "STATS",
        &[
            ("requests", n(s.requests)),
            ("ok", n(s.ok)),
            ("degraded", n(s.degraded)),
            ("shed", n(s.shed_total())),
            ("timeouts", n(s.timeouts)),
            ("faults", n(s.faults)),
            ("errors", n(s.errors)),
            ("proto_errors", n(s.proto_errors)),
            ("retries", n(s.retries)),
            ("cache_hits", n(s.cache_hits)),
            ("cache_misses", n(s.cache_misses)),
            ("depth", shared.total_depth().to_string()),
            (
                "inflight",
                shared.inflight.load(Ordering::SeqCst).to_string(),
            ),
            ("draining", shared.draining().to_string()),
            ("shards", shared.shards.len().to_string()),
            ("bands", shared.plan.describe()),
            // New fields append at the end: clients (and the CI greps)
            // prefix-match this line.
            ("compile_hits", n(s.compile_hits)),
            ("compile_misses", n(s.compile_misses)),
            ("warm_reuses", n(s.warm_reuses)),
        ],
    )
}

fn shed_line(reason: &str, class: SloClass) -> String {
    render_fields(
        "SHED",
        &[
            ("reason", reason.to_string()),
            ("class", class.name().to_string()),
        ],
    )
}

/// The typed response of a request whose owning shard (or whole band)
/// died: a `DEGRADED` with the literal `shard` cause, counted in the
/// `degraded` ledger bucket so the three-way accounting identity holds.
fn shard_down_line(stats: &ServeStats, shard: usize, class: SloClass) -> String {
    stats.bump(&stats.degraded, "serve.degraded");
    render_fields(
        "DEGRADED",
        &[
            ("cause", "shard".to_string()),
            ("shard", shard.to_string()),
            ("class", class.name().to_string()),
        ],
    )
}

fn bump_shed(stats: &ServeStats, reason: &'static str) {
    match reason {
        "queue_full" => stats.bump(&stats.shed_queue_full, "serve.shed.queue_full"),
        "overload" => stats.bump(&stats.shed_overload, "serve.shed.overload"),
        "soft_watermark" => stats.bump(&stats.shed_soft_watermark, "serve.shed.soft_watermark"),
        "draining" => stats.bump(&stats.shed_draining, "serve.shed.draining"),
        _ => unreachable!("unmapped shed reason `{reason}`"),
    }
}

/// Admission: one typed response per `PARSE` line, produced here (cache
/// hit / shed / dead band) or by whoever inherits the job's reply channel.
fn handle_parse(shared: &Arc<Shared>, text: String, mut config: EngineConfig) -> String {
    let stats = &shared.stats;
    stats.bump(&stats.requests, "serve.requests");
    let class = config
        .class
        .unwrap_or_else(|| SloClass::from_budget(&config.budget));
    // Fault plans only run on the maspar engine — it is the only backend
    // with a fault model; the host engines reject plans outright.
    let engine_name = if config.faults.is_some() {
        "maspar".to_string()
    } else {
        config
            .engine
            .clone()
            .unwrap_or_else(|| shared.config.engine.clone())
    };
    if engine_for(&engine_name, &shared.config.machine).is_none() {
        stats.bump(&stats.errors, "serve.errors");
        return render_fields(
            "ERR",
            &[("proto", format!("unknown engine `{engine_name}`"))],
        );
    }
    // Drain takes precedence over everything, cache included: a draining
    // server owes nothing but typed rejections.
    if shared.draining() {
        bump_shed(stats, "draining");
        return shed_line("draining", class);
    }
    // Cache lookup before the watermarks: a hit costs no queue slot, which
    // is exactly what makes caching a load-shedding tool and not just a
    // latency one. Faulted requests bypass the cache entirely. `threads=`
    // sizes only a batch fan-out, which serve never runs, so it is left
    // out of the digest: requests that differ only there share an entry.
    let digest = if config.faults.is_none() && shared.config.cache_capacity > 0 {
        let threads = config.threads.take();
        let spec = config.encode();
        config.threads = threads;
        Some(request_digest(&engine_name, &text, &spec))
    } else {
        None
    };
    if let Some(d) = digest {
        let hit = shared.cache.lock().unwrap().get(d).map(ToString::to_string);
        if let Some(core) = hit {
            stats.bump(&stats.cache_hits, "serve.cache.hits");
            return format!("{core} cached=true retries=0 wall_us=0");
        }
    }
    // Route by sentence length: the band fixes the shard candidate set.
    let words = text.split_whitespace().count();
    let band = shared.plan.band_of(words);
    let mut candidates: Vec<&Shard> = shared
        .plan
        .shards_of(band)
        .iter()
        .map(|&id| &shared.shards[id])
        .filter(|s| s.is_alive())
        .collect();
    if candidates.is_empty() {
        // The whole band is dead: typed degradation, not silence. The
        // reported shard is the band's home shard.
        let home = shared.plan.shards_of(band).first().copied().unwrap_or(0);
        return shard_down_line(stats, home, class);
    }
    // Least-loaded first, both for the watermark check and the push.
    candidates.sort_by_key(|s| s.queue.depth());
    let depth = candidates[0].queue.depth();
    obsv::gauge_max("serve.queue_depth_peak", depth as f64);
    match decide(
        depth,
        shared.config.soft_watermark,
        shared.config.hard_watermark,
        shared.draining(),
        class,
    ) {
        Admit::Shed(reason) => {
            bump_shed(stats, reason);
            return shed_line(reason, class);
        }
        Admit::Accept => {}
    }
    let (reply, receipt) = mpsc::sync_channel(1);
    let now = Instant::now();
    let mut job = Job {
        text,
        config,
        class,
        engine_name,
        enqueued: now,
        deadline: now + class.queue_allowance(),
        digest,
        reply,
    };
    // Spill within the band: try shards in depth order; Full/Closed both
    // move to the next sibling (Closed = lost a race with a shard death).
    let mut saw_full = false;
    for shard in &candidates {
        match shard.queue.try_push(job) {
            Ok(depth_after) => {
                obsv::gauge_max("serve.queue_depth_peak", depth_after as f64);
                shard.note_depth(depth_after);
                // The job is queued: a worker, a dying shard's drain, or
                // the drain supervisor now owns the response. Blocking
                // here is what serializes one-request-one-response per
                // connection.
                return receipt.recv().unwrap_or_else(|_| {
                    render_fields("ERR", &[("proto", "reply channel dropped".to_string())])
                });
            }
            Err((back, PushError::Full)) => {
                saw_full = true;
                job = back;
            }
            Err((back, PushError::Closed)) => {
                job = back;
            }
        }
    }
    if saw_full {
        bump_shed(stats, "queue_full");
        return shed_line("queue_full", job.class);
    }
    if shared.draining() {
        bump_shed(stats, "draining");
        return shed_line("draining", job.class);
    }
    // Every sibling queue closed outside drain: the band died mid-route.
    let home = shared.plan.shards_of(band).first().copied().unwrap_or(0);
    shard_down_line(stats, home, job.class)
}

/// Shard worker: serves shard `id`, alone or beside the other workers of
/// a single-shard server. Pops the shard's queue with a short timeout,
/// steals from band siblings when idle, and executes the shard's
/// deterministic death when the shard-fault plan says so.
fn shard_worker(shared: &Arc<Shared>, id: usize) {
    let my = &shared.shards[id];
    let band = shared.plan.band_of_shard(id);
    let siblings: Vec<&Shard> = shared
        .plan
        .shards_of(band)
        .iter()
        .filter(|&&s| s != id)
        .map(|&s| &shared.shards[s])
        .collect();
    // Every worker resolves the artifact through the process-wide
    // registry — a hit, since `Server::start` already built it: one
    // artifact per grammar content hash, fleet-wide. The warm state
    // survives across the requests this worker services.
    let artifact = resolve_artifact(&shared.grammar, &shared.stats);
    debug_assert!(Arc::ptr_eq(&artifact, &shared.compiled));
    obsv::counter_add(my.series.compile_hits, 1);
    let mut warm = WarmState::new();
    loop {
        // Deterministic shard death: after the fault plan's request count,
        // mark dead, drain the queue to live siblings, and exit. The swap
        // lets exactly one of a shard's workers carry out the death; the
        // others find the queue closed and exit.
        if let Some(after) = my.fault_after {
            if my.serviced.load(Ordering::Relaxed) >= after
                && my.alive.swap(false, Ordering::SeqCst)
            {
                kill_shard(shared, my, &siblings);
                break;
            }
        }
        let (job, closed) = my.queue.pop_timeout(STEAL_TICK);
        let job = match job {
            Some(job) => job,
            None if closed => break,
            None => {
                // Own queue idle: steal one job from the deepest band
                // sibling.
                let victim = siblings
                    .iter()
                    .filter(|s| s.is_alive())
                    .max_by_key(|s| s.queue.depth());
                match victim.and_then(|v| v.queue.try_pop()) {
                    Some(job) => {
                        my.steals.fetch_add(1, Ordering::Relaxed);
                        obsv::counter_add(my.series.steals, 1);
                        job
                    }
                    None => continue,
                }
            }
        };
        run_job(shared, my, &mut warm, job);
    }
}

/// A dying shard's last act, once its liveness flag is down: re-home
/// every queued job to a live band sibling — or answer it `DEGRADED
/// cause=shard` if no sibling can take it. Typed responses all the way
/// down; the queue is closed so racing pushes spill at admission.
fn kill_shard(shared: &Shared, my: &Shard, siblings: &[&Shard]) {
    obsv::counter_add(my.series.deaths, 1);
    my.queue.close();
    for job in my.queue.drain_now() {
        let mut live: Vec<&&Shard> = siblings.iter().filter(|s| s.is_alive()).collect();
        live.sort_by_key(|s| s.queue.depth());
        let mut pending = Some(job);
        for sib in live {
            match sib.queue.try_push(pending.take().expect("job pending")) {
                Ok(depth_after) => {
                    sib.note_depth(depth_after);
                    my.rehomed.fetch_add(1, Ordering::Relaxed);
                    obsv::counter_add(my.series.rehomed, 1);
                    break;
                }
                Err((back, _)) => pending = Some(back),
            }
        }
        if let Some(job) = pending {
            let line = shard_down_line(&shared.stats, my.id, job.class);
            let _ = job.reply.send(line);
        }
    }
}

/// Service one job on this shard, keeping the in-flight gauge and the
/// shard's serviced clock.
fn run_job(shared: &Shared, shard: &Shard, warm: &mut WarmState, job: Job) {
    let inflight = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    obsv::gauge_max("serve.inflight_peak", inflight as f64);
    // Account the job as serviced before its reply is released: a client
    // that has read its response must also find it on the shard ledger
    // (replying first raced observers that snapshot fleet stats right after
    // the roundtrip).
    shard.serviced.fetch_add(1, Ordering::Relaxed);
    obsv::counter_add(shard.series.requests, 1);
    let response = service_job(shared, shard, warm, &job);
    // The connection may have hung up; the response is still fully
    // accounted either way.
    let _ = job.reply.send(response);
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
}

/// Run one admitted job to a response line. Deadline first: parsing for a
/// caller that already gave up would deepen the overload that delayed it.
fn service_job(shared: &Shared, shard: &Shard, warm: &mut WarmState, job: &Job) -> String {
    let stats = &shared.stats;
    let start = Instant::now();
    if start > job.deadline {
        stats.bump(&stats.timeouts, "serve.timeout");
        return render_fields(
            "TIMEOUT",
            &[
                ("class", job.class.name().to_string()),
                ("waited_ms", (start - job.enqueued).as_millis().to_string()),
            ],
        );
    }
    if !shared.config.service_delay.is_zero() {
        thread::sleep(shared.config.service_delay);
    }
    let sentence = match shared.lexicon.sentence(&job.text) {
        Ok(s) => s,
        Err(e) => {
            stats.bump(&stats.errors, "serve.errors");
            return render_fields("ERR", &[cause_field(&EngineError::from(e))]);
        }
    };
    let request = ParseRequest::with_config(&shared.grammar, &job.config)
        .sentence(sentence)
        .compiled(Arc::clone(&shared.compiled));
    if warm.parses() > 0 {
        stats.bump(&stats.warm_reuses, "serve.warm.reuses");
    }
    let engine = engine_for(&job.engine_name, &shared.config.machine)
        .expect("engine name validated at admission");
    let (result, retry_stats) = parse_with_retry(
        engine.as_ref(),
        &request,
        job.config.transient,
        &shared.config.retry,
        thread::sleep,
        warm,
    );
    if retry_stats.retries > 0 {
        stats
            .retries
            .fetch_add(retry_stats.retries, Ordering::Relaxed);
        obsv::counter_add("serve.retries", retry_stats.retries);
    }
    match result {
        Ok(mut report) => {
            // Aggregate the simulated machine's ledger into the shard: the
            // fleet's per-shard MachineStats and estimated-MP-1-seconds
            // come from here (maspar reports only; host engines are None).
            if let Some(ms) = &report.machine_stats {
                shard.machine.lock().unwrap().merge(ms);
            }
            if let Some(est) = report.estimated_seconds {
                shard.add_estimated_seconds(est);
            }
            let mut fields = vec![
                ("accepted", report.accepted.to_string()),
                ("ambiguous", report.ambiguous.to_string()),
                ("parses", report.parses.len().to_string()),
                ("passes", report.filter_passes.to_string()),
                ("engine", job.engine_name.clone()),
                ("class", job.class.name().to_string()),
            ];
            let status = match &report.degraded {
                Some(cause) => {
                    fields.push(cause_field(cause));
                    stats.bump(&stats.degraded, "serve.degraded");
                    "DEGRADED"
                }
                None => {
                    stats.bump(&stats.ok, "serve.ok");
                    "OK"
                }
            };
            let core = render_fields(status, &fields);
            if let Some(d) = job.digest {
                stats.bump(&stats.cache_misses, "serve.cache.misses");
                shared.cache.lock().unwrap().insert(d, core.clone());
            }
            // Response fully rendered: hand the network's allocations
            // back to this worker's warm state for the next request.
            warm.recycle_report(&mut report);
            format!(
                "{core} cached=false retries={} wall_us={}",
                retry_stats.retries,
                start.elapsed().as_micros()
            )
        }
        Err(e) if e.is_transient() => {
            stats.bump(&stats.faults, "serve.fault");
            let line = render_fields("FAULT", &[cause_field(&e)]);
            format!("{line} retries={}", retry_stats.retries)
        }
        Err(e) => {
            stats.bump(&stats.errors, "serve.errors");
            render_fields("ERR", &[cause_field(&e)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_loader_knows_the_shipped_grammars() {
        for name in ["paper", "english"] {
            let config = ServeConfig {
                grammar: name.into(),
                ..Default::default()
            };
            let (_, lex) = load_grammar(&config).unwrap();
            assert!(!lex.is_empty());
        }
        assert!(load_grammar(&ServeConfig {
            grammar: "klingon".into(),
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn server_rejects_bad_config_before_binding() {
        match Server::start(ServeConfig {
            engine: "abacus".into(),
            ..Default::default()
        }) {
            Err(err) => assert!(err.contains("unknown engine")),
            Ok(_) => panic!("bad engine name must fail fast"),
        }
        match Server::start(ServeConfig {
            shards: 2,
            shard_faults: vec![crate::fleet::ShardFault {
                shard: 5,
                after_requests: 1,
            }],
            ..Default::default()
        }) {
            Err(err) => assert!(err.contains("shard fault")),
            Ok(_) => panic!("out-of-range shard fault must fail fast"),
        }
    }
}
