//! Parse-as-a-service: a long-running front-end around the [`Engine`] API.
//!
//! The engines parse one request at a time and return typed results; this
//! crate is everything *around* that call which a service deployment needs
//! and which the paper's batch-oriented reproduction previously lacked:
//!
//! * a **line protocol** over TCP ([`wire`]): `PARSE [k=v ...] -- <text>`
//!   in, exactly one status line (`OK`/`DEGRADED`/`SHED`/`TIMEOUT`/
//!   `FAULT`/`ERR`) out, with engine errors carried in the stable
//!   [`cdg_core::wire`] encoding;
//! * a **bounded MPMC queue** ([`queue`]) between connection handlers and
//!   a fixed worker pool — the service's only elastic buffer, so memory
//!   stays bounded no matter the offered load;
//! * **admission control** ([`admission`]): each request's
//!   [`cdg_core::ParseBudget`] is converted into an SLO class and a queue
//!   deadline at the door, and watermark-based **load shedding** rejects
//!   work *early* (cheap typed `SHED` responses) instead of letting the
//!   queue melt down;
//! * capped deterministic **retry** of transient faults via
//!   [`parsec_maspar::retry`];
//! * a digest-keyed bounded **response cache** ([`cache`]);
//! * **graceful drain** ([`server`]): stop accepting, flush the queue
//!   under a drain deadline (late jobs get typed `SHED` responses, never
//!   silence), then report final statistics.
//!
//! Everything is std-only — `std::net::TcpListener` plus worker threads —
//! in keeping with the workspace's offline dependency policy.
//!
//! The ground truth for accounting is [`ServeStats`] (lock-free atomics);
//! every event is mirrored into the `obsv` metrics registry under
//! `serve.*` names when metrics are armed, and the chaos suite asserts the
//! two ledgers agree exactly.

pub mod admission;
pub mod cache;
pub mod fleet;
pub mod queue;
pub mod server;
pub mod signal;
pub mod wire;

pub use admission::{decide, Admit, SloClass};
pub use cache::ResponseCache;
pub use fleet::{Band, BandPlan, BandSpec, ShardFault};
pub use queue::Bounded;
pub use server::{Server, ServerHandle, ShardSnapshot};
pub use wire::{
    parse_request, render_fields, split_response, Request, WireError, PROTOCOL_VERSION,
};

use cdg_core::api::Engine;
use maspar_sim::MachineConfig;
use parsec_maspar::RetryPolicy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Everything the server needs to run, with defaults suitable for the
/// shipped grammars. Tests shrink the queue/watermarks to force shedding
/// and inject `service_delay` to create overload deterministically.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the handle reports it).
    pub addr: String,
    /// Grammar name (`paper` | `english`) or a `.cdg` file path.
    pub grammar: String,
    /// Default engine for requests that don't override it
    /// (`serial` | `pram` | `maspar`). Requests carrying a fault plan
    /// always run on the maspar engine — it is the only one with a fault
    /// model.
    pub engine: String,
    /// Worker threads sharing the queue when `shards == 1`; a fleet runs
    /// one worker per shard.
    pub workers: usize,
    /// Queue capacity; a full queue sheds with `reason=queue_full`.
    pub queue_capacity: usize,
    /// Depth at which Batch-class requests are shed (`reason=soft_watermark`).
    pub soft_watermark: usize,
    /// Depth at which every request is shed (`reason=overload`).
    pub hard_watermark: usize,
    /// Response cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// How long drain waits for queued work before shedding the remainder.
    pub drain_deadline: Duration,
    /// Maximum simultaneous connections; excess connections receive one
    /// `SHED reason=connections` line and are closed.
    pub max_connections: usize,
    /// Artificial per-request service time, for overload tests and the
    /// bench scenario (zero in production).
    pub service_delay: Duration,
    /// Machine shape for the maspar engine (tests shrink it so fault plans
    /// can kill the whole array).
    pub machine: MachineConfig,
    /// Retry policy for transient engine failures.
    pub retry: RetryPolicy,
    /// Independent simulated machines, each with its bounded queue
    /// (capacity `queue_capacity` each), requests routed by the
    /// [`fleet::BandPlan`] and work stealing confined to band siblings.
    /// `1` (the default) runs `workers` threads on the one shard; with
    /// more shards each shard has one worker thread.
    pub shards: usize,
    /// How the fleet cuts sentence lengths into bands (never more bands
    /// than shards).
    pub bands: fleet::BandSpec,
    /// Deterministic shard-death injections, for the chaos suite: shard
    /// `k` dies after servicing `after_requests` requests, drains its
    /// queue to band siblings, and answers anything unroutable with
    /// `DEGRADED cause=shard`.
    pub shard_faults: Vec<fleet::ShardFault>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            grammar: "english".into(),
            engine: "serial".into(),
            workers: 4,
            queue_capacity: 64,
            soft_watermark: 48,
            hard_watermark: 60,
            cache_capacity: 256,
            drain_deadline: Duration::from_secs(2),
            max_connections: 64,
            service_delay: Duration::ZERO,
            machine: MachineConfig::default(),
            retry: RetryPolicy::default(),
            shards: 1,
            bands: fleet::BandSpec::Auto,
            shard_faults: Vec::new(),
        }
    }
}

/// Engine instance for one stable name, with the configured machine shape.
/// Returns `None` for unknown names. Workers construct one per request:
/// the engines hold only options (the MasPar engine's simulated array is
/// per thread), so nothing here needs to be shared.
pub fn engine_for(name: &str, machine: &MachineConfig) -> Option<Box<dyn Engine>> {
    match name {
        "serial" => Some(Box::new(cdg_core::api::Sequential)),
        "pram" => Some(Box::new(cdg_parallel::Pram)),
        "maspar" => Some(Box::new(parsec_maspar::Maspar {
            machine: machine.clone(),
        })),
        _ => None,
    }
}

/// Lock-free event ledger — the service's ground truth. The obsv registry
/// mirrors these under `serve.*`; [`ServerHandle::stats`] snapshots them.
#[derive(Debug, Default)]
pub struct ServeStats {
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub ok: AtomicU64,
    pub degraded: AtomicU64,
    pub shed_queue_full: AtomicU64,
    pub shed_overload: AtomicU64,
    pub shed_soft_watermark: AtomicU64,
    pub shed_draining: AtomicU64,
    pub shed_drain_deadline: AtomicU64,
    pub shed_connections: AtomicU64,
    pub timeouts: AtomicU64,
    pub faults: AtomicU64,
    /// Typed engine/lexicon errors on admitted requests.
    pub errors: AtomicU64,
    /// Malformed lines that never became a request (unknown verb, bad
    /// option syntax) — answered with `ERR proto=`, but not counted as
    /// parse requests.
    pub proto_errors: AtomicU64,
    pub retries: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    /// Compiled-grammar artifact registry hits (worker resolves that found
    /// the artifact already built). Not a parse-response bucket.
    pub compile_hits: AtomicU64,
    /// Registry misses — artifact builds. Exactly one per distinct grammar
    /// content hash for the process lifetime.
    pub compile_misses: AtomicU64,
    /// Requests served on an already-warm worker state (pool/scratch
    /// buffers carried over from a previous request).
    pub warm_reuses: AtomicU64,
}

/// A plain-number copy of [`ServeStats`], for assertions and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub connections: u64,
    pub requests: u64,
    pub ok: u64,
    pub degraded: u64,
    pub shed_queue_full: u64,
    pub shed_overload: u64,
    pub shed_soft_watermark: u64,
    pub shed_draining: u64,
    pub shed_drain_deadline: u64,
    pub shed_connections: u64,
    pub timeouts: u64,
    pub faults: u64,
    pub errors: u64,
    pub proto_errors: u64,
    pub retries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub compile_hits: u64,
    pub compile_misses: u64,
    pub warm_reuses: u64,
}

impl ServeStats {
    /// Bump a ledger field and its obsv mirror. The `name` doubles as the
    /// metrics-registry key.
    pub fn bump(&self, field: &AtomicU64, name: &'static str) {
        field.fetch_add(1, Ordering::Relaxed);
        obsv::counter_add(name, 1);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            connections: g(&self.connections),
            requests: g(&self.requests),
            ok: g(&self.ok),
            degraded: g(&self.degraded),
            shed_queue_full: g(&self.shed_queue_full),
            shed_overload: g(&self.shed_overload),
            shed_soft_watermark: g(&self.shed_soft_watermark),
            shed_draining: g(&self.shed_draining),
            shed_drain_deadline: g(&self.shed_drain_deadline),
            shed_connections: g(&self.shed_connections),
            timeouts: g(&self.timeouts),
            faults: g(&self.faults),
            errors: g(&self.errors),
            proto_errors: g(&self.proto_errors),
            retries: g(&self.retries),
            cache_hits: g(&self.cache_hits),
            cache_misses: g(&self.cache_misses),
            compile_hits: g(&self.compile_hits),
            compile_misses: g(&self.compile_misses),
            warm_reuses: g(&self.warm_reuses),
        }
    }
}

impl StatsSnapshot {
    /// Every shed, regardless of reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_overload
            + self.shed_soft_watermark
            + self.shed_draining
            + self.shed_drain_deadline
            + self.shed_connections
    }

    /// Typed responses owed to admitted-or-rejected *parse* requests:
    /// every well-formed `PARSE` line must land in exactly one of these
    /// buckets, so this always equals [`Self::requests`]. Connection-level
    /// sheds and protocol errors are accounted separately — those lines
    /// never became parse requests.
    pub fn parse_responses(&self) -> u64 {
        self.ok + self.degraded + self.shed_total() - self.shed_connections
            + self.timeouts
            + self.faults
            + self.errors
            + self.cache_hits
    }

    /// The final `serve:` summary line printed at drain.
    pub fn render_final(&self) -> String {
        format!(
            "serve: {} request(s) on {} connection(s) — {} ok, {} degraded, {} shed \
             (full={} overload={} soft={} draining={} drain_deadline={} conns={}), \
             {} timeout(s), {} fault(s), {} error(s), {} proto error(s), \
             {} retry(ies), cache {}/{}, compile {}h/{}m, warm {}",
            self.requests,
            self.connections,
            self.ok,
            self.degraded,
            self.shed_total(),
            self.shed_queue_full,
            self.shed_overload,
            self.shed_soft_watermark,
            self.shed_draining,
            self.shed_drain_deadline,
            self.shed_connections,
            self.timeouts,
            self.faults,
            self.errors,
            self.proto_errors,
            self.retries,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.compile_hits,
            self.compile_misses,
            self.warm_reuses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_factory_matches_the_cli_names() {
        let machine = MachineConfig::default();
        for name in ["serial", "pram", "maspar"] {
            assert_eq!(engine_for(name, &machine).unwrap().name(), name);
        }
        assert!(engine_for("abacus", &machine).is_none());
    }

    #[test]
    fn stats_ledger_counts_and_totals() {
        let stats = ServeStats::default();
        stats.bump(&stats.requests, "serve.requests");
        stats.bump(&stats.ok, "serve.ok");
        stats.bump(&stats.shed_overload, "serve.shed.overload");
        stats.bump(&stats.timeouts, "serve.timeout");
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.shed_total(), 1);
        assert_eq!(snap.parse_responses(), 3);
        assert!(snap.render_final().contains("1 request(s)"));
    }
}
