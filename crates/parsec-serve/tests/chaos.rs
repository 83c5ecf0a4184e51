//! Chaos suite: the server under deliberate abuse — sustained overload,
//! queue-deadline starvation, seeded fault storms, and drain with work
//! still queued. Each test pins the robustness contract:
//!
//! * no hangs — every client read completes (the util client enforces a
//!   read timeout, so a wedged server fails loudly);
//! * bounded memory — the queue-depth high-water mark never exceeds the
//!   configured capacity;
//! * exact accounting — client-observed response tallies equal the
//!   [`parsec_serve::ServeStats`] ledger equal the mirrored `obsv`
//!   counters, and every `PARSE` line lands in exactly one bucket;
//! * recovery — once the storm passes, fresh requests parse normally;
//! * drain never drops — every admitted request is answered, by a worker
//!   or by a typed drain-deadline shed.
//!
//! The obsv registry is process-global, so every test here serializes on
//! one mutex; the suite runs in its own test binary, isolated from other
//! processes' registries by construction.

mod util;

use maspar_sim::MachineConfig;
use parsec_maspar::RetryPolicy;
use parsec_serve::server::Server;
use parsec_serve::{ServeConfig, StatsSnapshot};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};
use util::{field, Client};

static OBSV_LOCK: Mutex<()> = Mutex::new(());

/// Take the registry lock (surviving another test's panic) and arm a
/// fresh metrics registry for the duration.
fn armed_registry() -> MutexGuard<'static, ()> {
    let guard = OBSV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::reset_metrics();
    obsv::set_metrics(true);
    guard
}

/// Assert the three ledgers agree: obsv mirror == ServeStats ground truth.
/// (Client-side tallies are compared against ServeStats by each test.)
fn assert_obsv_mirror(stats: &StatsSnapshot) {
    let snap = obsv::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let pairs = [
        ("serve.connections", stats.connections),
        ("serve.requests", stats.requests),
        ("serve.ok", stats.ok),
        ("serve.degraded", stats.degraded),
        ("serve.shed.queue_full", stats.shed_queue_full),
        ("serve.shed.overload", stats.shed_overload),
        ("serve.shed.soft_watermark", stats.shed_soft_watermark),
        ("serve.shed.draining", stats.shed_draining),
        ("serve.shed.drain_deadline", stats.shed_drain_deadline),
        ("serve.shed.connections", stats.shed_connections),
        ("serve.timeout", stats.timeouts),
        ("serve.fault", stats.faults),
        ("serve.errors", stats.errors),
        ("serve.proto_errors", stats.proto_errors),
        ("serve.retries", stats.retries),
        ("serve.cache.hits", stats.cache_hits),
        ("serve.cache.misses", stats.cache_misses),
    ];
    for (name, ground_truth) in pairs {
        assert_eq!(
            counter(name),
            ground_truth,
            "obsv `{name}` disagrees with the ServeStats ledger"
        );
    }
}

#[test]
fn overload_storm_sheds_accounts_exactly_and_recovers() {
    let _guard = armed_registry();
    let config = ServeConfig {
        grammar: "english".into(),
        engine: "serial".into(),
        workers: 2,
        queue_capacity: 4,
        soft_watermark: 2,
        hard_watermark: 3,
        cache_capacity: 0, // every request must reach admission
        service_delay: Duration::from_millis(20),
        max_connections: 128,
        ..Default::default()
    };
    let queue_capacity = config.queue_capacity;
    let handle = Server::start(config).unwrap();
    let addr = handle.addr();

    // 16 clients × 4 requests against 2 workers and a 4-slot queue:
    // far past 4× the service capacity for the storm's duration. The
    // nightly CI soak widens the storm via CHAOS_STORM_CLIENTS; the
    // accounting invariants below are storm-size independent.
    let clients: usize = std::env::var("CHAOS_STORM_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    const PER_CLIENT: usize = 4;
    let tallies: Vec<BTreeMap<String, u64>> = (0..clients)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut tally = BTreeMap::new();
                for _ in 0..PER_CLIENT {
                    // Standard class: 500 ms of queue allowance, so a
                    // 4-deep queue at 20 ms/job cannot time out — every
                    // response is OK or a watermark/queue shed.
                    let (status, fields) = client.roundtrip("PARSE class=standard -- the dog runs");
                    let key = if status == "SHED" {
                        format!("SHED:{}", field(&fields, "reason"))
                    } else {
                        status
                    };
                    *tally.entry(key).or_insert(0) += 1;
                }
                tally
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    let mut seen: BTreeMap<String, u64> = BTreeMap::new();
    for tally in &tallies {
        for (status, n) in tally {
            *seen.entry(status.clone()).or_insert(0) += n;
        }
    }
    let total: u64 = seen.values().sum();
    assert_eq!(
        total,
        (clients * PER_CLIENT) as u64,
        "every request got exactly one response: {seen:?}"
    );

    // Client-observed tallies == server ledger, bucket by bucket.
    let mid = handle.stats();
    assert_eq!(mid.requests, total);
    assert_eq!(mid.ok, seen.get("OK").copied().unwrap_or(0));
    assert_eq!(
        mid.shed_overload,
        seen.get("SHED:overload").copied().unwrap_or(0)
    );
    assert_eq!(
        mid.shed_soft_watermark,
        seen.get("SHED:soft_watermark").copied().unwrap_or(0)
    );
    assert_eq!(
        mid.shed_queue_full,
        seen.get("SHED:queue_full").copied().unwrap_or(0)
    );
    assert_eq!(mid.timeouts, seen.get("TIMEOUT").copied().unwrap_or(0));
    assert_eq!(mid.parse_responses(), mid.requests);
    assert!(
        mid.shed_total() > 0,
        "a 4x overload against a 4-slot queue must shed: {mid:?}"
    );
    assert!(mid.ok > 0, "admission must not starve everyone: {mid:?}");

    // Bounded memory: the queue's high-water mark respected its capacity.
    let peak = obsv::snapshot()
        .gauge("serve.queue_depth_peak")
        .unwrap_or(0.0);
    assert!(
        peak <= queue_capacity as f64,
        "queue depth peaked at {peak}, capacity {queue_capacity}"
    );

    // Recovery: the storm has passed, a fresh request parses normally.
    let mut after = Client::connect(addr);
    let (status, fields) = after.roundtrip("PARSE class=standard -- the dog runs");
    assert_eq!(status, "OK", "server must recover once load drops");
    assert_eq!(field(&fields, "accepted"), "true");

    let stats = handle.shutdown();
    assert_eq!(stats.requests, total + 1);
    assert_eq!(stats.parse_responses(), stats.requests);
    assert_obsv_mirror(&stats);
    obsv::set_metrics(false);
}

#[test]
fn interactive_deadlines_time_out_under_starvation() {
    let _guard = armed_registry();
    let handle = Server::start(ServeConfig {
        grammar: "english".into(),
        workers: 1,
        queue_capacity: 8,
        soft_watermark: 8,
        hard_watermark: 8,
        cache_capacity: 0,
        // One worker at 150 ms/job against a 50 ms interactive allowance:
        // whoever queues behind the first job misses its deadline.
        service_delay: Duration::from_millis(150),
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    let statuses: Vec<(String, Vec<(String, String)>)> = (0..3)
        .map(|_| {
            thread::spawn(move || {
                Client::connect(addr).roundtrip("PARSE class=interactive -- the dog runs")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    let ok = statuses.iter().filter(|(s, _)| s == "OK").count();
    let timeouts: Vec<_> = statuses.iter().filter(|(s, _)| s == "TIMEOUT").collect();
    assert_eq!(ok + timeouts.len(), 3, "unexpected statuses: {statuses:?}");
    assert!(ok >= 1, "the first job off the queue meets its deadline");
    assert!(
        !timeouts.is_empty(),
        "starved interactive jobs must time out"
    );
    for (_, fields) in &timeouts {
        assert_eq!(field(fields, "class"), "interactive");
        let waited: u64 = field(fields, "waited_ms").parse().unwrap();
        assert!(waited >= 50, "timed out before the allowance? {waited}ms");
    }

    let stats = handle.shutdown();
    assert_eq!(stats.timeouts, timeouts.len() as u64);
    assert_eq!(stats.ok, ok as u64);
    assert_eq!(stats.parse_responses(), stats.requests);
    assert_obsv_mirror(&stats);
    obsv::set_metrics(false);
}

#[test]
fn fault_storm_retry_accounting_is_exact() {
    let _guard = armed_registry();
    let handle = Server::start(ServeConfig {
        grammar: "paper".into(),
        workers: 2,
        machine: MachineConfig {
            phys_pes: 4,
            ..Default::default()
        },
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr());

    // Seeded storm: the same dead-array plan, transient for four requests
    // (clears after attempt 0, so one retry rescues each) and persistent
    // for three (exhausts all three attempts).
    let mut client_retries = 0u64;
    for _ in 0..4 {
        let (status, fields) = client
            .roundtrip("PARSE faults=dead=0,dead=1,dead=2,dead=3 transient=1 -- the program runs");
        assert_eq!(status, "OK");
        client_retries += field(&fields, "retries").parse::<u64>().unwrap();
    }
    for _ in 0..3 {
        let (status, fields) =
            client.roundtrip("PARSE faults=dead=0,dead=1,dead=2,dead=3 -- the program runs");
        assert_eq!(status, "FAULT");
        client_retries += field(&fields, "retries").parse::<u64>().unwrap();
    }

    let stats = handle.shutdown();
    assert_eq!(stats.requests, 7);
    assert_eq!(stats.ok, 4);
    assert_eq!(stats.faults, 3);
    // 4 rescued × 1 retry + 3 exhausted × 2 retries, client == ledger.
    assert_eq!(client_retries, 10);
    assert_eq!(stats.retries, client_retries);
    // Faulted requests never touch the cache.
    assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    assert_eq!(stats.parse_responses(), stats.requests);
    assert_obsv_mirror(&stats);
    obsv::set_metrics(false);
}

#[test]
fn fleet_shard_death_mid_storm_shutdown_accounts_exactly() {
    // Satellite of the fleet tentpole: a shard-fault plan kills shard 0
    // mid-storm, then a wire SHUTDOWN pulls the plug while requests are
    // still in flight. The contract is unchanged from the single-queue
    // server: every PARSE line gets exactly one typed response (the dead
    // shard's unroutable leftovers become `DEGRADED cause=shard`, never
    // silence), and the three ledgers — client tallies, ServeStats, obsv —
    // agree bucket for bucket. The nightly soak widens the fleet via
    // CHAOS_FLEET_SHARDS.
    let _guard = armed_registry();
    let shards: usize = std::env::var("CHAOS_FLEET_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let handle = Server::start(ServeConfig {
        grammar: "english".into(),
        workers: 1,
        shards,
        bands: parsec_serve::BandSpec::Count(1), // one band: all shards are siblings
        queue_capacity: 8,
        soft_watermark: 8,
        hard_watermark: 8,
        cache_capacity: 0,
        service_delay: Duration::from_millis(15),
        drain_deadline: Duration::from_millis(300),
        shard_faults: vec![parsec_serve::ShardFault {
            shard: 0,
            after_requests: 5,
        }],
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 6;
    let storm: Vec<_> = (0..CLIENTS)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut tally = BTreeMap::new();
                for _ in 0..PER_CLIENT {
                    let (status, fields) = client.roundtrip("PARSE class=standard -- the dog runs");
                    let key = match status.as_str() {
                        "SHED" => format!("SHED:{}", field(&fields, "reason")),
                        "DEGRADED" => format!("DEGRADED:{}", field(&fields, "cause")),
                        other => other.to_string(),
                    };
                    *tally.entry(key).or_insert(0u64) += 1;
                }
                tally
            })
        })
        .collect();

    // Wait for the fault plan to fire, then SHUTDOWN over the wire while
    // the storm is still running.
    let started = Instant::now();
    while handle.fleet_stats()[0].alive {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "shard 0 never died: {:?}",
            handle.fleet_stats()
        );
        thread::sleep(Duration::from_millis(2));
    }
    let mut killer = Client::connect(addr);
    assert_eq!(killer.request("SHUTDOWN"), "DRAINING");

    let mut seen: BTreeMap<String, u64> = BTreeMap::new();
    for t in storm {
        for (status, n) in t.join().expect("client thread") {
            *seen.entry(status).or_insert(0) += n;
        }
    }
    let total: u64 = seen.values().sum();
    assert_eq!(
        total,
        (CLIENTS * PER_CLIENT) as u64,
        "every request got exactly one response: {seen:?}"
    );

    // Per-shard snapshots must be taken AFTER the drain completes —
    // between a live `fleet_stats()` peek and the last worker exiting, a
    // survivor can service one more job and the ledgers would disagree by
    // exactly that job. `join_full` returns the quiescent counters.
    let (stats, fleet) = handle.join_full();

    // Survivor shards kept the band alive through the death (worker exit
    // at drain does not flip `alive`; only the fault plan does).
    assert!(!fleet[0].alive, "shard 0 must stay dead");
    assert!(fleet.iter().skip(1).any(|s| s.alive));
    assert!(
        fleet.iter().map(|s| s.serviced).sum::<u64>() > 0,
        "the fleet serviced work: {fleet:?}"
    );

    // Client tallies == ServeStats, bucket by bucket.
    assert_eq!(stats.requests, total);
    assert_eq!(stats.ok, seen.get("OK").copied().unwrap_or(0));
    let degraded: u64 = seen
        .iter()
        .filter(|(k, _)| k.starts_with("DEGRADED:"))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(stats.degraded, degraded);
    assert_eq!(
        stats.shed_draining,
        seen.get("SHED:draining").copied().unwrap_or(0)
    );
    assert_eq!(
        stats.shed_drain_deadline,
        seen.get("SHED:drain_deadline").copied().unwrap_or(0)
    );
    assert_eq!(stats.timeouts, seen.get("TIMEOUT").copied().unwrap_or(0));
    assert_eq!(stats.parse_responses(), stats.requests);

    // ...and == the obsv mirror, including the fleet series.
    assert_obsv_mirror(&stats);
    let snap = obsv::snapshot();
    assert_eq!(
        snap.counter("fleet.shard.0.deaths"),
        Some(1),
        "the death is observable"
    );
    let shard_requests: u64 = (0..shards)
        .map(|k| {
            snap.counter(&format!("fleet.shard.{k}.requests"))
                .unwrap_or(0)
        })
        .sum();
    let fleet_serviced: u64 = fleet.iter().map(|s| s.serviced).sum();
    assert_eq!(shard_requests, fleet_serviced);
    obsv::set_metrics(false);
}

#[test]
fn drain_flushes_in_flight_and_sheds_queued_at_deadline() {
    let _guard = armed_registry();
    let handle = Server::start(ServeConfig {
        grammar: "english".into(),
        workers: 1,
        queue_capacity: 8,
        soft_watermark: 8,
        hard_watermark: 8,
        cache_capacity: 0,
        // The in-flight job (300 ms) outlives the drain deadline (100 ms):
        // drain must wait for it while shedding everything still queued.
        service_delay: Duration::from_millis(300),
        drain_deadline: Duration::from_millis(100),
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 4;
    let receivers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            thread::spawn(move || {
                Client::connect(addr).roundtrip("PARSE class=standard -- the dog runs")
            })
        })
        .collect();

    // Wait until one job is in flight and the rest are queued, then pull
    // the plug mid-storm.
    let admitted_at = Instant::now();
    while handle.stats().requests < CLIENTS as u64 || handle.queue_depth() < CLIENTS - 1 {
        assert!(
            admitted_at.elapsed() < Duration::from_secs(10),
            "requests never queued: {:?}",
            handle.stats()
        );
        thread::sleep(Duration::from_millis(2));
    }
    handle.begin_drain();

    // Zero dropped: every admitted request still gets its one response.
    let statuses: Vec<(String, Vec<(String, String)>)> = receivers
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let ok = statuses.iter().filter(|(s, _)| s == "OK").count();
    let shed: Vec<_> = statuses.iter().filter(|(s, _)| s == "SHED").collect();
    assert_eq!(ok, 1, "exactly the in-flight job completes: {statuses:?}");
    assert_eq!(shed.len(), CLIENTS - 1, "queued jobs shed at the deadline");
    for (_, fields) in &shed {
        assert_eq!(field(fields, "reason"), "drain_deadline");
    }

    // join() returns only after the drain supervisor has flushed
    // everything; the queue must be empty and fully accounted.
    let stats = handle.join();
    assert_eq!(stats.requests, CLIENTS as u64);
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.shed_drain_deadline, (CLIENTS - 1) as u64);
    assert_eq!(stats.parse_responses(), stats.requests);
    assert_obsv_mirror(&stats);
    obsv::set_metrics(false);
}
