//! Thread configuration and the chunked work-distribution engine.
//!
//! Execution model: a terminal operation splits its iterator into chunks
//! whose boundaries depend **only on the input length** (never on the
//! thread count), pushes them onto a [`ChunkQueue`], and lets a scoped
//! crew of `std::thread` workers claim chunks one at a time (dynamic
//! hand-off — a cheap stand-in for work stealing that load-balances the
//! same way for flat sweeps). Per-chunk results land in index-ordered
//! slots and are combined sequentially in chunk order, so the reduction
//! order — and therefore every result, bit for bit — is identical at any
//! thread count. That is the workspace determinism contract.
//!
//! Thread count resolution: the width of the [`ThreadPool`] whose
//! [`ThreadPool::install`] the calling thread is inside > the
//! [`set_num_threads`] override (tests, the CLI `--threads` flag) > the
//! `RAYON_NUM_THREADS` environment variable (read once) >
//! `std::thread::available_parallelism()`.
//!
//! Nested parallel iterators inside a worker run sequentially (same chunk
//! order, so still deterministic) instead of spawning threads under
//! threads; `std::thread::scope` propagates worker panics to the caller.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on chunks per terminal operation. A constant (not a
/// function of the thread count!) so chunk boundaries are reproducible
/// on any machine; large enough that claim-based hand-off balances load
/// across every plausible core count.
pub(crate) const MAX_CHUNKS: usize = 32;

/// Runtime override set by [`set_num_threads`]; 0 = no override.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The width a pool gets when none is asked for: `RAYON_NUM_THREADS`,
/// else `available_parallelism()`. Read once, as rayon fixes its global
/// pool's width when it builds the pool: `available_parallelism` reads the
/// CPU affinity and cgroup quota on every call.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1)
    })
}

/// Effective worker count for parallel execution. Mirrors
/// `rayon::current_num_threads`: inside [`ThreadPool::install`] it is that
/// pool's width.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED.with(Cell::get);
    if installed > 0 {
        return installed;
    }
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    default_threads()
}

/// Override the worker count at runtime (0 restores the
/// `RAYON_NUM_THREADS` / `available_parallelism` default). The
/// determinism contract makes this safe to flip mid-program: results are
/// byte-identical at every thread count, only wall-clock changes. The
/// override is process-wide; a library call that wants its own width for
/// one operation uses [`ThreadPool::install`] instead.
pub fn set_num_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Mirrors `rayon::ThreadPoolBuilder`: `new().num_threads(n).build()`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// The pool's width; 0 (the default) means `RAYON_NUM_THREADS`, else
    /// `available_parallelism()`.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Never fails here (the shim starts its threads per operation); the
    /// `Result` keeps call sites source-compatible with rayon.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => default_threads(),
            n => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// Mirrors `rayon::ThreadPoolBuildError`.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

/// Mirrors `rayon::ThreadPool`: a width that parallel operations run at
/// while [`ThreadPool::install`] runs, without touching the process-wide
/// [`set_num_threads`] override.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `op` on the calling thread with this pool's width; the width
    /// the thread had before comes back when `op` returns or unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|i| i.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED.with(|i| i.replace(self.threads)));
        op()
    }

    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

thread_local! {
    /// The width of the pool installed on this thread; 0 outside
    /// [`ThreadPool::install`].
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
    /// Non-zero while the current thread is a pool worker; nested
    /// parallel operations then execute sequentially.
    static POOL_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Is the current thread already inside a parallel worker?
pub(crate) fn in_worker() -> bool {
    POOL_DEPTH.with(|d| d.get() > 0)
}

struct DepthGuard;

impl DepthGuard {
    fn enter() -> Self {
        POOL_DEPTH.with(|d| d.set(d.get() + 1));
        DepthGuard
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        POOL_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Number of chunks a `len`-item sweep splits into: a pure function of
/// `len` only — the anchor of the byte-identical-at-any-thread-count
/// guarantee.
pub(crate) fn chunk_count(len: usize) -> usize {
    len.clamp(1, MAX_CHUNKS)
}

/// The chunk hand-off structure: an atomic cursor over index-ordered
/// chunk slots. Workers claim the next unclaimed chunk; `fetch_add`
/// hands every index to exactly one claimant. Factored out (and `pub`)
/// so the interleaving tests can drive `claim` directly.
pub struct ChunkQueue<P> {
    slots: Vec<Mutex<Option<P>>>,
    next: AtomicUsize,
}

impl<P> ChunkQueue<P> {
    pub fn new(chunks: Vec<P>) -> Self {
        ChunkQueue {
            slots: chunks.into_iter().map(|c| Mutex::new(Some(c))).collect(),
            next: AtomicUsize::new(0),
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Claim the next chunk, or `None` when all are handed out. Each
    /// chunk index is returned to exactly one caller, in ascending order
    /// of claim time.
    pub fn claim(&self) -> Option<(usize, P)> {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.slots.len() {
                // Park the cursor so repeated polling cannot overflow.
                self.next.store(self.slots.len(), Ordering::Relaxed);
                return None;
            }
            let taken = self.slots[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            // `fetch_add` makes a double-claim impossible in pool use;
            // the defensive skip keeps externally-driven queues safe.
            if let Some(p) = taken {
                return Some((i, p));
            }
        }
    }
}

/// Run `work` over every chunk and return the per-chunk results in chunk
/// order. Parallel when more than one worker is available and the caller
/// is not already a pool worker; the sequential path visits the *same*
/// chunks in the *same* order, so results are identical either way.
pub(crate) fn run_chunks<P, R, F>(chunks: Vec<P>, work: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    let n = chunks.len();
    let workers = current_num_threads().min(n);
    if workers <= 1 || in_worker() {
        return chunks
            .into_iter()
            .enumerate()
            .map(|(i, p)| work(i, p))
            .collect();
    }

    let queue = ChunkQueue::new(chunks);
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker_loop = || {
        let _guard = DepthGuard::enter();
        while let Some((i, p)) = queue.claim() {
            let r = work(i, p);
            *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        }
    };
    // The calling thread is crew member #0; a panic on any spawned
    // worker is re-raised by `scope` after all threads are joined.
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(worker_loop);
        }
        worker_loop();
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every claimed chunk produced a result")
        })
        .collect()
}

/// Parallel `rayon::join`: runs `b` on a scoped thread while the calling
/// thread runs `a`; sequential when single-threaded or already inside a
/// worker. Panics from either closure propagate.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 || in_worker() {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    std::thread::scope(|s| {
        let hb = s.spawn(|| {
            let _guard = DepthGuard::enter();
            b()
        });
        let ra = a();
        let rb = hb
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        (ra, rb)
    })
}
