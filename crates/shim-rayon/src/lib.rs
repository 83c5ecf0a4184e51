//! Offline stand-in for [rayon](https://crates.io/crates/rayon) — now with
//! **real multi-core execution**.
//!
//! The build environment for this repository has no access to crates.io,
//! so the workspace vendors the *API surface* it actually uses. Earlier
//! revisions of this shim returned sequential standard-library iterators;
//! this revision executes `par_iter`-family pipelines on a chunked
//! `std::thread` crew (see [`pool`]) while keeping every call site
//! source-compatible with the real crate, so swapping genuine rayon back
//! in remains a one-line `Cargo.toml` change.
//!
//! Two properties the workspace depends on:
//!
//! * **Determinism.** Chunk boundaries are a pure function of the input
//!   length, per-chunk results are combined in chunk order, and mutable
//!   items are partitioned disjointly across workers — so every pipeline
//!   produces byte-identical results at any thread count (including 1),
//!   matching the guarantee documented in `maspar-sim` and relied on by
//!   the engine-equivalence suites.
//! * **Panic propagation.** A panic inside a worker is re-raised on the
//!   calling thread by `std::thread::scope`, like rayon.
//!
//! Thread count: `RAYON_NUM_THREADS` (read once), overridable at runtime
//! with [`set_num_threads`] (the CLI's `--threads` flag and the
//! determinism tests use this); default `available_parallelism()`. A
//! [`ThreadPool`] from [`ThreadPoolBuilder`] sets the width for the
//! operations inside its [`ThreadPool::install`] alone.
//! Nested parallel operations inside a worker run sequentially rather
//! than spawning threads under threads.

pub mod iter;
pub mod pool;

pub use pool::{
    current_num_threads, join, set_num_threads, ChunkQueue, ThreadPool, ThreadPoolBuildError,
    ThreadPoolBuilder,
};

pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// Run `f` once per thread count and assert all results are equal;
    /// returns the common value. The workhorse of the determinism tests.
    fn across_threads<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
        let mut results = Vec::new();
        for threads in [1usize, 2, 3, 8] {
            super::set_num_threads(threads);
            results.push((threads, f()));
        }
        super::set_num_threads(0);
        let (_, first) = results.remove(0);
        for (threads, r) in results {
            assert_eq!(first, r, "diverged at {threads} threads");
        }
        first
    }

    #[test]
    fn par_iter_surface_behaves_like_serial() {
        let v = vec![1u32, 2, 3, 4];
        let doubled: Vec<u32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);

        let total: usize = (0..10usize).into_par_iter().map(|x| x * x).sum();
        assert_eq!(total, 285);
    }

    #[test]
    fn join_returns_both() {
        assert_eq!(super::join(|| 1, || "x"), (1, "x"));
    }

    #[test]
    fn results_are_identical_at_every_thread_count() {
        let big: Vec<u64> = (0..10_000u64).collect();
        across_threads(|| {
            let collected: Vec<u64> = big.par_iter().map(|&x| x.wrapping_mul(31)).collect();
            let sum: u64 = big.par_iter().map(|&x| x * x).sum();
            (collected, sum)
        });
    }

    #[test]
    fn float_reduction_order_is_fixed() {
        // f64 addition is not associative; byte-identical sums across
        // thread counts prove the reduction tree never moves.
        let xs: Vec<f64> = (1..=4096).map(|i| 1.0 / i as f64).collect();
        let sums = across_threads(|| {
            let s: f64 = xs.par_iter().map(|&x| x).sum();
            s.to_bits()
        });
        assert!(f64::from_bits(sums) > 8.0);
    }

    #[test]
    fn any_and_all() {
        let v: Vec<usize> = (0..5000).collect();
        super::set_num_threads(4);
        assert!(v.par_iter().any(|&x| x == 4999));
        assert!(!v.par_iter().any(|&x| x == 5000));
        assert!(v.par_iter().all(|&x| x < 5000));
        assert!(!v.par_iter().all(|&x| x < 4999));
        super::set_num_threads(0);
    }

    #[test]
    fn map_init_state_is_chunk_local() {
        // The per-chunk scratch must never leak across items' results:
        // output equals a stateless map whatever the chunking.
        let v: Vec<usize> = (0..503).collect();
        let out = across_threads(|| {
            v.par_iter()
                .map_init(Vec::<usize>::new, |scratch, &x| {
                    scratch.push(x);
                    x * 2 + (scratch.last().copied().unwrap() == x) as usize
                })
                .collect::<Vec<usize>>()
        });
        let expect: Vec<usize> = (0..503).map(|x| x * 2 + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn count_matches() {
        super::set_num_threads(3);
        assert_eq!((0..12345usize).into_par_iter().count(), 12345);
        super::set_num_threads(0);
    }
}
