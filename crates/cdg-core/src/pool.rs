//! Arc-matrix allocation pool for batched parsing.
//!
//! Most arcs of a network never need storage: an arc is *outer*
//! (implicitly `alive_i ⊗ alive_j`, see [`crate::network::ArcMatrix`])
//! until a write clears one of its live pairs, and only then is it given a
//! matrix. Those *stored* arcs still dominate the parser's allocation
//! traffic, so when parsing a batch the pool keeps the backing `Vec<u64>`
//! buffers of a finished sentence's stored arcs and hands them to the next
//! one (see [`bitmat::BitMatrix::zeros_from`]): steady-state batch parsing
//! allocates arc storage only when a sentence stores more or larger
//! matrices than any before it.
//!
//! A network draws from its own pool, lent to it by the
//! [`crate::network::NetSlab`] it was built from and absorbed back when the
//! network is reclaimed, so every phase that stores an arc (arc init, the
//! binary kernels, the naive evaluator, the MasPar readback) uses it.
//!
//! Pooling is invisible to results: a pooled matrix starts all-zero exactly
//! like a fresh one, so parses are byte-identical with and without a pool
//! (asserted by the determinism suite).

use bitmat::BitMatrix;

/// Allocation counters, for tests and the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Matrices handed out.
    pub acquires: usize,
    /// Acquires served from a recycled buffer (no fresh allocation).
    pub reuses: usize,
    /// Matrices returned to the pool.
    pub releases: usize,
}

impl PoolStats {
    /// Add another ledger's counts to this one.
    pub fn absorb(&mut self, other: &PoolStats) {
        self.acquires += other.acquires;
        self.reuses += other.reuses;
        self.releases += other.releases;
    }
}

/// A free-list of `u64` word buffers recycled between stored arc matrices.
#[derive(Debug, Clone, Default)]
pub struct ArcPool {
    bufs: Vec<Vec<u64>>,
    pub stats: PoolStats,
}

impl ArcPool {
    pub fn new() -> Self {
        ArcPool::default()
    }

    /// An all-zero `rows × cols` matrix, backed by a recycled buffer when
    /// one is available.
    pub fn acquire(&mut self, rows: usize, cols: usize) -> BitMatrix {
        self.stats.acquires += 1;
        match self.bufs.pop() {
            Some(buf) => {
                self.stats.reuses += 1;
                BitMatrix::zeros_from(rows, cols, buf)
            }
            None => BitMatrix::zeros(rows, cols),
        }
    }

    /// Return a matrix's backing buffer to the free-list.
    pub fn release(&mut self, m: BitMatrix) {
        self.stats.releases += 1;
        let words = m.into_words();
        if words.capacity() > 0 {
            self.bufs.push(words);
        }
    }

    /// A pool holding this pool's idle buffers and a zero ledger, leaving
    /// this one empty: what a network draws from for one parse.
    pub fn lend(&mut self) -> ArcPool {
        ArcPool {
            bufs: std::mem::take(&mut self.bufs),
            stats: PoolStats::default(),
        }
    }

    /// Take back a lent pool: its idle buffers rejoin this free-list and
    /// its ledger is added to this one's.
    pub fn absorb(&mut self, mut lent: ArcPool) {
        self.bufs.append(&mut lent.bufs);
        self.stats.absorb(&lent.stats);
    }

    /// Buffers currently idle in the free-list.
    pub fn idle_buffers(&self) -> usize {
        self.bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_reuses_released_buffers() {
        let mut pool = ArcPool::new();
        let mut m = pool.acquire(9, 9);
        m.set(3, 4, true);
        pool.release(m);
        assert_eq!(pool.idle_buffers(), 1);

        // A recycled matrix must be indistinguishable from a fresh one.
        let m2 = pool.acquire(9, 9);
        assert_eq!(m2, BitMatrix::zeros(9, 9));
        assert_eq!(pool.stats.reuses, 1);
        assert_eq!(pool.idle_buffers(), 0);

        // Shape changes are fine: the buffer adapts.
        pool.release(m2);
        let m3 = pool.acquire(4, 200);
        assert_eq!(m3, BitMatrix::zeros(4, 200));
        assert_eq!(pool.stats.reuses, 2);
    }

    #[test]
    fn a_lent_pool_comes_back_with_its_ledger() {
        let mut pool = ArcPool::new();
        let m = pool.acquire(3, 3);
        pool.release(m);
        let mut lent = pool.lend();
        assert_eq!((pool.idle_buffers(), lent.idle_buffers()), (0, 1));
        let m = lent.acquire(5, 5);
        lent.release(m);
        pool.absorb(lent);
        assert_eq!(pool.idle_buffers(), 1);
        assert_eq!(
            pool.stats,
            PoolStats {
                acquires: 2,
                reuses: 1,
                releases: 2
            }
        );
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut pool = ArcPool::new();
        let m = pool.acquire(0, 0);
        pool.release(m);
        assert_eq!(pool.idle_buffers(), 0);
    }
}
