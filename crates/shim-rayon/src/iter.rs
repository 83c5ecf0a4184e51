//! The parallel-iterator surface: splittable sources, composable
//! adapters, and chunk-driven terminal operations.
//!
//! Every parallel iterator is a *splittable producer*: it knows its base
//! length, can be cut in two at any base index, and can be consumed as an
//! ordinary sequential iterator. Terminal operations cut the producer
//! into `pool::chunk_count` pieces (boundaries depend on the
//! length only), run each piece on the pool, and combine the per-chunk
//! results **in chunk order** — so `collect` preserves order exactly and
//! even non-commutative reductions are byte-identical at any thread
//! count.
//!
//! Adapters hold their closures behind `Arc` so splitting a producer
//! (which happens once per chunk, never per item) just bumps a reference
//! count; closures only need `Fn + Send + Sync`, exactly like rayon.

use crate::pool;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Split `p` into chunk-order pieces with boundaries `i * len / c` — a
/// pure function of `len`, never of the worker count.
fn split_pieces<P: ParallelIterator>(p: P) -> Vec<P> {
    let len = p.par_len();
    let c = pool::chunk_count(len);
    let mut out = Vec::with_capacity(c);
    let mut rest = p;
    let mut start = 0;
    for i in 1..c {
        let bound = i * len / c;
        let (head, tail) = rest.split_at(bound - start);
        out.push(head);
        rest = tail;
        start = bound;
    }
    out.push(rest);
    out
}

/// Run `work` over each piece of `p`, returning per-piece results in
/// piece order.
fn drive<P, R, F>(p: P, work: F) -> Vec<R>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    pool::run_chunks(split_pieces(p), |_idx, piece| work(piece))
}

/// A splittable, deterministic parallel iterator (the shim's analogue of
/// rayon's `IndexedParallelIterator`).
pub trait ParallelIterator: Sized + Send {
    type Item: Send;
    type SeqIter: Iterator<Item = Self::Item>;

    /// Base items this piece covers (adapters preserve the base index
    /// space).
    fn par_len(&self) -> usize;

    /// Split into `[0, index)` and `[index, len)` pieces.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Consume this piece as a sequential iterator in base order.
    fn into_seq(self) -> Self::SeqIter;

    // ---------------- adapters ----------------

    fn map<R, F>(self, f: F) -> Map<Self, F, R>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Send + Sync,
    {
        Map {
            base: self,
            f: Arc::new(f),
            _r: PhantomData,
        }
    }

    /// Like rayon's `map_init`: `init` runs once per chunk, and `f`
    /// threads the chunk-local state through every item of that chunk —
    /// the hook for per-worker scratch (allocation pools, RNGs) that
    /// must not be shared across threads.
    fn map_init<T, R, INIT, F>(self, init: INIT, f: F) -> MapInit<Self, INIT, F, T, R>
    where
        R: Send,
        INIT: Fn() -> T + Send + Sync,
        F: Fn(&mut T, Self::Item) -> R + Send + Sync,
    {
        MapInit {
            base: self,
            init: Arc::new(init),
            f: Arc::new(f),
            _t: PhantomData,
        }
    }

    // ---------------- terminal operations ----------------

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        drive(self, |piece| piece.into_seq().for_each(&f));
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        // Chunk partials are combined in chunk order, so the reduction
        // tree is fixed regardless of the thread count.
        drive(self, |piece| piece.into_seq().sum::<S>())
            .into_iter()
            .sum()
    }

    fn count(self) -> usize {
        drive(self, |piece| piece.into_seq().count())
            .into_iter()
            .sum()
    }

    fn any<F>(self, f: F) -> bool
    where
        F: Fn(Self::Item) -> bool + Send + Sync,
    {
        let found = AtomicBool::new(false);
        drive(self, |piece| {
            // Cross-chunk early exit; OR is commutative so the answer is
            // unaffected by which chunk trips the flag first.
            if !found.load(Ordering::Relaxed) && piece.into_seq().any(&f) {
                found.store(true, Ordering::Relaxed);
            }
        });
        found.into_inner()
    }

    fn all<F>(self, f: F) -> bool
    where
        F: Fn(Self::Item) -> bool + Send + Sync,
    {
        !self.any(move |x| !f(x))
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// `collect()` target for parallel iterators.
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self {
        let parts = drive(p, |piece| piece.into_seq().collect::<Vec<_>>());
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for mut part in parts {
            out.append(&mut part);
        }
        out
    }
}

// ======================= sources =======================

/// Shared-slice source (`par_iter()`).
pub struct ParSlice<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;
    type SeqIter = std::slice::Iter<'a, T>;

    fn par_len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index);
        (ParSlice { slice: a }, ParSlice { slice: b })
    }

    fn into_seq(self) -> Self::SeqIter {
        self.slice.iter()
    }
}

/// `(start..end).into_par_iter()` over `usize`.
pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParallelIterator for ParRange {
    type Item = usize;
    type SeqIter = std::ops::Range<usize>;

    fn par_len(&self) -> usize {
        self.range.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = self.range.start + index;
        (
            ParRange {
                range: self.range.start..mid,
            },
            ParRange {
                range: mid..self.range.end,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        self.range
    }
}

// ======================= adapters =======================

pub struct Map<P, F, R> {
    base: P,
    f: Arc<F>,
    _r: PhantomData<fn() -> R>,
}

impl<P, F, R> ParallelIterator for Map<P, F, R>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Send + Sync,
{
    type Item = R;
    type SeqIter = MapSeq<P::SeqIter, F>;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Map {
                base: a,
                f: Arc::clone(&self.f),
                _r: PhantomData,
            },
            Map {
                base: b,
                f: self.f,
                _r: PhantomData,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        MapSeq {
            inner: self.base.into_seq(),
            f: self.f,
        }
    }
}

pub struct MapSeq<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<I, F, R> Iterator for MapSeq<I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> R,
{
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.inner.next().map(|x| (self.f)(x))
    }
}

pub struct MapInit<P, INIT, F, T, R> {
    base: P,
    init: Arc<INIT>,
    f: Arc<F>,
    _t: PhantomData<fn() -> (T, R)>,
}

impl<P, INIT, F, T, R> ParallelIterator for MapInit<P, INIT, F, T, R>
where
    P: ParallelIterator,
    R: Send,
    INIT: Fn() -> T + Send + Sync,
    F: Fn(&mut T, P::Item) -> R + Send + Sync,
{
    type Item = R;
    type SeqIter = MapInitSeq<P::SeqIter, F, T>;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            MapInit {
                base: a,
                init: Arc::clone(&self.init),
                f: Arc::clone(&self.f),
                _t: PhantomData,
            },
            MapInit {
                base: b,
                init: self.init,
                f: self.f,
                _t: PhantomData,
            },
        )
    }

    fn into_seq(self) -> Self::SeqIter {
        MapInitSeq {
            state: (self.init)(),
            inner: self.base.into_seq(),
            f: self.f,
        }
    }
}

pub struct MapInitSeq<I, F, T> {
    inner: I,
    state: T,
    f: Arc<F>,
}

impl<I, F, T, R> Iterator for MapInitSeq<I, F, T>
where
    I: Iterator,
    F: Fn(&mut T, I::Item) -> R,
{
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.inner.next().map(|x| (self.f)(&mut self.state, x))
    }
}

// ======================= entry points =======================

/// `into_par_iter()` for ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// `par_iter()` over slices and vectors.
pub trait IntoParallelRefIterator {
    type Item: Sync;
    fn par_iter(&self) -> ParSlice<'_, Self::Item>;
}

impl<T: Sync> IntoParallelRefIterator for [T] {
    type Item = T;

    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { slice: self }
    }
}

impl<T: Sync> IntoParallelRefIterator for Vec<T> {
    type Item = T;

    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { slice: self }
    }
}
