//! Offline stand-in for the subset of
//! [`rayon`](https://crates.io/crates/rayon) that the PACO workspace uses.
//!
//! The PACO paper's *processor-oblivious* (PO) baselines are expressed as
//! rayon data-parallel loops and `join` calls.  The build environment has no
//! network access, so this shim re-implements that surface on top of
//! `std::thread::scope`:
//!
//! * [`join`] — run two closures concurrently when a thread is available,
//!   inline otherwise.
//! * [`prelude`] — `par_iter`, `par_chunks`, `par_chunks_mut`,
//!   `into_par_iter` with the `map` / `enumerate` / `for_each` / `collect`
//!   adapters the workspace calls.
//! * [`ThreadPoolBuilder`] / [`ThreadPool`] — `install` scopes a thread
//!   budget for the closure it runs.
//!
//! Threads are drawn from a **global budget** equal to the machine's
//! available parallelism, so nested parallelism (e.g. recursive Strassen
//! splits) degrades gracefully to inline execution instead of spawning an
//! unbounded number of OS threads.  This is a faithful *semantic* stand-in —
//! parallel speedups are real — but it is not a work-stealing scheduler, so
//! fine-grained imbalance is handled worse than by real rayon.  For the PACO
//! experiments this only weakens the PO baseline, never the PACO numbers.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Extra worker threads currently live across the whole process.
static ACTIVE_EXTRA: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override of the thread budget, set by [`ThreadPool::install`].
    static LOCAL_CAP: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The maximum number of concurrent threads the shim will use.
fn max_threads() -> usize {
    LOCAL_CAP.with(|c| c.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Try to reserve up to `want` extra threads from the global budget; returns
/// the number actually granted (possibly 0).
fn reserve_extra(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let cap = max_threads().saturating_sub(1);
    let mut cur = ACTIVE_EXTRA.load(Ordering::Relaxed);
    loop {
        let free = cap.saturating_sub(cur);
        let grant = want.min(free);
        if grant == 0 {
            return 0;
        }
        match ACTIVE_EXTRA.compare_exchange_weak(
            cur,
            cur + grant,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return grant,
            Err(actual) => cur = actual,
        }
    }
}

/// Return `n` extra threads to the global budget.
fn release_extra(n: usize) {
    if n > 0 {
        ACTIVE_EXTRA.fetch_sub(n, Ordering::Relaxed);
    }
}

/// Run `a` and `b`, potentially in parallel, and return both results.
///
/// Mirrors `rayon::join`: `b` runs on another thread when the budget allows,
/// otherwise both run inline on the caller.  Panics propagate to the caller
/// after both branches finish.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if reserve_extra(1) == 1 {
        let result = std::thread::scope(|s| {
            let hb = s.spawn(b);
            let ra = std::panic::catch_unwind(std::panic::AssertUnwindSafe(a));
            let rb = hb.join();
            release_extra(1);
            match (ra, rb) {
                (Ok(ra), Ok(rb)) => Ok((ra, rb)),
                (Err(p), _) | (_, Err(p)) => Err(p),
            }
        });
        match result {
            Ok(pair) => pair,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    } else {
        (a(), b())
    }
}

/// Run every item of `items` through `f`, in parallel when the budget allows,
/// preserving order.
fn run_parallel<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let extra = reserve_extra((n - 1).min(max_threads().saturating_sub(1)));
    if extra == 0 {
        return items.into_iter().map(f).collect();
    }
    let nchunks = (extra + 1).min(n);
    let chunk_len = n.div_ceil(nchunks);
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(nchunks);
    let mut items = items;
    while items.len() > chunk_len {
        let tail = items.split_off(items.len() - chunk_len);
        chunks.push(tail);
    }
    chunks.push(items);
    // `chunks` now holds the input back-to-front.
    chunks.reverse();

    let result = std::thread::scope(|s| {
        let f = &f;
        let mut iter = chunks.into_iter();
        let first = iter.next().expect("at least one chunk");
        let handles: Vec<_> = iter
            .map(|c| s.spawn(move || c.into_iter().map(f).collect::<Vec<O>>()))
            .collect();
        // The caller's thread works on the first chunk while the spawned
        // threads handle the rest.
        let head = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            first.into_iter().map(f).collect::<Vec<O>>()
        }));
        let mut out = Vec::with_capacity(n);
        let mut panic = None;
        match head {
            Ok(v) => out.extend(v),
            Err(p) => panic = Some(p),
        }
        for h in handles {
            match h.join() {
                Ok(v) => out.extend(v),
                Err(p) => {
                    if panic.is_none() {
                        panic = Some(p);
                    }
                }
            }
        }
        release_extra(extra);
        match panic {
            None => Ok(out),
            Some(p) => Err(p),
        }
    });
    match result {
        Ok(out) => out,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// A materialized parallel iterator: the item list is collected eagerly
/// (items are cheap — references, slices or small tuples), while the mapped /
/// consumed work runs in parallel.
pub struct ParIter<I>(Vec<I>);

impl<I: Send> ParIter<I> {
    /// Pair every item with its index, like `Iterator::enumerate`.
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter(self.0.into_iter().enumerate().collect())
    }

    /// Apply `f` to every item in parallel, preserving order.
    pub fn map<O: Send, F>(self, f: F) -> ParIter<O>
    where
        F: Fn(I) -> O + Sync,
    {
        ParIter(run_parallel(self.0, f))
    }

    /// Run `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        run_parallel(self.0, f);
    }

    /// Collect the items in order.
    pub fn collect<C: FromIterator<I>>(self) -> C {
        self.0.into_iter().collect()
    }
}

/// `par_iter` / `par_chunks` over shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over references to the elements.
    fn par_iter(&self) -> ParIter<&T>;
    /// Parallel iterator over contiguous chunks of length `size` (the last
    /// chunk may be shorter).
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter(self.iter().collect())
    }
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        assert!(size > 0, "chunk size must be positive");
        ParIter(self.chunks(size).collect())
    }
}

/// `par_chunks_mut` over exclusive slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over disjoint mutable chunks of length `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        assert!(size > 0, "chunk size must be positive");
        ParIter(self.chunks_mut(size).collect())
    }
}

/// Conversion into a by-value parallel iterator.
pub trait IntoParallelIterator {
    /// The element type produced.
    type Item: Send;
    /// Consume `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter(self)
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type returned by [`ThreadPoolBuilder::build`]; building the shim
/// pool cannot actually fail.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shim thread pool build error (unreachable)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the number of threads parallel work may use inside
    /// [`ThreadPool::install`].
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Finish building; never fails in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(max_threads).max(1),
        })
    }
}

/// A scoped thread-budget handle mirroring `rayon::ThreadPool`.
///
/// The shim has no dedicated worker threads; `install` simply caps the global
/// thread budget *for work started on the calling thread* while the closure
/// runs.  Work spawned onto other threads inside the closure falls back to
/// the process-wide budget.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread budget.
    pub fn install<R, F: FnOnce() -> R>(&self, f: F) -> R {
        let prev = LOCAL_CAP.with(|c| c.replace(Some(self.num_threads)));
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                LOCAL_CAP.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(prev);
        f()
    }

    /// The thread budget this pool was built with.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Glob-import target mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn join_runs_concurrently_when_budget_allows() {
        // The rendezvous below needs `join` to get its second thread, and
        // sibling tests draw on the same process-wide budget: under the
        // default cap they can hold all `nproc − 1` extras, `join` then runs
        // both closures inline, and a barrier of two waits forever.  Threads
        // without an `install` never push the count past `nproc − 1`, so a
        // local cap of `nproc + 1` always leaves this test one to reserve.
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(super::max_threads() + 1)
            .build()
            .unwrap();
        let barrier = std::sync::Barrier::new(2);
        pool.install(|| super::join(|| barrier.wait(), || barrier.wait()));
    }

    #[test]
    fn nested_joins_do_not_explode() {
        fn recurse(depth: usize) -> usize {
            if depth == 0 {
                return 1;
            }
            let (a, b) = super::join(|| recurse(depth - 1), || recurse(depth - 1));
            a + b
        }
        assert_eq!(recurse(10), 1024);
    }

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_touch_every_element() {
        let mut v = vec![0u32; 997];
        v.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x = i as u32;
            }
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[996], 99);
    }

    #[test]
    fn into_par_iter_consumes_vec() {
        let counter = AtomicUsize::new(0);
        let v: Vec<usize> = (0..100).collect();
        v.into_par_iter().for_each(|x| {
            counter.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn install_caps_local_budget() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool.install(|| {
            assert_eq!(super::max_threads(), 1);
        });
        assert_ne!(super::max_threads(), 0);
    }

    #[test]
    fn parallel_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            let v: Vec<usize> = (0..100).collect();
            v.par_iter().for_each(|&x| {
                if x == 50 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
    }
}
