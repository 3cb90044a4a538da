//! [`ScratchArena`]: cross-pass reuse of workload scratch allocations.
//!
//! Every service request used to allocate its run state fresh at bind time —
//! the 1D temp arenas, the GAP table, the sort scratch, Strassen's operand
//! matrices — and drop it when the pass finished.  Under the
//! millions-of-requests workload the north star assumes, that is a steady
//! allocator churn on the hot path.  A `ScratchArena` is a typed pool of
//! returned `Vec<T>` buffers, owned one per `Session` and one per engine
//! shard: bind-time construction *takes* buffers from the pool (falling back
//! to a fresh allocation on a miss) and the post-pass `finish` *puts* pure
//! temporaries back.
//!
//! Pools are keyed by `TypeId` of the element vector, so a buffer is only
//! ever reused at the exact type it was allocated at — no byte-level
//! transmutes.  The hit/miss counters feed the benchmark's
//! `paco_core.arena_hit_ratio`; outputs are never pooled, so results are
//! unaffected by reuse (the arena-reuse test in `tests/kernel_agreement.rs`
//! asserts exactly that).

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A point-in-time copy of one arena's checkout counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Checkouts served from a pooled buffer (no allocation).
    pub hits: u64,
    /// Checkouts that had to allocate fresh.
    pub misses: u64,
}

impl ArenaStats {
    /// `hits / (hits + misses)`, or 0.0 before any checkout.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise sum — how an engine aggregates its shard arenas.
    pub fn merge(self, other: ArenaStats) -> ArenaStats {
        ArenaStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// A typed pool of reusable `Vec<T>` scratch buffers (see module docs).
///
/// Thread-safe: checkouts happen on producer threads at bind time while
/// returns happen on executor threads after a pass, so the pool map sits
/// behind a mutex (held only for the pop/push, never while filling).
#[derive(Default)]
pub struct ScratchArena {
    pools: Mutex<HashMap<TypeId, Vec<Box<dyn Any + Send>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ScratchArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "ScratchArena(hits={}, misses={})",
            stats.hits, stats.misses
        )
    }
}

impl ScratchArena {
    /// Returned buffers kept per element type; beyond this, returns are
    /// dropped (bounds retained memory under bursty mixed workloads).
    const MAX_POOLED: usize = 16;

    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a `Vec<T>` of exactly `len` elements, every element `fill`.
    ///
    /// Reuses a pooled buffer of the same element type when one is
    /// available (counted as a hit; the buffer is cleared and refilled, so
    /// contents never leak between requests) and allocates fresh otherwise
    /// (a miss).
    pub fn take_vec<T: Clone + Send + 'static>(&self, len: usize, fill: T) -> Vec<T> {
        let pooled = {
            let mut pools = self.pools.lock().expect("arena mutex poisoned");
            pools
                .get_mut(&TypeId::of::<Vec<T>>())
                .and_then(|stack| stack.pop())
        };
        match pooled {
            Some(boxed) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut v = *boxed.downcast::<Vec<T>>().expect("pool is keyed by TypeId");
                v.clear();
                v.resize(len, fill);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![fill; len]
            }
        }
    }

    /// Return a buffer to the pool for a later [`ScratchArena::take_vec`] of
    /// the same element type.  Contents are cleared immediately; capacity is
    /// what gets reused.  Zero-capacity and over-quota returns are dropped.
    pub fn put_vec<T: Send + 'static>(&self, mut v: Vec<T>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        let mut pools = self.pools.lock().expect("arena mutex poisoned");
        let stack = pools.entry(TypeId::of::<Vec<T>>()).or_default();
        if stack.len() < Self::MAX_POOLED {
            stack.push(Box::new(v));
        }
    }

    /// The arena's checkout counters so far.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_take_misses_then_warm_take_hits() {
        let arena = ScratchArena::new();
        let v = arena.take_vec(100, 0u64);
        assert_eq!(v, vec![0u64; 100]);
        assert_eq!(arena.stats(), ArenaStats { hits: 0, misses: 1 });
        arena.put_vec(v);
        // Reuse at a different length: capacity is recycled, contents reset.
        let w = arena.take_vec(60, 7u64);
        assert_eq!(w, vec![7u64; 60]);
        assert_eq!(arena.stats(), ArenaStats { hits: 1, misses: 1 });
        assert!((arena.stats().reuse_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pools_are_typed_and_never_cross() {
        let arena = ScratchArena::new();
        arena.put_vec(vec![1.5f64; 8]);
        // A u32 take must not see the f64 buffer.
        let v = arena.take_vec(4, 9u32);
        assert_eq!(v, vec![9u32; 4]);
        assert_eq!(arena.stats().hits, 0);
        // The f64 take does.
        let f = arena.take_vec(2, 0.0f64);
        assert_eq!(f, vec![0.0; 2]);
        assert_eq!(arena.stats().hits, 1);
    }

    #[test]
    fn pool_is_bounded_and_empty_returns_dropped() {
        let arena = ScratchArena::new();
        arena.put_vec(Vec::<u8>::new()); // capacity 0: dropped
        for _ in 0..40 {
            arena.put_vec(vec![0u8; 16]);
        }
        let pooled = arena.pools.lock().unwrap()[&TypeId::of::<Vec<u8>>()].len();
        assert_eq!(pooled, ScratchArena::MAX_POOLED);
    }

    #[test]
    fn eviction_cap_is_observable_through_takes() {
        // Return more buffers than the quota, then drain with takes: the
        // pool serves exactly `MAX_POOLED` hits before it runs dry — the
        // 17th (and every later) return was evicted, not stashed.
        let arena = ScratchArena::new();
        for _ in 0..ScratchArena::MAX_POOLED + 9 {
            arena.put_vec(vec![0u64; 32]);
        }
        for _ in 0..ScratchArena::MAX_POOLED {
            arena.take_vec(32, 1u64);
        }
        assert_eq!(
            arena.stats(),
            ArenaStats {
                hits: ScratchArena::MAX_POOLED as u64,
                misses: 0
            }
        );
        arena.take_vec(32, 1u64);
        assert_eq!(
            arena.stats(),
            ArenaStats {
                hits: ScratchArena::MAX_POOLED as u64,
                misses: 1
            }
        );
    }

    #[test]
    fn eviction_cap_is_per_type() {
        // Over-filling one type's pool must not consume another type's
        // quota: both pools independently hold `MAX_POOLED` buffers.
        let arena = ScratchArena::new();
        for _ in 0..ScratchArena::MAX_POOLED + 5 {
            arena.put_vec(vec![0u32; 8]);
            arena.put_vec(vec![0.0f32; 8]);
        }
        for _ in 0..ScratchArena::MAX_POOLED {
            arena.take_vec(8, 1u32);
            arena.take_vec(8, 1.0f32);
        }
        assert_eq!(arena.stats().hits, 2 * ScratchArena::MAX_POOLED as u64);
        assert_eq!(arena.stats().misses, 0);
    }

    #[test]
    fn stats_merge_sums_fieldwise() {
        let a = ArenaStats { hits: 3, misses: 1 };
        let b = ArenaStats { hits: 1, misses: 5 };
        assert_eq!(a.merge(b), ArenaStats { hits: 4, misses: 6 });
        assert_eq!(ArenaStats::default().reuse_ratio(), 0.0);
    }

    #[test]
    fn arena_is_shareable_across_threads() {
        let arena = std::sync::Arc::new(ScratchArena::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let arena = std::sync::Arc::clone(&arena);
                s.spawn(move || {
                    for i in 0..50 {
                        let v = arena.take_vec(64, t * 1000 + i);
                        assert!(v.iter().all(|&x| x == t * 1000 + i));
                        arena.put_vec(v);
                    }
                });
            }
        });
        let stats = arena.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(stats.hits > 0, "warm reuse must occur: {stats:?}");
    }

    #[test]
    fn concurrent_mixed_type_checkout_keeps_stats_exact() {
        // 4 threads × 2 element types × 25 take/put rounds: every checkout
        // is either a hit or a miss (never both, never dropped), pools never
        // cross types, and no pool exceeds its quota afterwards.
        const THREADS: usize = 4;
        const ROUNDS: usize = 25;
        let arena = std::sync::Arc::new(ScratchArena::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let arena = std::sync::Arc::clone(&arena);
                s.spawn(move || {
                    for i in 0..ROUNDS {
                        let v = arena.take_vec(48, (t * ROUNDS + i) as u64);
                        let f = arena.take_vec(48, (t * ROUNDS + i) as f64);
                        assert!(v.iter().all(|&x| x == (t * ROUNDS + i) as u64));
                        assert!(f.iter().all(|&x| x == (t * ROUNDS + i) as f64));
                        arena.put_vec(v);
                        arena.put_vec(f);
                    }
                });
            }
        });
        let stats = arena.stats();
        assert_eq!(
            stats.hits + stats.misses,
            (2 * THREADS * ROUNDS) as u64,
            "every checkout accounted exactly once: {stats:?}"
        );
        // At most `THREADS` concurrent buffers circulated per type, so cold
        // misses are bounded by one per thread per type.
        assert!(stats.misses <= (2 * THREADS) as u64, "{stats:?}");
        let pools = arena.pools.lock().unwrap();
        for stack in pools.values() {
            assert!(stack.len() <= ScratchArena::MAX_POOLED);
        }
    }
}
