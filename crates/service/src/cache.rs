//! The keyed `SkeletonCache`: one per [`Session`](crate::Session) and one
//! per [`Engine`](crate::Engine) shard.
//!
//! Cached [`Skeleton`]s are keyed on `(ShapeKey, p, Tuning::epoch)`.  The
//! shape key carries every request-derived dimension the plan depends on;
//! `p` is fixed per cache owner but keyed anyway so an entry can never leak
//! across differently-sized pools; and the tuning epoch makes knob changes
//! (`Session::update_tuning`) invalidate wholesale — stale entries under an
//! old epoch become unreachable and age out through the LRU bound, no
//! scanning required.
//!
//! Each cache keeps exact per-instance hit/miss/eviction counters, read
//! through `Session::cache_stats` and `EngineStats::plan_cache`.

use crate::solve::{ShapeKey, Skeleton};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time copy of one cache's counters — per-instance and exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from a cached skeleton (no plan compiled).
    pub hits: u64,
    /// Lookups that compiled a fresh skeleton and inserted it.
    pub misses: u64,
    /// Cached skeletons dropped to respect the capacity bound.
    pub evictions: u64,
    /// Skeletons currently cached.
    pub entries: usize,
}

impl PlanCacheStats {
    /// `hits / (hits + misses)`, or 0.0 before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise sum — how an engine aggregates its shard caches.
    pub(crate) fn merge(self, other: PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
        }
    }
}

struct Entry {
    skeleton: Skeleton,
    /// Last-touch stamp; the entry with the smallest stamp is evicted first.
    stamp: u64,
}

/// A bounded, LRU-evicting map from `(ShapeKey, p, epoch)` to [`Skeleton`].
pub(crate) struct SkeletonCache {
    map: Mutex<HashMap<(ShapeKey, usize, u64), Entry>>,
    cap: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SkeletonCache {
    /// Default capacity bound: generous for real request mixes (a workload
    /// shape is one entry regardless of how many requests reuse it) while
    /// keeping worst-case retained plan memory proportional to shapes seen,
    /// not requests served.
    pub(crate) const DEFAULT_CAP: usize = 128;

    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap >= 1, "a skeleton cache needs room for one entry");
        Self {
            map: Mutex::new(HashMap::new()),
            cap,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up the skeleton for `(key, p, epoch)`, compiling and inserting
    /// it on a miss.  The compile runs under the cache lock: concurrent
    /// same-shaped requests then compile once and hit `N−1` times instead
    /// of racing to `N` compiles — for this workload (compile is pure CPU,
    /// no I/O) blocking the second requester on the first's compile *is*
    /// the fast path.
    pub(crate) fn get_or_compile(
        &self,
        key: ShapeKey,
        p: usize,
        epoch: u64,
        compile: impl FnOnce(&ShapeKey) -> Skeleton,
    ) -> Skeleton {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock();
        if let Some(entry) = map.get_mut(&(key.clone(), p, epoch)) {
            entry.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return entry.skeleton.clone();
        }
        let skeleton = compile(&key);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if map.len() >= self.cap {
            // Evict the least-recently-touched entry (stale-epoch entries
            // are never touched again, so they drain out first in practice).
            if let Some(oldest) = map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(
            (key, p, epoch),
            Entry {
                skeleton: skeleton.clone(),
                stamp,
            },
        );
        skeleton
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.map.lock().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_runtime::schedule::{Plan, Step};
    use std::sync::Arc;

    fn skeleton(steps: usize) -> Skeleton {
        let plan = Arc::new(Plan::single_wave(
            1,
            (0..steps).map(|j| Step { proc: 0, job: j }).collect(),
        ));
        Skeleton::new(Arc::clone(&plan), &plan)
    }

    #[test]
    fn hits_share_one_compile_and_epoch_changes_miss() {
        let cache = SkeletonCache::new(8);
        let key = ShapeKey::new("t", [3]);
        let mut compiles = 0;
        for _ in 0..5 {
            let s = cache.get_or_compile(key.clone(), 2, 0, |_| {
                compiles += 1;
                skeleton(3)
            });
            assert_eq!(s.steps(), 3);
        }
        assert_eq!(compiles, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (4, 1, 1));
        assert!((stats.hit_ratio() - 0.8).abs() < 1e-12);

        // Same shape, new epoch: a fresh compile.
        cache.get_or_compile(key.clone(), 2, 1, |_| {
            compiles += 1;
            skeleton(3)
        });
        assert_eq!(compiles, 2);
        // Different p: also a fresh compile.
        cache.get_or_compile(key, 3, 1, |_| {
            compiles += 1;
            skeleton(3)
        });
        assert_eq!(compiles, 3);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used() {
        let cache = SkeletonCache::new(2);
        let key = |i: u64| ShapeKey::new("t", [i]);
        cache.get_or_compile(key(0), 1, 0, |_| skeleton(1));
        cache.get_or_compile(key(1), 1, 0, |_| skeleton(1));
        // Touch 0 so 1 becomes the LRU entry...
        cache.get_or_compile(key(0), 1, 0, |_| unreachable!("0 is cached"));
        // ...then inserting 2 must evict 1, not 0.
        cache.get_or_compile(key(2), 1, 0, |_| skeleton(1));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        cache.get_or_compile(key(0), 1, 0, |_| unreachable!("0 survived"));
        let mut recompiled = false;
        cache.get_or_compile(key(1), 1, 0, |_| {
            recompiled = true;
            skeleton(1)
        });
        assert!(recompiled, "1 was evicted");
    }
}
