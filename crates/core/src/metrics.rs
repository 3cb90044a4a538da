//! Work/communication counters and timing helpers.
//!
//! The paper's complexity accounting (Sect. III-A) distinguishes the *overall*
//! quantities summed over all processors (`T^Σ_p`, `Q^Σ_p`) from the quantities
//! along a critical path, i.e. the maximum over processors (`T^max_p`,
//! `Q^max_p`).  [`Counters`] collects per-processor tallies and derives both
//! views, plus the load-imbalance ratio used to check the paper's "optimal
//! balanced computation/communication" definition.
//!
//! [`Stopwatch`] and the throughput helpers are used by the benchmark harness to
//! report running time, speedup percentages (the paper's
//! `(time_peer / time_PACO − 1) × 100%`) and `Rmax/Rpeak` fractions.
//! [`LatencyHistogram`] is a plain type an owner (the service engine) embeds.
//!
//! Everything a `Session`, `Engine`, plan cache or incremental handle can
//! count for itself, it counts on the instance (`RunStats`, `EngineStats`,
//! `PlanCacheStats`, `UpdateStats`).  Only three counter families stay
//! process-wide, each because no instance owns the event:
//!
//! - [`sched`]'s plan/barrier cells are **thread-local**: a plan execution
//!   and its pool barriers are recorded on the thread that drives them,
//!   which is the thread that reads the delta, so deltas are exact per
//!   driving thread (this is what `RunStats` reads).
//! - [`sched::kernel`] counts leaf dispatch (SIMD/specialized vs generic).
//!   Leaves are free functions called on pool worker threads with no
//!   owning instance in scope, so they tick global atomics.
//! - [`comm`] is the only view of distributed traffic a caller of a
//!   `Session`/`Engine` has: ranks are threads spawned per run, and the
//!   executor mirrors each run's exact totals here once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub mod sched {
    //! Scheduling counters.
    //!
    //! The PACO runtime executes a `Plan` as one worker-pool barrier per wave:
    //! every plan runs in one `WorkerPool::scope` (one spawn/join
    //! round-trip) whose processors meet at an in-scope barrier between
    //! waves.  These counters make the barrier
    //! behaviour *measurable* — on a 1-core container wall-clock cannot show
    //! whether a wave-flattened schedule really issues fewer barriers than the
    //! per-fork recursion it replaced, but the counters can, and the benchmark
    //! report records them next to the timings.
    //!
    //! The counters are **per-thread** (the pool and the plan executor live
    //! in `paco-runtime`, which depends on this crate): a pool barrier is
    //! recorded on the thread that opens the scope, and a plan execution on
    //! the thread that drives it — which is the same thread that later reads
    //! [`snapshot`], since `WorkerPool::scope` and `Plan::execute` both block
    //! their caller.  Thread-locality is what makes [`snapshot`] deltas
    //! *exact* even under a multi-threaded test harness: concurrent tests on
    //! other threads cannot perturb this thread's delta.  The flip side: work
    //! driven from a different thread (e.g. a scope opened inside a worker
    //! task) is invisible to this thread's snapshot.

    use std::cell::Cell;

    thread_local! {
        static POOL_BARRIERS: Cell<u64> = const { Cell::new(0) };
        static PLAN_EXECUTIONS: Cell<u64> = const { Cell::new(0) };
        static PLAN_WAVES: Cell<u64> = const { Cell::new(0) };
        static PLAN_STEPS: Cell<u64> = const { Cell::new(0) };
    }

    /// A point-in-time copy of every scheduling counter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SchedSnapshot {
        /// Worker-pool barriers: scopes opened, plus the in-scope barriers
        /// between the waves of a multi-wave plan (so a plan counts one
        /// per wave either way).
        pub pool_barriers: u64,
        /// Plans executed end-to-end.
        pub plan_executions: u64,
        /// Plan waves executed (each wave costs exactly one pool barrier).
        pub plan_waves: u64,
        /// Plan steps (placed tasks) executed.
        pub plan_steps: u64,
    }

    impl SchedSnapshot {
        /// Counter deltas since an earlier snapshot.
        pub fn since(&self, earlier: &SchedSnapshot) -> SchedSnapshot {
            SchedSnapshot {
                pool_barriers: self.pool_barriers - earlier.pool_barriers,
                plan_executions: self.plan_executions - earlier.plan_executions,
                plan_waves: self.plan_waves - earlier.plan_waves,
                plan_steps: self.plan_steps - earlier.plan_steps,
            }
        }
    }

    /// Record one worker-pool barrier (called by `WorkerPool::scope` on the
    /// thread opening the scope, and by the plan executor for each later
    /// wave of a plan it runs in one scope).
    #[inline]
    pub fn record_pool_barrier() {
        POOL_BARRIERS.with(|c| c.set(c.get() + 1));
    }

    /// Record one executed plan with its wave and step counts (called by the
    /// plan executor in `paco-runtime` on the driving thread).
    pub fn record_plan_execution(waves: u64, steps: u64) {
        PLAN_EXECUTIONS.with(|c| c.set(c.get() + 1));
        PLAN_WAVES.with(|c| c.set(c.get() + waves));
        PLAN_STEPS.with(|c| c.set(c.get() + steps));
    }

    /// Read the current thread's counters at once.
    pub fn snapshot() -> SchedSnapshot {
        SchedSnapshot {
            pool_barriers: POOL_BARRIERS.with(Cell::get),
            plan_executions: PLAN_EXECUTIONS.with(Cell::get),
            plan_waves: PLAN_WAVES.with(Cell::get),
            plan_steps: PLAN_STEPS.with(Cell::get),
        }
    }

    pub mod kernel {
        //! Process-wide leaf-kernel dispatch counters.
        //!
        //! Wall-clock numbers are noisy on a shared 1-core container, so
        //! every leaf fast path added by the kernel layer also proves it ran:
        //! each leaf call increments exactly one counter — "specialized"
        //! (SIMD microkernel, row-sliced semiring loop, branch-free LCS
        //! block) or "generic" (the trait-dispatch fallback).  Leaves run on
        //! pool worker threads with no owning instance in scope, so these
        //! are global atomics: exact per process, one tick per *leaf call*
        //! (never per element — these sit under the hot loops).

        use std::sync::atomic::{AtomicU64, Ordering};

        static MM_LEAF_SIMD: AtomicU64 = AtomicU64::new(0);
        static MM_LEAF_GENERIC: AtomicU64 = AtomicU64::new(0);
        static FW_LEAF_SPECIALIZED: AtomicU64 = AtomicU64::new(0);
        static FW_LEAF_GENERIC: AtomicU64 = AtomicU64::new(0);
        static LCS_LEAF_SPECIALIZED: AtomicU64 = AtomicU64::new(0);
        static LCS_LEAF_GENERIC: AtomicU64 = AtomicU64::new(0);

        /// A point-in-time copy of the leaf-dispatch counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct KernelSnapshot {
            /// MM leaf calls handled by a specialized (SIMD) microkernel: the
            /// `f64` tile and, in the `avx512f` mode, the `MinPlus` and
            /// `BoolSemiring` semiring tiles.
            pub mm_leaf_simd: u64,
            /// MM leaf calls that ran the generic semiring loop.
            pub mm_leaf_generic: u64,
            /// FW relax calls handled by a row-sliced semiring fast path.
            pub fw_leaf_specialized: u64,
            /// FW relax calls that ran the generic per-element loop.
            pub fw_leaf_generic: u64,
            /// LCS base blocks run by the branch-free fast path.
            pub lcs_leaf_specialized: u64,
            /// LCS base blocks that ran the tracked generic loop.
            pub lcs_leaf_generic: u64,
        }

        impl KernelSnapshot {
            /// Counter deltas since an earlier snapshot.
            pub fn since(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
                KernelSnapshot {
                    mm_leaf_simd: self.mm_leaf_simd - earlier.mm_leaf_simd,
                    mm_leaf_generic: self.mm_leaf_generic - earlier.mm_leaf_generic,
                    fw_leaf_specialized: self.fw_leaf_specialized - earlier.fw_leaf_specialized,
                    fw_leaf_generic: self.fw_leaf_generic - earlier.fw_leaf_generic,
                    lcs_leaf_specialized: self.lcs_leaf_specialized - earlier.lcs_leaf_specialized,
                    lcs_leaf_generic: self.lcs_leaf_generic - earlier.lcs_leaf_generic,
                }
            }
        }

        /// Record one MM leaf call (`simd`: handled by a microkernel, `f64`
        /// or semiring).
        #[inline]
        pub fn record_mm_leaf(simd: bool) {
            if simd {
                MM_LEAF_SIMD.fetch_add(1, Ordering::Relaxed);
            } else {
                MM_LEAF_GENERIC.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Record one FW relax call (`specialized`: row-sliced fast path).
        #[inline]
        pub fn record_fw_leaf(specialized: bool) {
            if specialized {
                FW_LEAF_SPECIALIZED.fetch_add(1, Ordering::Relaxed);
            } else {
                FW_LEAF_GENERIC.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Record one LCS base block (`specialized`: branch-free fast path).
        #[inline]
        pub fn record_lcs_leaf(specialized: bool) {
            if specialized {
                LCS_LEAF_SPECIALIZED.fetch_add(1, Ordering::Relaxed);
            } else {
                LCS_LEAF_GENERIC.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Read the current process-wide leaf-dispatch counters at once.
        pub fn snapshot() -> KernelSnapshot {
            KernelSnapshot {
                mm_leaf_simd: MM_LEAF_SIMD.load(Ordering::Relaxed),
                mm_leaf_generic: MM_LEAF_GENERIC.load(Ordering::Relaxed),
                fw_leaf_specialized: FW_LEAF_SPECIALIZED.load(Ordering::Relaxed),
                fw_leaf_generic: FW_LEAF_GENERIC.load(Ordering::Relaxed),
                lcs_leaf_specialized: LCS_LEAF_SPECIALIZED.load(Ordering::Relaxed),
                lcs_leaf_generic: LCS_LEAF_GENERIC.load(Ordering::Relaxed),
            }
        }

        #[cfg(test)]
        mod tests {
            use super::*;

            #[test]
            fn kernel_counters_accumulate_and_diff() {
                let before = snapshot();
                record_mm_leaf(true);
                record_mm_leaf(true);
                record_mm_leaf(false);
                record_fw_leaf(true);
                record_lcs_leaf(false);
                let delta = snapshot().since(&before);
                assert_eq!(delta.mm_leaf_simd, 2);
                assert_eq!(delta.mm_leaf_generic, 1);
                assert_eq!(delta.fw_leaf_specialized, 1);
                assert_eq!(delta.fw_leaf_generic, 0);
                assert_eq!(delta.lcs_leaf_specialized, 0);
                assert_eq!(delta.lcs_leaf_generic, 1);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn counters_accumulate_and_diff() {
            let before = snapshot();
            record_pool_barrier();
            record_plan_execution(3, 12);
            record_plan_execution(1, 2);
            let delta = snapshot().since(&before);
            assert_eq!(delta.pool_barriers, 1);
            assert_eq!(delta.plan_executions, 2);
            assert_eq!(delta.plan_waves, 4);
            assert_eq!(delta.plan_steps, 14);
        }
    }
}

pub mod comm {
    //! Process-wide communication counters for the shared-nothing emulation.
    //!
    //! The distributed backend (`paco_dist`) executes a plan as supersteps of
    //! message-passing ranks, and — like the barrier counters of
    //! [`super::sched`] — what makes that emulation *scientific* on a 1-core
    //! container is exact counting, not wall-clock: every word and every
    //! message a run ships is tallied here, so benches can compare measured
    //! traffic against the analytic bounds in `cache-sim::distributed`
    //! (Sect. III-E-1 / Sect. V of the paper).
    //!
    //! Ranks are threads, so these are global atomics like
    //! [`super::sched::kernel`]: exact for the process, aggregated over
    //! every distributed run.  The executor computes a run's totals
    //! deterministically on the host thread and mirrors them here with one
    //! [`record_run`] call, which keeps snapshot deltas exact per run even
    //! though sends happen on rank threads.

    use std::sync::atomic::{AtomicU64, Ordering};

    /// Number of rank slots tracked by the per-rank tallies; ranks beyond
    /// this fold onto slot `rank % MAX_RANK_SLOTS`.
    pub const MAX_RANK_SLOTS: usize = 64;

    static RUNS: AtomicU64 = AtomicU64::new(0);
    static SUPERSTEPS: AtomicU64 = AtomicU64::new(0);
    static DATA_MESSAGES: AtomicU64 = AtomicU64::new(0);
    static DATA_WORDS: AtomicU64 = AtomicU64::new(0);
    static SCATTER_WORDS: AtomicU64 = AtomicU64::new(0);
    static EXCHANGE_WORDS: AtomicU64 = AtomicU64::new(0);
    static WRITEBACK_WORDS: AtomicU64 = AtomicU64::new(0);
    static GATHER_WORDS: AtomicU64 = AtomicU64::new(0);
    static BARRIER_MESSAGES: AtomicU64 = AtomicU64::new(0);
    static CRITICAL_PATH_MESSAGES: AtomicU64 = AtomicU64::new(0);
    static MAX_RANK_WORDS: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static RANK_WORDS: [AtomicU64; MAX_RANK_SLOTS] = [ZERO; MAX_RANK_SLOTS];
    static RANK_MESSAGES: [AtomicU64; MAX_RANK_SLOTS] = [ZERO; MAX_RANK_SLOTS];

    /// One distributed run's communication totals, as computed by the
    /// executor on its host thread and mirrored into the process counters.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RunComm {
        /// Supersteps (plan waves) executed.
        pub supersteps: u64,
        /// Point-to-point data messages (scatter + exchange + writeback +
        /// gather), excluding barrier traffic.
        pub data_messages: u64,
        /// Words carried by those data messages.
        pub data_words: u64,
        /// Words shipped host → ranks to install initial operands.
        pub scatter_words: u64,
        /// Words shipped rank → rank in exchange phases (operands a rank
        /// reads but does not own).
        pub exchange_words: u64,
        /// Words shipped rank → rank in writeback phases (results a rank
        /// wrote but does not own).
        pub writeback_words: u64,
        /// Words shipped ranks → host to assemble the output.
        pub gather_words: u64,
        /// Tree-barrier control messages (2·(p−1) per superstep).
        pub barrier_messages: u64,
        /// Messages on the critical path: the latency term, which the paper
        /// bounds by `O(log p)` per superstep.
        pub critical_path_messages: u64,
        /// Words sent + received per rank (scatter counted at the receiver,
        /// gather at the sender).
        pub rank_words: Vec<u64>,
        /// Data messages sent + received per rank.
        pub rank_messages: Vec<u64>,
    }

    impl RunComm {
        /// Largest per-rank word total (the bandwidth critical path).
        pub fn max_rank_words(&self) -> u64 {
            self.rank_words.iter().copied().max().unwrap_or(0)
        }

        /// Mean per-rank word total.
        pub fn mean_rank_words(&self) -> f64 {
            if self.rank_words.is_empty() {
                0.0
            } else {
                self.data_words as f64 / self.rank_words.len() as f64
            }
        }
    }

    /// A point-in-time copy of the process-wide communication counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CommSnapshot {
        /// Distributed runs recorded.
        pub runs: u64,
        /// Supersteps executed across all runs.
        pub supersteps: u64,
        /// Point-to-point data messages across all runs.
        pub data_messages: u64,
        /// Words carried by data messages across all runs.
        pub data_words: u64,
        /// Scatter words across all runs.
        pub scatter_words: u64,
        /// Exchange words across all runs.
        pub exchange_words: u64,
        /// Writeback words across all runs.
        pub writeback_words: u64,
        /// Gather words across all runs.
        pub gather_words: u64,
        /// Barrier control messages across all runs.
        pub barrier_messages: u64,
        /// Critical-path messages summed over runs.
        pub critical_path_messages: u64,
        /// Largest per-rank word total any single run observed (a
        /// high-watermark: `since` keeps the later snapshot's value).
        pub max_rank_words: u64,
    }

    impl CommSnapshot {
        /// Counter deltas since an earlier snapshot (`max_rank_words` is a
        /// high-watermark and is carried over, not subtracted).
        pub fn since(&self, earlier: &CommSnapshot) -> CommSnapshot {
            CommSnapshot {
                runs: self.runs - earlier.runs,
                supersteps: self.supersteps - earlier.supersteps,
                data_messages: self.data_messages - earlier.data_messages,
                data_words: self.data_words - earlier.data_words,
                scatter_words: self.scatter_words - earlier.scatter_words,
                exchange_words: self.exchange_words - earlier.exchange_words,
                writeback_words: self.writeback_words - earlier.writeback_words,
                gather_words: self.gather_words - earlier.gather_words,
                barrier_messages: self.barrier_messages - earlier.barrier_messages,
                critical_path_messages: self.critical_path_messages
                    - earlier.critical_path_messages,
                max_rank_words: self.max_rank_words,
            }
        }
    }

    /// Mirror one distributed run's totals into the process counters.
    pub fn record_run(run: &RunComm) {
        RUNS.fetch_add(1, Ordering::Relaxed);
        SUPERSTEPS.fetch_add(run.supersteps, Ordering::Relaxed);
        DATA_MESSAGES.fetch_add(run.data_messages, Ordering::Relaxed);
        DATA_WORDS.fetch_add(run.data_words, Ordering::Relaxed);
        SCATTER_WORDS.fetch_add(run.scatter_words, Ordering::Relaxed);
        EXCHANGE_WORDS.fetch_add(run.exchange_words, Ordering::Relaxed);
        WRITEBACK_WORDS.fetch_add(run.writeback_words, Ordering::Relaxed);
        GATHER_WORDS.fetch_add(run.gather_words, Ordering::Relaxed);
        BARRIER_MESSAGES.fetch_add(run.barrier_messages, Ordering::Relaxed);
        CRITICAL_PATH_MESSAGES.fetch_add(run.critical_path_messages, Ordering::Relaxed);
        MAX_RANK_WORDS.fetch_max(run.max_rank_words(), Ordering::Relaxed);
        for (rank, &w) in run.rank_words.iter().enumerate() {
            RANK_WORDS[rank % MAX_RANK_SLOTS].fetch_add(w, Ordering::Relaxed);
        }
        for (rank, &m) in run.rank_messages.iter().enumerate() {
            RANK_MESSAGES[rank % MAX_RANK_SLOTS].fetch_add(m, Ordering::Relaxed);
        }
    }

    /// Read the current process-wide communication counters at once.
    pub fn snapshot() -> CommSnapshot {
        CommSnapshot {
            runs: RUNS.load(Ordering::Relaxed),
            supersteps: SUPERSTEPS.load(Ordering::Relaxed),
            data_messages: DATA_MESSAGES.load(Ordering::Relaxed),
            data_words: DATA_WORDS.load(Ordering::Relaxed),
            scatter_words: SCATTER_WORDS.load(Ordering::Relaxed),
            exchange_words: EXCHANGE_WORDS.load(Ordering::Relaxed),
            writeback_words: WRITEBACK_WORDS.load(Ordering::Relaxed),
            gather_words: GATHER_WORDS.load(Ordering::Relaxed),
            barrier_messages: BARRIER_MESSAGES.load(Ordering::Relaxed),
            critical_path_messages: CRITICAL_PATH_MESSAGES.load(Ordering::Relaxed),
            max_rank_words: MAX_RANK_WORDS.load(Ordering::Relaxed),
        }
    }

    /// Words sent + received per rank slot, trailing zeros trimmed.
    pub fn rank_words() -> Vec<u64> {
        let mut v: Vec<u64> = RANK_WORDS
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }

    /// Data messages sent + received per rank slot, trailing zeros trimmed.
    pub fn rank_messages() -> Vec<u64> {
        let mut v: Vec<u64> = RANK_MESSAGES
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn comm_counters_accumulate_and_diff() {
            let before = snapshot();
            let run = RunComm {
                supersteps: 3,
                data_messages: 10,
                data_words: 100,
                scatter_words: 40,
                exchange_words: 30,
                writeback_words: 20,
                gather_words: 10,
                barrier_messages: 12,
                critical_path_messages: 9,
                rank_words: vec![60, 40],
                rank_messages: vec![6, 4],
            };
            assert_eq!(run.max_rank_words(), 60);
            assert!((run.mean_rank_words() - 50.0).abs() < 1e-12);
            record_run(&run);
            let delta = snapshot().since(&before);
            assert_eq!(delta.runs, 1);
            assert_eq!(delta.supersteps, 3);
            assert_eq!(delta.data_messages, 10);
            assert_eq!(delta.data_words, 100);
            assert_eq!(
                delta.scatter_words
                    + delta.exchange_words
                    + delta.writeback_words
                    + delta.gather_words,
                100
            );
            assert_eq!(delta.barrier_messages, 12);
            assert_eq!(delta.critical_path_messages, 9);
            assert!(delta.max_rank_words >= 60);
            let rw = rank_words();
            assert!(rw.len() >= 2 && rw[0] >= 60 && rw[1] >= 40);
            assert!(rank_messages().len() >= 2);
        }
    }
}

/// Per-processor tallies of an arbitrary additive quantity (work, cache misses,
/// bytes moved, tasks executed, ...).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    per_proc: Vec<u64>,
}

impl Counters {
    /// Counters for `p` processors, all zero.
    pub fn new(p: usize) -> Self {
        Self {
            per_proc: vec![0; p],
        }
    }

    /// Number of processors tracked.
    pub fn p(&self) -> usize {
        self.per_proc.len()
    }

    /// Add `amount` to processor `proc`.
    pub fn add(&mut self, proc: usize, amount: u64) {
        self.per_proc[proc] += amount;
    }

    /// The tally of processor `proc`.
    pub fn get(&self, proc: usize) -> u64 {
        self.per_proc[proc]
    }

    /// Raw per-processor tallies.
    pub fn per_proc(&self) -> &[u64] {
        &self.per_proc
    }

    /// Overall quantity summed over all processors (`T^Σ_p` / `Q^Σ_p`).
    pub fn total(&self) -> u64 {
        self.per_proc.iter().sum()
    }

    /// Maximum over processors, i.e. along a critical path (`T^max_p` / `Q^max_p`).
    pub fn max(&self) -> u64 {
        self.per_proc.iter().copied().max().unwrap_or(0)
    }

    /// Minimum over processors.
    pub fn min(&self) -> u64 {
        self.per_proc.iter().copied().min().unwrap_or(0)
    }

    /// Arithmetic mean per processor.
    pub fn mean(&self) -> f64 {
        if self.per_proc.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.per_proc.len() as f64
        }
    }

    /// Load-imbalance ratio `max / mean` (1.0 = perfectly balanced).
    ///
    /// The paper's perfect-strong-scaling definition requires the imbalance to be
    /// an asymptotically smaller term, i.e. `max/mean → 1` as the problem grows.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            1.0
        } else {
            self.max() as f64 / mean
        }
    }

    /// Merge another set of counters (same `p`) into this one element-wise.
    pub fn merge(&mut self, other: &Counters) {
        assert_eq!(self.p(), other.p(), "merging counters of different p");
        for (a, b) in self.per_proc.iter_mut().zip(other.per_proc.iter()) {
            *a += b;
        }
    }
}

/// Number of power-of-two latency buckets tracked by [`LatencyHistogram`];
/// bucket `i` covers `[2^i, 2^(i+1))` nanoseconds, so 64 buckets span from
/// 1 ns to ~584 years.
pub const LATENCY_BUCKETS: usize = 64;

/// A lock-free log₂-bucketed latency histogram.
///
/// Wall-clock means and single observations are untrustworthy on a shared
/// container, but *percentiles over thousands of requests* are a stable
/// signal — and a fixed array of atomic bucket counters lets producers and
/// executors record without a lock.  The resolution cost is a
/// factor-of-two bucket width: a reported percentile is the upper bound of
/// the bucket holding that observation.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; LATENCY_BUCKETS],
        }
    }

    /// Record one observed latency.
    #[inline]
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        // floor(log2(ns)) with 0 → bucket 0.
        let bucket = (63 - ns.max(1).leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> LatencySnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (out, counter) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = counter.load(Ordering::Relaxed);
        }
        LatencySnapshot { buckets }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`]'s bucket counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Observation counts per power-of-two bucket; bucket `i` covers
    /// `[2^i, 2^(i+1))` nanoseconds.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencySnapshot {
    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile latency (`0.0 < q <= 1.0`), as the upper bound of
    /// the bucket holding that observation; `None` if the histogram is
    /// empty.
    pub fn percentile(&self, q: f64) -> Option<Duration> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the wanted observation, 1-based, at least 1.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper_ns = 1u128 << (i + 1);
                return Some(Duration::from_nanos(upper_ns.min(u64::MAX as u128) as u64));
            }
        }
        unreachable!("rank <= count, so some bucket reaches it")
    }

    /// Bucket-count deltas since an earlier snapshot.
    pub fn since(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (i, out) in buckets.iter_mut().enumerate() {
            *out = self.buckets[i] - earlier.buckets[i];
        }
        LatencySnapshot { buckets }
    }
}

/// A simple wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

impl Stopwatch {
    /// Start (or restart) timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Time a closure, returning `(result, seconds)`.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::start();
    let r = f();
    (r, sw.elapsed_secs())
}

/// Minimum running time over `runs` executions of `f` (the paper measures the
/// min of at least three independent runs to avoid averaging noise).
pub fn min_time_of<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    assert!(runs >= 1);
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let (_, t) = time_it(&mut f);
        best = best.min(t);
    }
    best
}

/// Speedup percentage of `ours` relative to `peer`, following the paper:
/// `(time_peer / time_ours − 1) × 100%`.
pub fn speedup_percent(peer_secs: f64, ours_secs: f64) -> f64 {
    (peer_secs / ours_secs - 1.0) * 100.0
}

/// Achieved FLOP rate for a matrix multiplication `C = C + A×B` of dimensions
/// `n × k` times `k × m`: `2·n·m·k / seconds` (the paper's `Rmax` convention:
/// nmk multiplications plus nmk additions).
pub fn mm_flops(n: usize, m: usize, k: usize, seconds: f64) -> f64 {
    2.0 * n as f64 * m as f64 * k as f64 / seconds
}

/// Summary statistics of a series of observations (used for the "Mean"/"Median"
/// annotations of the paper's figures).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (average of the two central elements for even lengths).
    pub median: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

/// Compute mean/median/min/max of a non-empty slice.
pub fn series_stats(values: &[f64]) -> SeriesStats {
    assert!(!values.is_empty(), "series_stats on empty slice");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    SeriesStats {
        mean: sorted.iter().sum::<f64>() / n as f64,
        median,
        min: sorted[0],
        max: sorted[n - 1],
    }
}

/// Bucket a series of values into a histogram with `bucket_width`-sized buckets
/// aligned at multiples of the width; returns `(bucket_lower_bound, count)`
/// pairs in increasing order.  Used to reproduce Fig. 11's frequency plots.
pub fn histogram(values: &[f64], bucket_width: f64) -> Vec<(f64, usize)> {
    assert!(bucket_width > 0.0);
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<i64, usize> = BTreeMap::new();
    for &v in values {
        let idx = (v / bucket_width).floor() as i64;
        *buckets.entry(idx).or_insert(0) += 1;
    }
    buckets
        .into_iter()
        .map(|(idx, count)| (idx as f64 * bucket_width, count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_total_max_imbalance() {
        let mut c = Counters::new(4);
        c.add(0, 10);
        c.add(1, 10);
        c.add(2, 10);
        c.add(3, 10);
        assert_eq!(c.total(), 40);
        assert_eq!(c.max(), 10);
        assert_eq!(c.min(), 10);
        assert!((c.imbalance() - 1.0).abs() < 1e-12);

        c.add(3, 30);
        assert_eq!(c.total(), 70);
        assert_eq!(c.max(), 40);
        assert!(c.imbalance() > 2.0);
    }

    #[test]
    fn counters_merge() {
        let mut a = Counters::new(2);
        a.add(0, 5);
        let mut b = Counters::new(2);
        b.add(0, 1);
        b.add(1, 2);
        a.merge(&b);
        assert_eq!(a.per_proc(), &[6, 2]);
    }

    #[test]
    fn empty_counters() {
        let c = Counters::new(0);
        assert_eq!(c.total(), 0);
        assert_eq!(c.max(), 0);
        assert!((c.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_and_flops() {
        assert!((speedup_percent(2.0, 1.0) - 100.0).abs() < 1e-12);
        assert!((speedup_percent(1.0, 1.0)).abs() < 1e-12);
        assert!((mm_flops(10, 10, 10, 1.0) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn stats_median_even_odd() {
        let s = series_stats(&[1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        let s = series_stats(&[4.0, 1.0, 3.0, 2.0]);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets() {
        let h = histogram(&[0.1, 0.2, 5.1, 10.0, -0.5], 5.0);
        assert_eq!(h, vec![(-5.0, 1), (0.0, 2), (5.0, 1), (10.0, 1)]);
    }

    #[test]
    fn latency_histogram_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().percentile(0.5), None);
        // 99 fast observations in [1µs, 2µs), one slow in [1ms, 2ms).
        for _ in 0..99 {
            h.record(Duration::from_nanos(1_500));
        }
        h.record(Duration::from_nanos(1_500_000));
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        // p50 and p99 land in the fast bucket (upper bound 2^11 ns),
        // p100 in the slow one (upper bound 2^21 ns).
        assert_eq!(snap.percentile(0.5), Some(Duration::from_nanos(1 << 11)));
        assert_eq!(snap.percentile(0.99), Some(Duration::from_nanos(1 << 11)));
        assert_eq!(snap.percentile(1.0), Some(Duration::from_nanos(1 << 21)));
        // Deltas subtract bucket-wise.
        let empty = snap.since(&snap);
        assert_eq!(empty.count(), 0);
        // Zero-duration observations land in bucket 0 and report the
        // smallest upper bound rather than panicking.
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.snapshot().percentile(0.5), Some(Duration::from_nanos(2)));
    }

    #[test]
    fn timing_helpers_run() {
        let (v, t) = time_it(|| 42);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
        let best = min_time_of(3, || std::hint::black_box(1 + 1));
        assert!(best >= 0.0);
    }
}
