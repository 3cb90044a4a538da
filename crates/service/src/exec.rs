//! The executor core shared by the synchronous [`Session`](crate::Session)
//! and the concurrent [`Engine`](crate::Engine).
//!
//! A [`PassCore`] owns one pinned [`WorkerPool`] plus the [`Tuning`] every
//! request is compiled with, and knows how to run a *pass*: merge a batch of
//! compiled requests wave-by-wave ([`Plan::batch`]), execute the merged plan
//! through one pool traversal, and settle each request's output slot —
//! [`Done`](SlotState::Done) on success, [`Poisoned`](SlotState::Poisoned)
//! for the whole pass if any step panicked.  `Session::flush` is exactly one
//! such pass on the caller's thread; an `Engine` shard is the same core
//! driven by its own executor thread under a coalescing policy.

use crate::client::SubmitOptions;
use crate::policy::Priority;
use crate::session::RunStats;
use crate::solve::Prepared;
use crate::ticket::{self, Slot, SlotState};
use paco_core::metrics::sched;
use paco_core::tuning::Tuning;
use paco_runtime::schedule::Plan;
use paco_runtime::WorkerPool;
use parking_lot::Mutex;
use std::any::Any;
use std::time::Instant;

/// A compiled request waiting for a pass, paired with the slot its output
/// will be delivered through and the admission metadata the engine's
/// queues honour (priority class, optional deadline, submission time for
/// the latency gauges).
pub(crate) struct PendingRequest {
    pub(crate) prepared: Box<dyn Prepared>,
    pub(crate) slot: Slot,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Instant>,
    pub(crate) submitted_at: Instant,
}

impl PendingRequest {
    pub(crate) fn new(prepared: Box<dyn Prepared>, slot: Slot, opts: SubmitOptions) -> Self {
        Self {
            prepared,
            slot,
            priority: opts.priority,
            deadline: opts.deadline,
            submitted_at: Instant::now(),
        }
    }

    /// The compiled request's step count — the size measure the
    /// size-balanced router weighs shards by.
    pub(crate) fn steps(&self) -> usize {
        self.prepared.skeleton().steps()
    }

    /// Whether the request's deadline has passed as of `now`.  Checked when
    /// an executor dequeues the request — the one place every queued request
    /// flows through — never mid-pass.
    pub(crate) fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|deadline| now >= deadline)
    }
}

/// One pool, one tuning, one pass at a time.
pub(crate) struct PassCore {
    pool: WorkerPool,
    tuning: Tuning,
    last: Mutex<RunStats>,
}

impl PassCore {
    pub(crate) fn new(p: usize, tuning: Tuning) -> Self {
        Self {
            pool: WorkerPool::new(p),
            tuning,
            last: Mutex::new(RunStats::default()),
        }
    }

    pub(crate) fn p(&self) -> usize {
        self.pool.p()
    }

    pub(crate) fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    /// Mutate the tuning and bump its [`Tuning::epoch`] so skeletons cached
    /// under the old knobs can never be replayed.
    pub(crate) fn update_tuning(&mut self, mutate: impl FnOnce(&mut Tuning)) {
        mutate(&mut self.tuning);
        self.tuning.bump_epoch();
    }

    pub(crate) fn last_stats(&self) -> RunStats {
        *self.last.lock()
    }

    /// Gracefully drain and join the pool's workers (loud version of what
    /// dropping the core would do silently).
    pub(crate) fn shutdown(self) {
        self.pool.shutdown();
    }

    /// Execute one already-compiled request on the pool (the `Session::run`
    /// fast path: no slot, no type erasure of the output).
    pub(crate) fn run_one(&self, prepared: &mut Box<dyn Prepared>) -> Box<dyn Any + Send> {
        self.record(1, || {
            prepared
                .skeleton()
                .execute(&self.pool, |proc, &idx| prepared.run_step(proc, idx));
        });
        prepared.take_output()
    }

    /// One pool pass over many compiled requests: zip their skeletons
    /// wave-by-wave and tag every step with its request index.  The merge
    /// borrows the skeletons ([`Plan::batch_refs`]) — they are usually
    /// shared with the plan cache, and a coalesced pass must not deep-copy
    /// what caching just avoided compiling.
    pub(crate) fn execute_merged(&self, prepared: &[&dyn Prepared]) {
        let plans: Vec<&Plan<usize>> = prepared.iter().map(|p| p.skeleton()).collect();
        let merged = Plan::batch_refs(&plans);
        self.record(prepared.len() as u64, || {
            merged.execute(&self.pool, |proc, &(inst, idx)| {
                prepared[inst].run_step(proc, idx);
            });
        });
    }

    /// Run one pass over a batch of pending requests and settle every slot.
    ///
    /// On success each slot becomes [`SlotState::Done`] and the request
    /// count is returned.  If any step panics, *every* slot of the pass is
    /// poisoned (the requests' shared state may be half-written, so no
    /// output can be salvaged) and the panic payload is handed back — the
    /// synchronous caller re-throws it, the engine executor records it and
    /// keeps serving.
    pub(crate) fn run_pass(
        &self,
        pending: &mut [PendingRequest],
    ) -> Result<usize, Box<dyn Any + Send>> {
        if pending.is_empty() {
            return Ok(0);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let prepared: Vec<&dyn Prepared> = pending.iter().map(|p| &*p.prepared).collect();
            self.execute_merged(&prepared);
        }));
        if let Err(payload) = outcome {
            for p in pending.iter() {
                ticket::resolve(&p.slot, SlotState::Poisoned);
            }
            return Err(payload);
        }
        for p in pending.iter_mut() {
            let out = p.prepared.take_output();
            ticket::resolve(&p.slot, SlotState::Done(out));
        }
        Ok(pending.len())
    }

    /// Run `execute` and record the scheduling-counter delta it produced as
    /// the core's latest [`RunStats`].
    pub(crate) fn record(&self, requests: u64, execute: impl FnOnce()) {
        let before = sched::snapshot();
        execute();
        let delta = sched::snapshot().since(&before);
        *self.last.lock() = RunStats {
            requests,
            plan_waves: delta.plan_waves,
            plan_steps: delta.plan_steps,
            pool_barriers: delta.pool_barriers,
        };
    }
}
