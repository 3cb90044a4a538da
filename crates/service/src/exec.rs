//! The executor core shared by the synchronous [`Session`](crate::Session)
//! and the concurrent [`Engine`](crate::Engine).
//!
//! A [`PassCore`] owns one [`WorkerPool`] plus the [`Tuning`] every
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
use crate::solve::{Compiled, Prepared, StateAccess};
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
    /// The closed-graph state the request touches, for the pass cut.
    access: Option<StateAccess>,
    pub(crate) slot: Slot,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Instant>,
    pub(crate) submitted_at: Instant,
}

impl PendingRequest {
    pub(crate) fn new<O>(compiled: Compiled<O>, slot: Slot, opts: SubmitOptions) -> Self {
        Self {
            prepared: compiled.inner,
            access: compiled.access,
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
    fn execute_merged(&self, prepared: &[&dyn Prepared]) {
        let plans: Vec<&Plan<usize>> = prepared.iter().map(|p| p.skeleton()).collect();
        Plan::batch_refs(&plans).execute(&self.pool, |proc, &(inst, idx)| {
            prepared[inst].run_step(proc, idx);
        });
    }

    /// Run a batch of pending requests and settle every slot, in as few
    /// pool passes as request order allows: a pass ends before a request
    /// that touches a closed-graph state another request of the pass
    /// commits to at finish ([`StateAccess::AtFinish`]), and the rest runs
    /// as the next pass.  Outputs are taken (and re-closures committed)
    /// after each pass, so every request that records its state sees the
    /// effects of the requests on that state before it.
    ///
    /// On success each slot becomes [`SlotState::Done`] and the request
    /// count is returned.  If any step panics, every slot of that pass and
    /// of the passes after it is *poisoned* (the requests' shared state may
    /// be half-written, so no output can be salvaged) and the panic payload
    /// is handed back — the synchronous caller re-throws it, the engine
    /// executor records it and keeps serving.
    pub(crate) fn run_pass(
        &self,
        pending: &mut [PendingRequest],
    ) -> Result<usize, Box<dyn Any + Send>> {
        if pending.is_empty() {
            return Ok(0);
        }
        self.record(pending.len() as u64, || {
            let mut start = 0;
            while start < pending.len() {
                let rest = &mut pending[start..];
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let len = pass_len(rest);
                    let prepared: Vec<&dyn Prepared> =
                        rest[..len].iter().map(|p| &*p.prepared).collect();
                    self.execute_merged(&prepared);
                    len
                }));
                let len = match outcome {
                    Ok(len) => len,
                    Err(payload) => {
                        for p in rest.iter() {
                            ticket::resolve(&p.slot, SlotState::Poisoned);
                        }
                        return Err(payload);
                    }
                };
                for p in &mut rest[..len] {
                    let out = p.prepared.take_output();
                    ticket::resolve(&p.slot, SlotState::Done(out));
                }
                start += len;
            }
            Ok(pending.len())
        })
    }

    /// Run `execute` and record the scheduling-counter delta it produced as
    /// the core's latest [`RunStats`].
    fn record<R>(&self, requests: u64, execute: impl FnOnce() -> R) -> R {
        let before = sched::snapshot();
        let out = execute();
        let delta = sched::snapshot().since(&before);
        *self.last.lock() = RunStats {
            requests,
            plan_waves: delta.plan_waves,
            plan_steps: delta.plan_steps,
            pool_barriers: delta.pool_barriers,
        };
        out
    }
}

/// How many requests from the front of `pending` may share one pass: all
/// of them, unless one touches a state that an earlier request of the
/// prefix commits to at finish.  Allocates nothing, and reads each request
/// once, when no request commits at finish.
fn pass_len(pending: &[PendingRequest]) -> usize {
    let mut committing: Vec<usize> = Vec::new();
    for (i, p) in pending.iter().enumerate() {
        match p.access {
            Some(access) if committing.contains(&access.state()) => return i,
            Some(StateAccess::AtFinish(state)) => committing.push(state),
            _ => {}
        }
    }
    pending.len()
}
