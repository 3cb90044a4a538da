//! Execution backend selection and the distributed bridge.
//!
//! [`Backend::Distributed`] reroutes eligible requests through
//! [`paco_dist`]'s shared-nothing superstep executor instead of the shared
//! worker pool.  The two-phase [`Solve`](crate::Solve) contract is
//! unchanged: the skeleton is compiled (and cached) for `ranks` processors
//! exactly as a local skeleton would be for `p`, the lowering of that
//! skeleton into a communication schedule is cached right next to it
//! ([`LowerCache`]), and the bound result is a perfectly ordinary
//! [`Prepared`] whose single step runs the whole scatter → superstep →
//! gather pipeline — so sessions, batches, tickets and engine shards all
//! work identically on either backend.

use crate::solve::{Compiled, Prepared};
use paco_core::machine::Placement;
use paco_dist::{run_lowered, DistWorkload, LowerCache, SuperstepPlan};
use paco_runtime::schedule::{Plan, Step};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;

/// Where a session or engine executes its requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// The shared-memory worker pool (the default): every request runs its
    /// plan on `p` workers over shared tables.
    #[default]
    Local,
    /// The shared-nothing superstep emulation: every eligible request runs
    /// its plan as `ranks` message-passing ranks with private memory and
    /// exact communication accounting (`paco_core::metrics::comm`).
    /// Requests without a distributed binding (sort, 1-D DP, GAP,
    /// heterogeneous MM, degenerate shapes) transparently fall back to the
    /// local pool.
    Distributed {
        /// Number of ranks to emulate; plans are compiled for this count.
        ranks: usize,
    },
}

/// The bridge from a lowered distributed run to the [`Prepared`] contract:
/// a one-step skeleton whose single step executes the entire superstep
/// pipeline.  This is what lets distributed requests ride the existing
/// session/engine machinery (batching, tickets, poisoning) untouched.
struct DistPrepared<W: DistWorkload, P> {
    skeleton: Arc<Plan<usize>>,
    payload: Arc<P>,
    plan_of: fn(&P) -> &Plan<W::Job>,
    placement: Placement,
    sp: Arc<SuperstepPlan>,
    workload: Mutex<Option<W>>,
    out: Mutex<Option<W::Output>>,
}

impl<W, P> Prepared for DistPrepared<W, P>
where
    W: DistWorkload + Send + 'static,
    W::Output: Send + 'static,
    P: Send + Sync + 'static,
{
    fn skeleton(&self) -> &Plan<usize> {
        &self.skeleton
    }

    fn run_step(&self, _proc: usize, _idx: usize) {
        let w = self
            .workload
            .lock()
            .take()
            .expect("distributed run already executed");
        let plan = (self.plan_of)(&self.payload);
        let (out, _stats) = run_lowered(&w, plan, &self.placement, &self.sp);
        *self.out.lock() = Some(out);
    }

    fn take_output(&mut self) -> Box<dyn Any + Send> {
        Box::new(
            self.out
                .lock()
                .take()
                .expect("distributed output already taken"),
        )
    }
}

/// Compile a distributed workload into a [`Compiled`] value: fetch (or
/// lower and cache) the communication schedule for the skeleton payload
/// under a block-cyclic placement over `ranks`, then wrap the run behind a
/// one-step bridge skeleton.  `plan_of` projects the typed wave plan out of
/// the payload (`&MmPlan -> &Plan<MmJob>`, …) so the bridge never clones
/// the cached plan.
pub(crate) fn compile_dist<W, P>(
    workload: W,
    payload: Arc<P>,
    plan_of: fn(&P) -> &Plan<W::Job>,
    ranks: usize,
    lower: &LowerCache,
) -> Compiled<W::Output>
where
    W: DistWorkload + Send + 'static,
    W::Output: Send + 'static,
    P: Send + Sync + 'static,
{
    let placement = Placement::new(ranks, Placement::DEFAULT_BLOCK);
    let sp = lower.get_or_lower(
        Arc::clone(&payload) as Arc<dyn Any + Send + Sync>,
        &workload,
        plan_of(&payload),
        &placement,
    );
    Compiled::from_prepared(Box::new(DistPrepared {
        skeleton: Arc::new(Plan::single_wave(1, vec![Step { proc: 0, job: 0 }])),
        payload,
        plan_of,
        placement,
        sp,
        workload: Mutex::new(Some(workload)),
        out: Mutex::new(None),
    }))
}
