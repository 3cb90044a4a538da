//! The two-phase [`Solve`] contract and the type-erased compiled form the
//! session schedules.
//!
//! Compilation is split along the paper's workload-independence claim: the
//! pruned-BFS assignment depends only on `(shape, p, tuning)`, never on the
//! request's data.  So a request first compiles a [`Skeleton`] — the
//! index-level wave plan plus the workload's shape-only plan payload — and
//! then *binds* its actual buffers to that skeleton to produce the runnable
//! [`Compiled`] value.  Skeletons are immutable and cheaply clonable
//! (`Arc`s all the way down), which is what makes the service layer's
//! keyed skeleton cache possible: `N` same-shaped requests compile once and
//! bind `N` times.
//!
//! A [`Compiled`] value pairs an *index skeleton* (the workload's wave plan
//! with every job replaced by its position in schedule order) with the
//! shared state the steps interpret.  Erasing the job type at the step
//! level — rather than forcing every workload into one giant job enum —
//! lets the session batch arbitrary mixes of workloads with the stock
//! [`Plan::batch`] wave-zip while each workload keeps its own typed plan
//! and fully monomorphized kernels.

use paco_core::arena::ScratchArena;
use paco_core::proc_list::ProcId;
use paco_core::tuning::Tuning;
use paco_runtime::schedule::{Plan, Step};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

/// The cacheable identity of a request's schedule: which workload it is
/// plus every data-independent dimension its plan depends on.
///
/// Two requests with equal shape keys compile to identical skeletons under
/// the same `(p, tuning)` — that is the contract [`Solve::shape_key`]
/// implementations must uphold, and the reason the service layer may serve
/// one request's [`Skeleton`] to another.  Tuning knobs are deliberately
/// *not* part of the key; the cache covers them with the
/// [`Tuning::epoch`] counter instead, so mutating a knob (which bumps the
/// epoch) invalidates every cached skeleton at once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    kind: &'static str,
    dims: Vec<u64>,
}

impl ShapeKey {
    /// A key for workload `kind` with the given data-independent
    /// dimensions.  `kind` must be unique per workload type (the request
    /// structs use their own names); `dims` must capture **every**
    /// request-derived value the plan depends on — lengths, matrix sides,
    /// and for heterogeneous MM the throughput fractions (as `f64` bits).
    pub fn new(kind: &'static str, dims: impl IntoIterator<Item = u64>) -> Self {
        Self {
            kind,
            dims: dims.into_iter().collect(),
        }
    }

    pub(crate) fn kind(&self) -> &'static str {
        self.kind
    }

    pub(crate) fn dims(&self) -> &[u64] {
        &self.dims
    }
}

/// A compiled, data-free schedule: the shape-only phase of a request.
///
/// Holds the index-level wave plan (jobs are flat step indices), the table
/// mapping each flat index back to `(wave, position)` of the workload's
/// typed plan, and the workload's own compiled plan (`PacoLcsPlan`,
/// `FwPlan`, `MmPlan`, …) as a type-erased payload.  Everything is behind
/// an `Arc`: cloning a skeleton is O(1), and binding never copies the
/// plan — which is exactly what lets a cached skeleton serve any number of
/// concurrent requests.
#[derive(Clone)]
pub struct Skeleton {
    index: Arc<Plan<usize>>,
    /// `lookup[flat] = (wave, position)` into the payload's typed plan.
    lookup: Arc<Vec<(usize, usize)>>,
    payload: Arc<dyn Any + Send + Sync>,
}

impl std::fmt::Debug for Skeleton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Skeleton(steps={}, waves={})",
            self.steps(),
            self.waves()
        )
    }
}

impl Skeleton {
    /// Build a skeleton from a workload's typed plan, flattening the waves
    /// into schedule-order step indices once.  `payload` is the workload's
    /// compiled plan; [`Solve::bind`] gets it back via
    /// [`Skeleton::payload`] to construct the bound run.
    pub fn new<J, P: Send + Sync + 'static>(payload: Arc<P>, plan: &Plan<J>) -> Self {
        let mut lookup = Vec::with_capacity(plan.steps());
        let waves = plan
            .waves()
            .iter()
            .enumerate()
            .map(|(w, wave)| {
                wave.iter()
                    .enumerate()
                    .map(|(i, step)| {
                        let flat = lookup.len();
                        lookup.push((w, i));
                        Step {
                            proc: step.proc,
                            job: flat,
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            index: Arc::new(Plan::from_waves(plan.p(), waves)),
            lookup: Arc::new(lookup),
            payload,
        }
    }

    /// The index-level wave plan (jobs are flat step indices).  Custom
    /// [`Prepared`] implementations built through
    /// [`Compiled::from_prepared`] can serve this as their skeleton.
    pub fn index(&self) -> &Arc<Plan<usize>> {
        &self.index
    }

    /// Total placed steps of the schedule — the size measure the engine's
    /// size-balanced router weighs shards by, read off the cache instead of
    /// compiling.
    pub fn steps(&self) -> usize {
        self.index.steps()
    }

    /// Wave (barrier) count of the schedule.
    pub fn waves(&self) -> usize {
        self.index.waves().len()
    }

    /// Recover the typed plan payload stashed by [`Skeleton::new`], or
    /// `None` if `P` is not the payload's type.  The request impls in this
    /// crate `expect` this — a mismatch means a [`Solve::bind`] was handed
    /// a skeleton compiled by a different workload, which the cache keying
    /// rules out.
    pub fn payload<P: Send + Sync + 'static>(&self) -> Option<Arc<P>> {
        Arc::downcast(Arc::clone(&self.payload)).ok()
    }
}

/// A typed request the [`Session`](crate::Session) can execute.
///
/// Compilation is two-phase:
///
/// 1. **Skeleton** ([`Solve::skeleton`]) — partitioning, pivot-free plan
///    building, pruned-BFS placement: everything that depends only on the
///    request's *shape* ([`Solve::shape_key`]), the processor count and the
///    tuning.  Expensive, and cached by the service layer keyed on
///    `(shape_key, p, tuning.epoch)`.
/// 2. **Bind** ([`Solve::bind`]) — attach the request's actual buffers
///    (sequences, matrices, keys) to the skeleton, producing the runnable
///    [`Compiled<Self::Output>`].  Cheap: allocates the output/table state
///    and clones `Arc`s, never re-plans.
///
/// The session then executes the compiled value alone or batched with
/// others and hands the output back as [`Solve::Output`].  Callers that
/// don't care about caching use the provided [`Solve::compile`], which is
/// exactly skeleton + bind.
pub trait Solve {
    /// The result type of the request.
    type Output: Send + 'static;

    /// The cache key: workload kind + every data-independent dimension the
    /// plan depends on.  Equal keys must yield identical skeletons under
    /// equal `(p, tuning)`.
    fn shape_key(&self) -> ShapeKey;

    /// Compile the shape-only skeleton for `p` processors under `tuning`
    /// (phase 1 — expensive, cacheable).
    fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton;

    /// Compile the skeleton the plan cache files under `key`, which this
    /// request's [`Solve::shape_key`] just returned.  The default ignores
    /// `key` and calls [`Solve::skeleton`].  A request whose key reads
    /// mutable state ([`IncUpdate`](crate::IncUpdate) classifies its batch
    /// against the handle) builds from `key` instead, so a state change
    /// between the two calls cannot file a skeleton under a key it does not
    /// match.
    fn skeleton_for(&self, key: &ShapeKey, tuning: &Tuning, p: usize) -> Skeleton {
        let _ = key;
        self.skeleton(tuning, p)
    }

    /// Bind this request's data to an already-compiled skeleton (phase 2 —
    /// cheap).  `skeleton` must have been produced by [`Solve::skeleton`]
    /// on a request with the same [`Solve::shape_key`] under the same
    /// `(p, tuning)` knobs — the skeleton cache's keying guarantees this.
    /// `arena` is the caller's scratch pool: binds are free to check their
    /// temporary buffers out of it (and return them at finish), so repeated
    /// binds through the same session/shard recycle allocations across
    /// passes.  Implementations may also ignore it entirely.
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        p: usize,
        arena: &Arc<ScratchArena>,
    ) -> Compiled<Self::Output>;

    /// Bind this request's data to an already-compiled skeleton for
    /// execution on the shared-nothing distributed backend
    /// ([`Backend::Distributed`](crate::Backend)) over `ranks` ranks.
    ///
    /// Returns `Err(self)` — the request back, untouched — when the
    /// workload has no distributed lowering (sort, 1-D DP, GAP,
    /// heterogeneous MM) or the instance is degenerate (empty sequences,
    /// zero-sized matrices); the session/engine then binds it on the local
    /// pool instead, so a distributed session never rejects a request.
    /// `skeleton` must have been compiled by [`Solve::skeleton`] with
    /// `p = ranks`.  `lower` caches the communication schedule per
    /// (skeleton payload, placement), exactly as the skeleton cache covers
    /// the plan.
    fn bind_dist(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        ranks: usize,
        arena: &Arc<ScratchArena>,
        lower: &paco_dist::LowerCache,
    ) -> Result<Compiled<Self::Output>, Self>
    where
        Self: Sized,
    {
        let _ = (skeleton, tuning, ranks, arena, lower);
        Err(self)
    }

    /// Routing affinity for multi-shard [`Engine`](crate::Engine)s: requests
    /// returning the same `Some(hint)` land on the same shard (`hint %
    /// shards`), so state-carrying requests (the incremental-closure
    /// family, which hints with its handle id) keep one graph's traffic on
    /// one shard's queue, cache and arena.  `None` — the default, and right
    /// for every stateless workload — defers to the engine's configured
    /// [`Routing`](crate::Routing) policy.  This is an *affinity*, not a
    /// correctness mechanism: shared state must stay safe wherever the
    /// request executes.
    fn route_hint(&self) -> Option<u64> {
        None
    }

    /// Compile for `p` processors under `tuning`: skeleton + bind, without
    /// a cache (and with a private single-use scratch arena).
    fn compile(self, p: usize, tuning: &Tuning) -> Compiled<Self::Output>
    where
        Self: Sized,
    {
        let skeleton = self.skeleton(tuning, p);
        self.bind(&skeleton, tuning, p, &Arc::new(ScratchArena::new()))
    }
}

/// A compiled request: schedule skeleton + step interpreter + deferred
/// output.  All methods except [`Prepared::take_output`] take `&self` because
/// steps run concurrently from the pool's workers; the shared state inside
/// uses the same wave-discipline interior mutability as the workload crates.
pub trait Prepared: Send + Sync {
    /// The wave schedule; jobs are indices into the compiled step list.
    fn skeleton(&self) -> &Plan<usize>;

    /// Interpret step `idx` on processor `proc`.
    fn run_step(&self, proc: ProcId, idx: usize);

    /// Extract the output after the skeleton has executed.  Panics if called
    /// twice.
    fn take_output(&mut self) -> Box<dyn Any + Send>;
}

/// How a compiled request touches a closed-graph state, named by the
/// address of the state's lock.  The executor ends a pass before a request
/// that touches a state another request of the pass commits to at finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StateAccess {
    /// Reads or writes the state inside its plan steps.
    InSteps(usize),
    /// Writes the state only when its output is taken, after the pass: a
    /// re-closing [`IncUpdate`](crate::IncUpdate).
    AtFinish(usize),
}

impl StateAccess {
    /// The state's address.
    pub(crate) fn state(self) -> usize {
        match self {
            StateAccess::InSteps(state) | StateAccess::AtFinish(state) => state,
        }
    }
}

/// A type-erased compiled request whose output type is still tracked at the
/// type level, so [`Solve::Output`] cannot be wired to the wrong run: the
/// in-crate constructor requires a run whose `finish` really returns `O`.
pub struct Compiled<O> {
    pub(crate) inner: Box<dyn Prepared>,
    /// The closed-graph state the request touches, read once at bind.
    pub(crate) access: Option<StateAccess>,
    _out: PhantomData<fn() -> O>,
}

impl<O: Send + 'static> Compiled<O> {
    /// Bind a workload run to its skeleton; the `Out = O` bound is the
    /// compile-time tie between the request's output type and the run's.
    pub(crate) fn bound<R: WorkloadRun<Out = O>>(skeleton: &Skeleton, run: R) -> Self {
        let access = run.state_access();
        Self {
            access,
            ..Self::from_prepared(Box::new(PreparedRun {
                skeleton: Arc::clone(&skeleton.index),
                index: Arc::clone(&skeleton.lookup),
                run: Some(run),
            }))
        }
    }

    /// Wrap an already-erased prepared request.
    ///
    /// Escape hatch for [`Solve`] implementations outside this crate: the
    /// caller must guarantee that `take_output` yields a boxed `O` — a
    /// mismatch is only caught at runtime (the session panics when decoding
    /// the output).
    pub fn from_prepared(inner: Box<dyn Prepared>) -> Self {
        Self {
            inner,
            access: None,
            _out: PhantomData,
        }
    }
}

/// The uniform shape of a per-workload prepared run (`LcsRun`, `FwRun`, …):
/// a typed plan, a step interpreter, and a consuming finisher.  Implemented
/// in [`crate::requests`] by delegation to the workload crates' inherent
/// methods.
pub(crate) trait WorkloadRun: Send + Sync + 'static {
    /// The workload's plain-data job type.
    type Job: Send + Sync;
    /// The workload's result type.
    type Out: Send + 'static;

    fn typed_plan(&self) -> &Plan<Self::Job>;
    fn step(&self, proc: ProcId, job: &Self::Job);
    fn finish(self) -> Self::Out;
    /// The closed-graph state the run touches; `None` for every stateless
    /// workload.
    fn state_access(&self) -> Option<StateAccess> {
        None
    }
}

/// The generic [`Prepared`] adapter over any [`WorkloadRun`]: the skeleton
/// mirrors the typed plan with flat step indices, and a small index table
/// maps each flat index back to its `(wave, position)` in the run's own plan
/// — jobs are interpreted in place, never copied.  Both tables are shared
/// with (and usually cached through) the [`Skeleton`] they came from.
pub(crate) struct PreparedRun<R: WorkloadRun> {
    skeleton: Arc<Plan<usize>>,
    /// `index[flat] = (wave, position)` into the run's typed plan.
    index: Arc<Vec<(usize, usize)>>,
    run: Option<R>,
}

impl<R: WorkloadRun> Prepared for PreparedRun<R> {
    fn skeleton(&self) -> &Plan<usize> {
        &self.skeleton
    }

    fn run_step(&self, proc: ProcId, idx: usize) {
        let run = self.run.as_ref().expect("request already finished");
        let (w, i) = self.index[idx];
        run.step(proc, &run.typed_plan().waves()[w][i].job);
    }

    fn take_output(&mut self) -> Box<dyn Any + Send> {
        Box::new(
            self.run
                .take()
                .expect("request output already taken")
                .finish(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        plan: Arc<Plan<char>>,
        seen: parking_lot::Mutex<Vec<char>>,
    }

    impl WorkloadRun for Dummy {
        type Job = char;
        type Out = Vec<char>;
        fn typed_plan(&self) -> &Plan<char> {
            &self.plan
        }
        fn step(&self, _proc: ProcId, job: &char) {
            self.seen.lock().push(*job);
        }
        fn finish(self) -> Vec<char> {
            self.seen.into_inner()
        }
    }

    #[test]
    fn skeleton_indices_line_up_with_the_typed_plan() {
        let plan = Arc::new(Plan::from_waves(
            2,
            vec![
                vec![Step { proc: 0, job: 'a' }, Step { proc: 1, job: 'b' }],
                vec![Step { proc: 1, job: 'c' }],
            ],
        ));
        let skeleton = Skeleton::new(Arc::clone(&plan), &plan);
        assert_eq!(skeleton.steps(), 3);
        assert_eq!(skeleton.waves(), 2);
        let mut prepared = Compiled::<Vec<char>>::bound(
            &skeleton,
            Dummy {
                plan,
                seen: parking_lot::Mutex::new(Vec::new()),
            },
        )
        .inner;
        assert_eq!(prepared.skeleton().barriers(), 2);
        assert_eq!(prepared.skeleton().steps(), 3);
        // Replay the skeleton sequentially: index i must map back to step i.
        let mut order = Vec::new();
        prepared.skeleton().for_each(|_, _, &idx| order.push(idx));
        assert_eq!(order, vec![0, 1, 2]);
        for idx in order {
            prepared.run_step(0, idx);
        }
        let out = prepared.take_output();
        assert_eq!(*out.downcast::<Vec<char>>().unwrap(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn skeleton_payload_downcasts_to_the_stashed_plan_only() {
        let plan = Arc::new(Plan::single_wave(1, vec![Step { proc: 0, job: 7u8 }]));
        let skeleton = Skeleton::new(Arc::clone(&plan), &plan);
        // Binding clones Arcs, never the plan.
        let again = skeleton.clone();
        assert!(Arc::ptr_eq(again.index(), skeleton.index()));
        let payload: Arc<Plan<u8>> = skeleton.payload().expect("payload round-trips");
        assert!(Arc::ptr_eq(&payload, &plan));
        assert!(skeleton.payload::<Plan<char>>().is_none());
    }
}
