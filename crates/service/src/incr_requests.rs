//! The incremental/compositional request family: typed [`Solve`] wiring of
//! `paco_incr` (closed-graph handles + edge updates) and the Hirschberg
//! traceback.
//!
//! The family is *stateful* where every other request is one-shot:
//!
//! * [`IncClose`] closes an adjacency through the stock parallel FW plan —
//!   sharing the `"closure"` skeleton cache entries with
//!   [`Closure`](crate::Closure) — and **registers** the result in a
//!   [`HandleRegistry`], resolving to a `Copy` [`ClosedGraph`] handle;
//! * [`IncUpdate`] applies an [`EdgeUpdate`] batch to the handle's state,
//!   resolving to the batch's exact [`UpdateStats`].  It compiles to one of
//!   two plans, chosen at submission by reading the state: a single step on
//!   processor 0 (dirty-block re-propagation, with a sequential re-closure
//!   if the batch needs one part-way or its frontier passes
//!   [`Tuning::incr_fallback_percent`]), or — when the batch's first
//!   effective update already has no incremental form — FW's parallel plan
//!   over the updated adjacency, committed to the state at finish;
//! * [`IncSnapshot`] reads the current closed matrix out of a handle;
//! * [`IncDrop`] retires a handle;
//! * [`LcsTrace`] is stateless but compositional: it turns the LCS *length*
//!   answer into an actual edit script via Hirschberg's linear-space
//!   traceback.
//!
//! The stateful requests implement [`Solve::route_hint`] with their handle
//! id, so a multi-shard [`Engine`](crate::Engine) keeps one graph's
//! updates on one shard (queue/cache/arena affinity).  Correctness never
//! rides on that routing: the state sits behind a mutex in the shared
//! registry.  A single-step batch is applied under one lock acquisition
//! inside its step; a re-closing batch commits under one lock acquisition
//! at finish, and only if no other batch reached the state since it was
//! bound (otherwise it applies its batch afresh there).  Within one pass,
//! requests on a handle keep their submission order: the executor ends the
//! pass before any later request on a handle that a re-closing update of
//! the pass commits to, and runs that request in the next pass.
//!
//! Handles resolve at **bind time**: submitting an update for a dropped (or
//! foreign-registry) handle panics on the submitting thread with a clear
//! message, not inside an executor pass.  Handles are only obtainable from
//! a resolved [`IncClose`] ticket, so the ordinary lifecycle — close, then
//! update — cannot race itself.

use crate::requests::{closure_key, fw_skeleton};
use crate::solve::{Compiled, ShapeKey, Skeleton, Solve, StateAccess, WorkloadRun};
use paco_core::arena::ScratchArena;
use paco_core::matrix::Matrix;
use paco_core::proc_list::ProcId;
use paco_core::semiring::IdempotentSemiring;
use paco_core::tuning::Tuning;
use paco_dp::lcs::trace::{hirschberg, EditOp};
use paco_graph::{FwPlan, FwRun};
use paco_incr::{ClosedGraph, ClosedState, EdgeUpdate, HandleRegistry, UpdateStats};
use paco_runtime::schedule::{Plan, Step};
use parking_lot::Mutex;
use std::sync::Arc;

/// One-step skeleton shared by every constant-shape incremental request
/// (and by every [`IncUpdate`] that does not re-close at its first
/// effective update): the work happens inside a single job on processor 0,
/// so requests of this family batched with real multi-wave workloads ride
/// along in wave 0.
fn single_step_skeleton(p: usize) -> Skeleton {
    let plan: Arc<Plan<usize>> =
        Arc::new(Plan::single_wave(p.max(1), vec![Step { proc: 0, job: 0 }]));
    Skeleton::new(Arc::clone(&plan), &plan)
}

/// Close an adjacency matrix and register the result as a reusable
/// [`ClosedGraph`] handle; resolves to the handle.
///
/// The closure itself runs the same parallel FW plan as
/// [`Closure`](crate::Closure) (they deliberately share skeleton cache
/// entries); the only difference is where the output goes — into `registry`
/// instead of back to the caller.  Obtain `registry` from
/// [`Session::registry`](crate::Session::registry) or
/// [`Engine::registry`](crate::Engine::registry).
#[derive(Debug, Clone)]
pub struct IncClose<S: IdempotentSemiring> {
    /// The adjacency matrix to close and retain.
    pub adj: Matrix<S>,
    /// The registry the closed state is stored in.
    pub registry: Arc<HandleRegistry>,
}

struct IncCloseRun<S: IdempotentSemiring> {
    adj: Matrix<S>,
    run: FwRun<S>,
    registry: Arc<HandleRegistry>,
}

impl<S: IdempotentSemiring> WorkloadRun for IncCloseRun<S> {
    type Job = paco_graph::LeafCall;
    type Out = ClosedGraph<S>;
    fn typed_plan(&self) -> &Plan<Self::Job> {
        self.run.plan()
    }
    fn step(&self, proc: ProcId, job: &Self::Job) {
        FwRun::step(&self.run, proc, job)
    }
    fn finish(self) -> ClosedGraph<S> {
        let closed = self.run.finish();
        self.registry
            .insert(ClosedState::from_parts(self.adj, closed))
    }
}

impl<S: IdempotentSemiring> Solve for IncClose<S> {
    type Output = ClosedGraph<S>;
    fn shape_key(&self) -> ShapeKey {
        // Same kind as `Closure`: the FW schedule is identical, so the two
        // request types share cached skeletons.
        closure_key(self.adj.rows())
    }
    fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton {
        fw_skeleton(self.adj.rows(), tuning, p)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        _p: usize,
        _arena: &Arc<ScratchArena>,
    ) -> Compiled<ClosedGraph<S>> {
        let compiled = skeleton.payload().expect("skeleton compiled by IncClose");
        let run = FwRun::from_plan(&self.adj, compiled, tuning.fw_base);
        Compiled::bound(
            skeleton,
            IncCloseRun {
                adj: self.adj,
                run,
                registry: self.registry,
            },
        )
    }
}

/// Apply a batch of edge assignments to a [`ClosedGraph`]'s state; resolves
/// to the batch's exact [`UpdateStats`].
///
/// The batch compiles to one of two plans, chosen when it is submitted by
/// reading the handle's state under its lock:
///
/// * **One step.**  Most batches run [`ClosedState::apply_batch`] in a
///   single plan step on processor 0, under one lock acquisition over the
///   whole slice, in submission order: dirty-rectangle re-propagation, with
///   a sequential full re-closure only if the batch turns out to need one
///   part-way through or its frontier is too dense
///   ([`Tuning::incr_fallback_percent`]).
/// * **FW's parallel plan.**  A batch whose first effective update (one
///   that changes a weight) is not improving or has an unsafe cycle
///   re-closes in full from that update on
///   ([`ClosedState::reclose_start`]).  It binds `plan_fw(n, p)`'s
///   skeleton — the `"closure"` cache entry that [`IncClose`] and
///   [`Closure`](crate::Closure) share — over the adjacency with the batch
///   written in, so the re-closure runs on every processor of the pass.
///   It **commits at finish**: if no other batch reached the state since
///   submission it installs the closed table as the closure (no copy) and
///   resolves to the stats `apply_batch` would have returned; otherwise it
///   discards the table and runs `apply_batch` afresh.  Either way the
///   state stays exactly the closure of its adjacency.
///
/// `shape_key` classifies the batch (one lock, `O(1)` reads); `bind`
/// classifies again, under the lock, only when handed FW's skeleton, and
/// drops to the single step if the batch no longer re-closes at once.  A
/// batch keyed to the single step keeps it even if the state changed in
/// between: `apply_batch` serves any batch exactly.
///
/// Requests on one handle keep their submission order within a pass: the
/// executor ends a pass before any later request on a handle that a
/// re-closing update of the pass commits to, and runs that request in the
/// next pass.  Requests on one handle in *different* passes (e.g. on two
/// engine shards) may interleave in any order; improving updates over an
/// idempotent semiring commute, and a worsening update re-closes, so every
/// interleaving converges to the closure of the final adjacency.
///
/// # Panics
///
/// Binding (i.e. submitting) panics if `handle` is unknown to `registry` —
/// already dropped, or created through a different session/engine.
#[derive(Debug, Clone)]
pub struct IncUpdate<S: IdempotentSemiring> {
    /// The graph to update.
    pub handle: ClosedGraph<S>,
    /// Edge assignments, applied in order.
    pub updates: Vec<EdgeUpdate<S>>,
    /// The registry that owns `handle`.
    pub registry: Arc<HandleRegistry>,
}

/// The single-step form: the whole batch inside one step on processor 0.
struct IncUpdateRun<S: IdempotentSemiring> {
    plan: Arc<Plan<usize>>,
    state: Arc<Mutex<ClosedState<S>>>,
    updates: Vec<EdgeUpdate<S>>,
    knobs: IncKnobs,
    result: Mutex<Option<UpdateStats>>,
}

/// The tuning knobs [`ClosedState::apply_batch`] takes.
#[derive(Clone, Copy)]
struct IncKnobs {
    block: usize,
    fallback_percent: usize,
    fw_base: usize,
}

impl IncKnobs {
    fn new(tuning: &Tuning) -> Self {
        Self {
            block: tuning.incr_block,
            fallback_percent: tuning.incr_fallback_percent,
            fw_base: tuning.fw_base,
        }
    }

    fn apply<S: IdempotentSemiring>(
        self,
        state: &mut ClosedState<S>,
        updates: &[EdgeUpdate<S>],
    ) -> UpdateStats {
        state.apply_batch(updates, self.block, self.fallback_percent, self.fw_base)
    }
}

impl<S: IdempotentSemiring> WorkloadRun for IncUpdateRun<S> {
    type Job = usize;
    type Out = UpdateStats;
    fn typed_plan(&self) -> &Plan<usize> {
        &self.plan
    }
    fn step(&self, _proc: ProcId, _job: &usize) {
        let stats = self.knobs.apply(&mut self.state.lock(), &self.updates);
        *self.result.lock() = Some(stats);
    }
    fn finish(self) -> UpdateStats {
        self.result
            .into_inner()
            .expect("IncUpdate step did not run")
    }
    fn state_access(&self) -> Option<StateAccess> {
        Some(StateAccess::InSteps(state_address(&self.state)))
    }
}

/// The re-closing form: FW's plan over the adjacency with the batch
/// written in, committed to the state at finish.
struct IncRecloseRun<S: IdempotentSemiring> {
    run: FwRun<S>,
    state: Arc<Mutex<ClosedState<S>>>,
    updates: Vec<EdgeUpdate<S>>,
    /// Index of the first update the re-closure absorbs.
    start: usize,
    /// The state's version the table was copied at.
    version: u64,
    /// What `apply_batch` returns for this batch on that version.
    stats: UpdateStats,
    knobs: IncKnobs,
}

impl<S: IdempotentSemiring> WorkloadRun for IncRecloseRun<S> {
    type Job = paco_graph::LeafCall;
    type Out = UpdateStats;
    fn typed_plan(&self) -> &Plan<Self::Job> {
        self.run.plan()
    }
    fn step(&self, proc: ProcId, job: &Self::Job) {
        FwRun::step(&self.run, proc, job)
    }
    fn finish(self) -> UpdateStats {
        let closed = self.run.finish();
        let mut state = self.state.lock();
        if state.commit(self.version, &self.updates[self.start..], closed) {
            self.stats
        } else {
            // Another batch reached the state after this one was bound.
            self.knobs.apply(&mut state, &self.updates)
        }
    }
    fn state_access(&self) -> Option<StateAccess> {
        Some(StateAccess::AtFinish(state_address(&self.state)))
    }
}

/// Bind a batch to the single-step skeleton `skeleton`, whose payload is
/// `plan`.
fn single_step<S: IdempotentSemiring>(
    skeleton: &Skeleton,
    plan: Arc<Plan<usize>>,
    state: Arc<Mutex<ClosedState<S>>>,
    updates: Vec<EdgeUpdate<S>>,
    knobs: IncKnobs,
) -> Compiled<UpdateStats> {
    Compiled::bound(
        skeleton,
        IncUpdateRun {
            plan,
            state,
            updates,
            knobs,
            result: Mutex::new(None),
        },
    )
}

/// A closed-graph state's identity for the executor's pass cut.
fn state_address<S: IdempotentSemiring>(state: &Arc<Mutex<ClosedState<S>>>) -> usize {
    Arc::as_ptr(state) as usize
}

impl<S: IdempotentSemiring> Solve for IncUpdate<S> {
    type Output = UpdateStats;
    fn shape_key(&self) -> ShapeKey {
        // An unknown handle keys the single step, so `bind` panics on the
        // submitting thread with its usual message.
        if let Some(state) = self.registry.get(self.handle) {
            let state = state.lock();
            if state.reclose_start(&self.updates).is_some() {
                return closure_key(state.n());
            }
        }
        ShapeKey::new("incr-step", [])
    }
    fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton {
        self.skeleton_for(&self.shape_key(), tuning, p)
    }
    fn skeleton_for(&self, key: &ShapeKey, tuning: &Tuning, p: usize) -> Skeleton {
        match (key.kind(), key.dims()) {
            ("closure", &[n]) => fw_skeleton(n as usize, tuning, p),
            _ => single_step_skeleton(p),
        }
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        p: usize,
        _arena: &Arc<ScratchArena>,
    ) -> Compiled<UpdateStats> {
        let state = self
            .registry
            .get(self.handle)
            .expect("IncUpdate on an unknown or dropped ClosedGraph handle");
        let knobs = IncKnobs::new(tuning);
        if let Some(plan) = skeleton.payload() {
            return single_step(skeleton, plan, state, self.updates, knobs);
        }
        let compiled: Arc<FwPlan> = skeleton.payload().expect("skeleton compiled by IncUpdate");
        // Classify again under the lock and take the version the table is
        // copied at: the state may have changed since `shape_key`.
        let guard = state.lock();
        let Some(start) = guard.reclose_start(&self.updates) else {
            drop(guard);
            let skeleton = single_step_skeleton(p);
            let plan = skeleton.payload().expect("single-step skeleton");
            return single_step(&skeleton, plan, state, self.updates, knobs);
        };
        let table = guard.reclose_input(&self.updates[start..]);
        let version = guard.version();
        let stats = guard.reclose_stats(self.updates.len(), start, knobs.block);
        drop(guard);
        Compiled::bound(
            skeleton,
            IncRecloseRun {
                run: FwRun::from_owned(table, compiled, tuning.fw_base),
                state,
                updates: self.updates,
                start,
                version,
                stats,
                knobs,
            },
        )
    }
    fn route_hint(&self) -> Option<u64> {
        Some(self.handle.id())
    }
}

/// Read the current closed matrix of a [`ClosedGraph`]; resolves to a copy
/// of the closure (reflecting every update applied so far).
///
/// # Panics
///
/// Binding panics if `handle` is unknown to `registry` (see [`IncUpdate`]).
#[derive(Debug, Clone)]
pub struct IncSnapshot<S: IdempotentSemiring> {
    /// The graph to read.
    pub handle: ClosedGraph<S>,
    /// The registry that owns `handle`.
    pub registry: Arc<HandleRegistry>,
}

struct IncSnapshotRun<S: IdempotentSemiring> {
    plan: Arc<Plan<usize>>,
    state: Arc<Mutex<ClosedState<S>>>,
    result: Mutex<Option<Matrix<S>>>,
}

impl<S: IdempotentSemiring> WorkloadRun for IncSnapshotRun<S> {
    type Job = usize;
    type Out = Matrix<S>;
    fn typed_plan(&self) -> &Plan<usize> {
        &self.plan
    }
    fn step(&self, _proc: ProcId, _job: &usize) {
        *self.result.lock() = Some(self.state.lock().closed().clone());
    }
    fn finish(self) -> Matrix<S> {
        self.result
            .into_inner()
            .expect("IncSnapshot step did not run")
    }
    fn state_access(&self) -> Option<StateAccess> {
        Some(StateAccess::InSteps(state_address(&self.state)))
    }
}

impl<S: IdempotentSemiring> Solve for IncSnapshot<S> {
    type Output = Matrix<S>;
    fn shape_key(&self) -> ShapeKey {
        ShapeKey::new("incr-step", [])
    }
    fn skeleton(&self, _tuning: &Tuning, p: usize) -> Skeleton {
        single_step_skeleton(p)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        _tuning: &Tuning,
        _p: usize,
        _arena: &Arc<ScratchArena>,
    ) -> Compiled<Matrix<S>> {
        let plan = skeleton.payload().expect("skeleton compiled by incr-step");
        let state = self
            .registry
            .get(self.handle)
            .expect("IncSnapshot on an unknown or dropped ClosedGraph handle");
        Compiled::bound(
            skeleton,
            IncSnapshotRun {
                plan,
                state,
                result: Mutex::new(None),
            },
        )
    }
    fn route_hint(&self) -> Option<u64> {
        Some(self.handle.id())
    }
}

/// Retire a [`ClosedGraph`] handle, releasing its matrices; resolves to
/// whether the handle was still live (`false` means it was already
/// dropped — dropping is idempotent, not an error).
#[derive(Debug, Clone)]
pub struct IncDrop<S: IdempotentSemiring> {
    /// The graph to retire.
    pub handle: ClosedGraph<S>,
    /// The registry that owns `handle`.
    pub registry: Arc<HandleRegistry>,
}

struct IncDropRun {
    plan: Arc<Plan<usize>>,
    registry: Arc<HandleRegistry>,
    id: u64,
    /// The state's address at bind; `None` if the handle was already gone.
    state: Option<usize>,
    result: Mutex<Option<bool>>,
}

impl WorkloadRun for IncDropRun {
    type Job = usize;
    type Out = bool;
    fn typed_plan(&self) -> &Plan<usize> {
        &self.plan
    }
    fn step(&self, _proc: ProcId, _job: &usize) {
        *self.result.lock() = Some(self.registry.remove(self.id));
    }
    fn finish(self) -> bool {
        self.result.into_inner().expect("IncDrop step did not run")
    }
    fn state_access(&self) -> Option<StateAccess> {
        self.state.map(StateAccess::InSteps)
    }
}

impl<S: IdempotentSemiring> Solve for IncDrop<S> {
    type Output = bool;
    fn shape_key(&self) -> ShapeKey {
        ShapeKey::new("incr-step", [])
    }
    fn skeleton(&self, _tuning: &Tuning, p: usize) -> Skeleton {
        single_step_skeleton(p)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        _tuning: &Tuning,
        _p: usize,
        _arena: &Arc<ScratchArena>,
    ) -> Compiled<bool> {
        let plan = skeleton.payload().expect("skeleton compiled by incr-step");
        let state = self
            .registry
            .get::<S>(self.handle)
            .map(|state| state_address(&state));
        Compiled::bound(
            skeleton,
            IncDropRun {
                plan,
                registry: self.registry,
                id: self.handle.id(),
                state,
                result: Mutex::new(None),
            },
        )
    }
    fn route_hint(&self) -> Option<u64> {
        Some(self.handle.id())
    }
}

/// Longest-common-subsequence **traceback**: resolves to an [`EditOp`]
/// script that replays `a` into `b`, whose `Keep` count is the exact LCS
/// length — the alignment itself, where [`Lcs`](crate::Lcs) answers only
/// the length.
///
/// Runs Hirschberg's linear-space recovery as a single sequential step
/// (costing at most 2× the DP cells of the length-only computation); batch
/// several `LcsTrace` requests to overlap them across processors.
#[derive(Debug, Clone)]
pub struct LcsTrace {
    /// First sequence (the script's `Keep`/`Delete` source).
    pub a: Vec<u32>,
    /// Second sequence (the replay target).
    pub b: Vec<u32>,
}

struct LcsTraceRun {
    plan: Arc<Plan<usize>>,
    a: Vec<u32>,
    b: Vec<u32>,
    result: Mutex<Option<Vec<EditOp>>>,
}

impl WorkloadRun for LcsTraceRun {
    type Job = usize;
    type Out = Vec<EditOp>;
    fn typed_plan(&self) -> &Plan<usize> {
        &self.plan
    }
    fn step(&self, _proc: ProcId, _job: &usize) {
        *self.result.lock() = Some(hirschberg(&self.a, &self.b));
    }
    fn finish(self) -> Vec<EditOp> {
        self.result.into_inner().expect("LcsTrace step did not run")
    }
}

impl Solve for LcsTrace {
    type Output = Vec<EditOp>;
    fn shape_key(&self) -> ShapeKey {
        ShapeKey::new("incr-step", [])
    }
    fn skeleton(&self, _tuning: &Tuning, p: usize) -> Skeleton {
        single_step_skeleton(p)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        _tuning: &Tuning,
        _p: usize,
        _arena: &Arc<ScratchArena>,
    ) -> Compiled<Vec<EditOp>> {
        let plan = skeleton.payload().expect("skeleton compiled by incr-step");
        Compiled::bound(
            skeleton,
            LcsTraceRun {
                plan,
                a: self.a,
                b: self.b,
                result: Mutex::new(None),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Closure, Engine, Session};
    use paco_core::semiring::MinPlus;
    use paco_core::workload::{random_digraph, related_sequences};
    use paco_dp::lcs::{lcs_reference, replay};
    use paco_graph::fw_reference;

    #[test]
    fn close_update_snapshot_drop_lifecycle_through_a_session() {
        let session = Session::new(2);
        let registry = session.registry();
        let adj = random_digraph(45, 0.15, 50, 3); // non-power-of-two
        let handle = session.run(IncClose {
            adj: adj.clone(),
            registry: Arc::clone(&registry),
        });

        // The registered closure matches the one-shot Closure request.
        let via_closure = session.run(Closure { adj: adj.clone() });
        assert_eq!(
            session.run(IncSnapshot {
                handle,
                registry: Arc::clone(&registry)
            }),
            via_closure
        );

        let stats = session.run(IncUpdate {
            handle,
            updates: vec![
                EdgeUpdate::new(0, 44, MinPlus(1.0)),
                EdgeUpdate::new(44, 13, MinPlus(2.0)),
            ],
            registry: Arc::clone(&registry),
        });
        assert_eq!(stats.updates, 2);

        // Snapshot equals a from-scratch closure of the updated adjacency.
        let mut updated = adj;
        updated[(0, 44)] = MinPlus(1.0);
        updated[(44, 13)] = MinPlus(2.0);
        assert_eq!(
            session.run(IncSnapshot {
                handle,
                registry: Arc::clone(&registry)
            }),
            fw_reference(&updated)
        );

        assert!(session.run(IncDrop {
            handle,
            registry: Arc::clone(&registry)
        }));
        assert!(!session.run(IncDrop { handle, registry }));
    }

    #[test]
    fn engine_routes_a_graphs_updates_to_one_shard() {
        let engine = Engine::builder().procs(1).shards(2).build();
        let registry = engine.registry();
        let client = engine.client();
        let adj = random_digraph(24, 0.2, 30, 7);
        let handle = client
            .submit(IncClose {
                adj: adj.clone(),
                registry: Arc::clone(&registry),
            })
            .wait()
            .expect("close resolves");

        // Distinct improving edges commute, so any cross-pass order works.
        let tickets: Vec<_> = (0..6u32)
            .map(|i| {
                client.submit(IncUpdate {
                    handle,
                    updates: vec![EdgeUpdate::new(i as usize, 23 - i as usize, MinPlus(1.0))],
                    registry: Arc::clone(&registry),
                })
            })
            .collect();
        for t in tickets {
            t.wait().expect("update resolves");
        }

        let mut updated = adj;
        for i in 0..6u32 {
            updated[(i as usize, 23 - i as usize)] = MinPlus(1.0);
        }
        let snapshot = client
            .submit(IncSnapshot {
                handle,
                registry: Arc::clone(&registry),
            })
            .wait()
            .expect("snapshot resolves");
        assert_eq!(snapshot, fw_reference(&updated));

        // All hinted requests (1 close is unhinted, 6 updates + 1 snapshot
        // are hinted) landed on handle.id() % 2.
        let stats = engine.shutdown();
        let hinted_shard = (handle.id() % 2) as usize;
        assert!(
            stats.shards[hinted_shard].requests >= 7,
            "hinted shard ran {} requests",
            stats.shards[hinted_shard].requests
        );
    }

    #[test]
    fn lcs_trace_scripts_replay_to_the_exact_length() {
        let session = Session::new(2);
        let (a, b) = related_sequences(180, 4, 0.3, 17);
        let script = session.run(LcsTrace {
            a: a.clone(),
            b: b.clone(),
        });
        assert_eq!(replay(&script, &a), b);
        assert_eq!(paco_dp::lcs::lcs_of_script(&script), lcs_reference(&a, &b));
    }

    #[test]
    #[should_panic(expected = "unknown or dropped ClosedGraph handle")]
    fn updating_a_dropped_handle_panics_at_submission() {
        let session = Session::new(1);
        let registry = session.registry();
        let handle = session.run(IncClose {
            adj: random_digraph(6, 0.3, 5, 1),
            registry: Arc::clone(&registry),
        });
        assert!(session.run(IncDrop {
            handle,
            registry: Arc::clone(&registry)
        }));
        let _ = session.run(IncUpdate {
            handle,
            updates: vec![EdgeUpdate::new(0, 1, MinPlus(1.0))],
            registry,
        });
    }
}
