//! The [`Session`]: one worker pool, one tuning config, three verbs.

use crate::backend::Backend;
use crate::cache::{PlanCacheStats, SkeletonCache};
use crate::exec::{PassCore, PendingRequest};
use crate::solve::{Compiled, Solve};
use crate::ticket::{self, decode, Ticket};
use paco_core::arena::{ArenaStats, ScratchArena};
use paco_core::machine::available_processors;
use paco_core::tuning::Tuning;
use paco_dist::{LowerCache, LowerStats};
use paco_incr::HandleRegistry;
use parking_lot::Mutex;
use std::sync::Arc;

/// Scheduling cost of the most recent [`Session::run`],
/// [`Session::run_batch`] or [`Session::flush`], read off the
/// driving thread's [`paco_core::metrics::sched`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Requests executed by the pass.
    pub requests: u64,
    /// Plan waves executed — for a batch this is the *maximum* of the
    /// constituent wave counts, the whole point of batching.
    pub plan_waves: u64,
    /// Plan steps (placed tasks) executed.
    pub plan_steps: u64,
    /// Worker-pool barriers (spawn/join round-trips) issued.
    pub pool_barriers: u64,
}

/// The synchronous front door: owns one
/// [`WorkerPool`](paco_runtime::WorkerPool) plus a [`Tuning`] config, and
/// executes every PACO workload through three verbs — [`Session::run`],
/// [`Session::run_batch`] and [`Session::submit`]/[`Session::flush`].
///
/// Every verb compiles through the session's **plan cache**: the shape-only
/// [`Skeleton`](crate::Skeleton) phase of [`Solve`] is cached keyed on
/// `(shape_key, p, tuning epoch)`, so repeated same-shaped requests pay the
/// pruned-BFS planning cost once and only re-bind their buffers
/// ([`Session::cache_stats`] shows the hits).  Mutating knobs through
/// [`Session::update_tuning`] bumps the epoch and invalidates every cached
/// skeleton.
///
/// A session is the single-shard, caller-driven special case of the same
/// executor core the concurrent [`Engine`](crate::Engine) shards run:
/// `flush()` is exactly one engine pass, executed on the calling thread
/// instead of a dedicated executor.  Reach for the engine when requests
/// arrive from many threads or should execute without the owner calling
/// back in; stay with the session when one thread drives everything and
/// wants zero background threads.
///
/// ```
/// use paco_service::{Session, Sort};
///
/// let session = Session::builder().procs(2).build();
/// let sorted = session.run(Sort { keys: vec![3.0, 1.0, 2.0] });
/// assert_eq!(sorted, vec![1.0, 2.0, 3.0]);
/// ```
pub struct Session {
    core: PassCore,
    cache: SkeletonCache,
    queue: Mutex<Vec<PendingRequest>>,
    /// The scratch pool every bind checks its temporary buffers out of;
    /// buffers return at finish, so warm same-shaped passes recycle their
    /// tables/temps instead of hitting the allocator.
    arena: Arc<ScratchArena>,
    backend: Backend,
    /// Lowered communication schedules, keyed per (skeleton payload,
    /// placement) — the distributed analogue of the skeleton cache.
    lower: LowerCache,
    /// Closed-graph handles of the incremental subsystem: `IncClose`
    /// registers state here, `IncUpdate`/`IncSnapshot`/`IncDrop` look it up.
    registry: Arc<HandleRegistry>,
}

impl Session {
    /// A session on `p` processors with environment-derived tuning
    /// ([`Tuning::from_env`]).
    pub fn new(p: usize) -> Self {
        Self::builder().procs(p).build()
    }

    /// A session sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Self::builder().build()
    }

    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The processor count every request is compiled for.
    pub fn p(&self) -> usize {
        self.core.p()
    }

    /// The tuning config every request is compiled with.
    pub fn tuning(&self) -> &Tuning {
        self.core.tuning()
    }

    /// Mutate the tuning knobs for subsequent requests.  Bumps the
    /// [`Tuning::epoch`], so every skeleton cached under the old knobs is
    /// invalidated — the next request of each shape recompiles.
    pub fn update_tuning(&mut self, mutate: impl FnOnce(&mut Tuning)) {
        self.core.update_tuning(mutate);
    }

    /// Scheduling counters of the most recent `run`/`run_batch`/`flush`
    /// (all-zero until one executed).
    pub fn last_stats(&self) -> RunStats {
        self.core.last_stats()
    }

    /// This session's plan-cache counters: skeleton hits, misses and
    /// evictions, plus the current entry count.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    /// The backend this session executes on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The session's closed-graph handle registry.  Construct the
    /// incremental requests ([`IncClose`](crate::IncClose),
    /// [`IncUpdate`](crate::IncUpdate), …) against this registry so their
    /// handles resolve when the session executes them.
    pub fn registry(&self) -> Arc<HandleRegistry> {
        Arc::clone(&self.registry)
    }

    /// This session's lowering-cache counters: communication schedules
    /// served from cache vs. lowered fresh.  Always zero on
    /// [`Backend::Local`].  Per-run traffic itself is on the global
    /// [`paco_core::metrics::comm`] counters — snapshot them around a run
    /// to see words/messages per rank.
    pub fn lower_stats(&self) -> LowerStats {
        self.lower.stats()
    }

    /// This session's scratch-arena counters: buffer checkouts served from
    /// the pool (hits) vs. fresh allocations (misses).  The first pass of a
    /// shape is all misses; warm re-runs should show hits
    /// ([`ArenaStats::reuse_ratio`]).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Compile `req` through the plan cache: reuse the cached skeleton for
    /// its shape (or compile and insert one), then bind the request's data.
    ///
    /// On [`Backend::Distributed`] the skeleton is compiled for `ranks`
    /// processors and bound through [`Solve::bind_dist`]; requests without
    /// a distributed binding fall back to a local skeleton and bind (the
    /// cache keys the two by their differing processor counts).
    fn compile_cached<R: Solve>(&self, req: R) -> Compiled<R::Output> {
        let tuning = self.core.tuning();
        let req = match self.backend {
            Backend::Local => req,
            Backend::Distributed { ranks } => {
                let skeleton =
                    self.cache
                        .get_or_compile(req.shape_key(), ranks, tuning.epoch, |key| {
                            req.skeleton_for(key, tuning, ranks)
                        });
                match req.bind_dist(&skeleton, tuning, ranks, &self.arena, &self.lower) {
                    Ok(compiled) => return compiled,
                    Err(req) => req,
                }
            }
        };
        let p = self.p();
        let skeleton = self
            .cache
            .get_or_compile(req.shape_key(), p, tuning.epoch, |key| {
                req.skeleton_for(key, tuning, p)
            });
        req.bind(&skeleton, tuning, p, &self.arena)
    }

    /// Execute one request and return its output.
    pub fn run<R: Solve>(&self, req: R) -> R::Output {
        let mut compiled = self.compile_cached(req);
        decode(self.core.run_one(&mut compiled.inner))
    }

    /// Execute a homogeneous batch of requests through **one** pool pass
    /// (one more per re-closing [`IncUpdate`](crate::IncUpdate) whose handle
    /// a later request of the batch touches: see [`Session::flush`]).
    ///
    /// The compiled plans are merged wave-by-wave
    /// ([`Plan::batch`](paco_runtime::schedule::Plan::batch)), so the pass
    /// costs as many barriers as the *deepest* constituent — not the sum —
    /// across every workload type, including the MM, Strassen and sort paths
    /// that had no batched entry point before this crate.  Same-shaped
    /// requests share one cached skeleton: the batch compiles the plan once
    /// and binds it `N` times.  Outputs come back in request order.
    pub fn run_batch<R: Solve>(&self, reqs: impl IntoIterator<Item = R>) -> Vec<R::Output> {
        let (mut pending, tickets): (Vec<_>, Vec<_>) = reqs
            .into_iter()
            .map(|r| Self::slotted(self.compile_cached(r)))
            .unzip();
        if let Err(payload) = self.core.run_pass(&mut pending) {
            std::panic::resume_unwind(payload);
        }
        tickets.iter().map(Ticket::take).collect()
    }

    /// Queue a request for the next [`Session::flush`]; the request is
    /// compiled now (under the current tuning, through the plan cache) and
    /// executed later.  Queued submissions may mix workload types freely.
    pub fn submit<R: Solve>(&self, req: R) -> Ticket<R::Output> {
        let (pending, ticket) = Self::slotted(self.compile_cached(req));
        self.queue.lock().push(pending);
        ticket
    }

    /// Pair a compiled request with the slot its output resolves.  Session
    /// requests carry default admission metadata: a session pass runs
    /// everything it is given, so deadlines and priorities (engine
    /// concepts) never apply here.
    fn slotted<O: Send + 'static>(compiled: Compiled<O>) -> (PendingRequest, Ticket<O>) {
        let slot = ticket::new_slot();
        let pending = PendingRequest::new(
            compiled,
            slot.clone(),
            crate::client::SubmitOptions::default(),
        );
        (pending, Ticket::new(slot))
    }

    /// Number of submissions waiting for a flush.
    pub fn pending(&self) -> usize {
        self.queue.lock().len()
    }

    /// Execute every queued submission — a heterogeneous mix compiles to one
    /// merged wave plan — through one pool pass, resolving their
    /// [`Ticket`]s.  Returns the number of requests flushed.
    ///
    /// A re-closing [`IncUpdate`](crate::IncUpdate) commits to its handle
    /// only when its output is taken, after the pass; so the pass ends
    /// before any later update, snapshot or drop of that handle, and the
    /// rest of the queue runs as the next pass.  Each of them sees the
    /// effects of the requests on its handle submitted before it.
    ///
    /// If a workload step panics mid-pass, every request of the pass is
    /// *poisoned* (their shared state may be half-written, so no output can
    /// be salvaged): the tickets report the loss explicitly instead of
    /// pretending the flush never happened, and the panic is re-thrown.
    /// This is the same pass the concurrent [`Engine`](crate::Engine) runs —
    /// the only difference is that an engine executor swallows the re-throw
    /// and keeps serving.
    pub fn flush(&self) -> usize {
        let mut pending = std::mem::take(&mut *self.queue.lock());
        match self.core.run_pass(&mut pending) {
            Ok(n) => n,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// Configures and builds a [`Session`].
#[derive(Debug, Default)]
pub struct SessionBuilder {
    procs: Option<usize>,
    tuning: Option<Tuning>,
    base: Option<usize>,
    backend: Backend,
}

impl SessionBuilder {
    /// Pin the session to `p` processors (default: the machine's available
    /// parallelism).
    pub fn procs(mut self, p: usize) -> Self {
        assert!(p >= 1, "a session needs at least one processor");
        self.procs = Some(p);
        self
    }

    /// Use an explicit tuning config (default: [`Tuning::from_env`], which
    /// honours the `PACO_BASE` override).
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = Some(tuning);
        self
    }

    /// Convenience: set every base/grain-size knob at once
    /// ([`Tuning::with_base`]) on top of whatever tuning the builder ends up
    /// with.
    pub fn base(mut self, base: usize) -> Self {
        self.base = Some(base);
        self
    }

    /// Execute requests on `backend` (default: [`Backend::Local`]).  With
    /// [`Backend::Distributed`], eligible requests (LCS, closure/APSP, MM,
    /// Strassen) run as `ranks` shared-nothing message-passing ranks with
    /// exact communication metering; everything else falls back to the
    /// local pool transparently.
    pub fn backend(mut self, backend: Backend) -> Self {
        if let Backend::Distributed { ranks } = backend {
            assert!(ranks >= 1, "a distributed session needs at least one rank");
        }
        self.backend = backend;
        self
    }

    /// Spin up the worker pool and finish the session.
    pub fn build(self) -> Session {
        let mut tuning = self.tuning.unwrap_or_else(Tuning::from_env);
        if let Some(base) = self.base {
            tuning = tuning.with_base(base);
        }
        let p = self.procs.unwrap_or_else(available_processors);
        Session {
            core: PassCore::new(p, tuning),
            cache: SkeletonCache::new(SkeletonCache::DEFAULT_CAP),
            queue: Mutex::new(Vec::new()),
            arena: Arc::new(ScratchArena::new()),
            backend: self.backend,
            lower: LowerCache::new(),
            registry: Arc::new(HandleRegistry::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{Compiled, Prepared, ShapeKey, Skeleton};
    use crate::ticket::TicketError;
    use crate::Lcs;
    use paco_runtime::schedule::{Plan, Step};
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// A request whose single step panics, for exercising the flush
    /// poisoning path.
    struct Exploding {
        skeleton: Arc<Plan<usize>>,
    }

    impl Prepared for Exploding {
        fn skeleton(&self) -> &Plan<usize> {
            &self.skeleton
        }
        fn run_step(&self, _proc: usize, _idx: usize) {
            panic!("exploding step");
        }
        fn take_output(&mut self) -> Box<dyn Any + Send> {
            Box::new(())
        }
    }

    pub(crate) struct ExplodingReq;

    impl Solve for ExplodingReq {
        type Output = ();
        fn shape_key(&self) -> ShapeKey {
            ShapeKey::new("test-exploding", std::iter::empty())
        }
        fn skeleton(&self, _tuning: &Tuning, p: usize) -> Skeleton {
            let plan = Arc::new(Plan::single_wave(p, vec![Step { proc: 0, job: 0 }]));
            Skeleton::new(Arc::clone(&plan), &plan)
        }
        fn bind(
            self,
            skeleton: &Skeleton,
            _tuning: &Tuning,
            _p: usize,
            _arena: &Arc<ScratchArena>,
        ) -> Compiled<()> {
            Compiled::from_prepared(Box::new(Exploding {
                skeleton: Arc::clone(skeleton.index()),
            }))
        }
    }

    #[test]
    fn panicking_flush_poisons_every_ticket_of_the_pass() {
        let session = Session::new(2);
        let good = session.submit(Lcs {
            a: vec![1, 2, 3],
            b: vec![2, 3],
        });
        let bad = session.submit(ExplodingReq);

        // The flush re-throws the step panic...
        let outcome = catch_unwind(AssertUnwindSafe(|| session.flush()));
        assert!(outcome.is_err(), "the step panic must propagate");
        // ...the queue is drained (nothing half-executed can be re-driven)...
        assert_eq!(session.pending(), 0);
        // ...and both tickets report the loss instead of "flush me first".
        assert!(!good.ready());
        assert_eq!(good.try_wait(), Err(TicketError::Poisoned));
        assert_eq!(good.wait(), Err(TicketError::Poisoned));
        let take = catch_unwind(AssertUnwindSafe(|| good.take()));
        let payload = take.expect_err("poisoned take must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .expect("panic message is a str literal");
        assert!(
            msg.contains("pass executing this request panicked"),
            "{msg}"
        );
        assert_eq!(bad.try_wait(), Err(TicketError::Poisoned));

        // The session stays usable for new work.
        assert_eq!(
            session.run(Lcs {
                a: vec![7],
                b: vec![7]
            }),
            1
        );
    }

    #[test]
    fn repeated_shapes_hit_the_cache_and_update_tuning_invalidates() {
        let mut session = Session::new(2);
        let req = || Lcs {
            a: vec![1, 2, 3, 4],
            b: vec![2, 3, 4, 5],
        };
        for _ in 0..4 {
            assert_eq!(session.run(req()), 3);
        }
        let stats = session.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 3));

        // A knob change must recompile: the old skeleton is unreachable.
        session.update_tuning(|t| t.lcs_base = 2);
        assert_eq!(session.run(req()), 3);
        let stats = session.cache_stats();
        assert_eq!((stats.misses, stats.hits), (2, 3));
    }
}
