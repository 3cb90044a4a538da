//! The [`Engine`]: concurrent, admission-controlled ingress over the PACO
//! executor core.
//!
//! Where a [`Session`](crate::Session) queues submissions on its owner's
//! thread and executes nothing until that same thread calls `flush()`, an
//! engine accepts requests **from any thread at any time** — including while
//! a pass is in flight — through cheap [`Client`] handles,
//! and executes them on its own dedicated executor threads.  Each *shard*
//! owns a [`WorkerPool`](paco_runtime::WorkerPool) plus the engine's
//! [`Tuning`] (one pass core per shard, the same core `Session::flush`
//! drives synchronously), drains its multi-producer queue under the
//! engine's [`BatchPolicy`], merges whatever it gathered through
//! [`Plan::batch`](paco_runtime::schedule::Plan::batch) (max-of-waves
//! barriers), and resolves tickets as passes complete — producers never call
//! `flush`; they [`Ticket::wait`](crate::Ticket::wait).
//!
//! Submissions are routed to a shard *first* and then compiled through
//! that shard's `SkeletonCache`: same-shaped requests pay the pruned-BFS
//! planning once and only re-bind their buffers, and the size-balanced
//! router's load measure (outstanding plan steps) reads off the cached
//! skeleton instead of a fresh compile.
//!
//! Admission control is the engine's open-loop story: with
//! [`BatchPolicy::capacity`] set, each shard's queue is bounded —
//! [`Client::try_submit`] sheds load
//! ([`Overloaded`](crate::Overloaded)) while [`Client::submit`] applies
//! backpressure (blocks for space).  Queues hold one FIFO lane per
//! [`Priority`] class and drain strictly by class; requests whose
//! deadline passed while queued resolve to
//! [`TicketError::Expired`](crate::TicketError::Expired) instead of
//! occupying a slot in the pass.

use crate::backend::Backend;
use crate::cache::{PlanCacheStats, SkeletonCache};
use crate::client::Client;
use crate::exec::{PassCore, PendingRequest};
use crate::policy::{BatchPolicy, Priority, Routing};
use crate::solve::{Compiled, Solve};
use crate::ticket::{self, SlotState};
use paco_core::arena::{ArenaStats, ScratchArena};
use paco_core::machine::available_processors;
use paco_core::metrics::{LatencyHistogram, LatencySnapshot};
use paco_core::tuning::Tuning;
use paco_dist::LowerCache;
use paco_incr::HandleRegistry;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a shard's executor sees when it locks its queue: one FIFO lane per
/// [`Priority`] class, drained strictly by class.
struct ShardQueue {
    lanes: [VecDeque<PendingRequest>; Priority::CLASSES],
    /// Once set, no further submissions are accepted; the executor drains
    /// what is queued and exits.
    shutdown: bool,
}

impl ShardQueue {
    fn new() -> Self {
        Self {
            lanes: Default::default(),
            shutdown: false,
        }
    }

    /// Requests queued across every lane — the depth the capacity bound
    /// applies to.
    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    fn push(&mut self, request: PendingRequest) {
        self.lanes[request.priority.lane()].push_back(request);
    }

    /// Dequeue up to `max_batch` live requests — higher classes first, FIFO
    /// within a class.  Requests whose deadline has passed are diverted into
    /// the second vector instead; they do not count against `max_batch`
    /// (an expired request never costs a live one its slot in the pass).
    fn drain_batch(
        &mut self,
        max_batch: usize,
        now: Instant,
    ) -> (Vec<PendingRequest>, Vec<PendingRequest>) {
        let mut batch = Vec::new();
        let mut expired = Vec::new();
        'lanes: for lane in &mut self.lanes {
            while let Some(request) = lane.pop_front() {
                if request.expired(now) {
                    expired.push(request);
                } else {
                    batch.push(request);
                    if batch.len() == max_batch {
                        break 'lanes;
                    }
                }
            }
        }
        (batch, expired)
    }
}

/// One shard's shared half: the queue producers push into and the counters
/// its executor maintains.
struct Shard {
    queue: Mutex<ShardQueue>,
    /// Signalled on every enqueue and on shutdown — wakes the executor.
    wake: Condvar,
    /// Signalled when a drain frees queue space and on shutdown — wakes
    /// producers blocked in [`Client::submit`] backpressure.
    space: Condvar,
    /// Mirror of the queue's current length, maintained under the queue
    /// lock but readable without it — the advisory signal capacity-aware
    /// routing peeks at.  The authoritative bound check happens under the
    /// lock.
    depth: AtomicUsize,
    /// High-water mark of `depth` over the shard's lifetime: the proof the
    /// capacity bound held.
    max_depth: AtomicUsize,
    /// Submissions admitted to this shard, ever — the arrival counter the
    /// adaptive gathering window estimates its rate from.
    arrivals: AtomicU64,
    /// Compiled plan steps enqueued-or-executing on this shard; the
    /// size-balanced router picks the shard minimizing this.
    outstanding_steps: AtomicU64,
    /// Passes this shard's executor ran.
    passes: AtomicU64,
    /// Requests this shard executed (resolved or poisoned).
    requests: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Self {
            queue: Mutex::new(ShardQueue::new()),
            wake: Condvar::new(),
            space: Condvar::new(),
            depth: AtomicUsize::new(0),
            max_depth: AtomicUsize::new(0),
            arrivals: AtomicU64::new(0),
            outstanding_steps: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }
}

/// State shared between the engine, its clients and its executor threads.
pub(crate) struct EngineShared {
    p: usize,
    tuning: Tuning,
    policy: BatchPolicy,
    backend: Backend,
    /// Lowered communication schedules for [`Backend::Distributed`], shared
    /// across shards: lowering depends only on the (payload, placement)
    /// pair, so one cache serves every shard without re-lowering.
    lower: LowerCache,
    shards: Vec<Shard>,
    /// One plan cache per shard (same indexing as `shards`): a shard's
    /// executor and the producers routed to it share skeletons without
    /// contending with the other shards' caches.
    caches: Vec<SkeletonCache>,
    /// One scratch arena per shard (same indexing): binds routed to a shard
    /// check their temporary buffers out of its pool and return them at
    /// finish, so a shard's steady-state traffic recycles allocations
    /// without contending with the other shards' pools.
    arenas: Vec<Arc<ScratchArena>>,
    /// Closed-graph handles of the incremental subsystem, shared by every
    /// shard: routing gives each graph's traffic *affinity* to one shard,
    /// but the state is reachable (behind its mutex) from all of them.
    registry: Arc<HandleRegistry>,
    /// Round-robin cursor.
    next_shard: AtomicUsize,
    /// Advisory fast-path flag; the per-shard `ShardQueue::shutdown` (under
    /// the queue lock) stays the authoritative word on whether an enqueue
    /// is accepted.
    shutting_down: std::sync::atomic::AtomicBool,
    enqueued: AtomicU64,
    rejected: AtomicU64,
    overloaded: AtomicU64,
    expired: AtomicU64,
    poisoned: AtomicU64,
    /// Queueing + execution latency of every request this engine completed
    /// (resolved `Done`; rejected/expired/poisoned requests are not mixed
    /// in).
    latency: LatencyHistogram,
}

impl EngineShared {
    pub(crate) fn p(&self) -> usize {
        self.p
    }

    /// Advisory: has shutdown begun?  Lets `Client::submit` skip compiling
    /// a request whose enqueue would be rejected anyway; a stale `false` is
    /// harmless (the locked per-shard check still rejects).
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Count one rejected submission and resolve its slot accordingly.
    pub(crate) fn reject(&self, slot: &crate::ticket::Slot) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        ticket::resolve(slot, SlotState::Rejected);
    }

    /// Compile `req` for shard `shard`, reusing that shard's cached
    /// skeleton for the request's shape when one exists (the
    /// [`Routing::SizeBalanced`] load measure — outstanding plan steps —
    /// then comes off the cache too, via
    /// [`Skeleton::steps`](crate::Skeleton::steps), instead of a fresh
    /// compile).  Runs on the producer's thread: executors never compile.
    pub(crate) fn compile_on<R: Solve>(&self, shard: usize, req: R) -> Compiled<R::Output> {
        let req = match self.backend {
            Backend::Local => req,
            Backend::Distributed { ranks } => {
                let skeleton = self.caches[shard].get_or_compile(
                    req.shape_key(),
                    ranks,
                    self.tuning.epoch,
                    |key| req.skeleton_for(key, &self.tuning, ranks),
                );
                match req.bind_dist(
                    &skeleton,
                    &self.tuning,
                    ranks,
                    &self.arenas[shard],
                    &self.lower,
                ) {
                    Ok(compiled) => return compiled,
                    // No distributed binding for this request: fall back to
                    // a local skeleton (cached separately — the processor
                    // counts differ).
                    Err(req) => req,
                }
            }
        };
        let skeleton =
            self.caches[shard].get_or_compile(req.shape_key(), self.p, self.tuning.epoch, |key| {
                req.skeleton_for(key, &self.tuning, self.p)
            });
        req.bind(&skeleton, &self.tuning, self.p, &self.arenas[shard])
    }

    pub(crate) fn registry(&self) -> Arc<HandleRegistry> {
        Arc::clone(&self.registry)
    }

    /// Route a submission that may carry a [`Solve::route_hint`]: a hinted
    /// request goes to `hint % shards` — a *stable* mapping, so every
    /// update/snapshot of one closed graph shares a shard queue, plan cache
    /// and arena — while unhinted requests fall through to the policy
    /// routing.
    pub(crate) fn route_for(&self, hint: Option<u64>) -> usize {
        match hint {
            Some(h) => (h % self.shards.len() as u64) as usize,
            None => self.route(),
        }
    }

    /// Pick the shard a new submission goes to.  Routing happens *before*
    /// compilation so the submission can compile against the routed
    /// shard's plan cache.
    pub(crate) fn route(&self) -> usize {
        match self.policy.routing {
            Routing::RoundRobin => {
                self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len()
            }
            Routing::SizeBalanced => {
                // Prefer the least-loaded shard *with queue space*; only
                // when every queue is at capacity fall back to the global
                // minimum (and let admission block or shed there).  The
                // depth reads are advisory — a racing admit can still fill
                // the chosen shard first — but the capacity bound itself is
                // enforced under that shard's lock, never here.
                let least_loaded = |shards: &mut dyn Iterator<Item = (usize, &Shard)>| {
                    shards
                        .min_by_key(|(_, s)| s.outstanding_steps.load(Ordering::Relaxed))
                        .map(|(i, _)| i)
                };
                let mut with_space = self.shards.iter().enumerate().filter(|(_, s)| {
                    self.policy
                        .capacity
                        .is_none_or(|cap| s.depth.load(Ordering::Relaxed) < cap)
                });
                least_loaded(&mut with_space)
                    .or_else(|| least_loaded(&mut self.shards.iter().enumerate()))
                    .unwrap_or(0)
            }
        }
    }

    /// Finish an admission whose capacity/shutdown checks already passed:
    /// queue the request and maintain every counter, all under the shard's
    /// queue lock an executor cannot drain past — so observers never see
    /// `executed > enqueued` and the depth gauges never overshoot the
    /// bound.
    fn admit(
        &self,
        shard: &Shard,
        queue: &mut MutexGuard<'_, ShardQueue>,
        request: PendingRequest,
    ) {
        shard
            .outstanding_steps
            .fetch_add(request.steps() as u64, Ordering::Relaxed);
        queue.push(request);
        let depth = queue.len();
        shard.depth.store(depth, Ordering::Relaxed);
        shard.max_depth.fetch_max(depth, Ordering::Relaxed);
        shard.arrivals.fetch_add(1, Ordering::Relaxed);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Fail-fast admission ([`Client::try_submit`]): admit the request
    /// unless the routed shard is at capacity, in which case count the
    /// overload and return `false` with nothing queued.  A shut-down engine
    /// resolves the slot `Rejected` and returns `true` — shutdown is the
    /// ticket's verdict, not an overload.
    pub(crate) fn try_enqueue(&self, shard: usize, request: PendingRequest) -> bool {
        let shard = &self.shards[shard];
        let mut queue = shard.queue.lock();
        if queue.shutdown {
            drop(queue);
            self.reject(&request.slot);
            return true;
        }
        if self.policy.capacity.is_some_and(|cap| queue.len() >= cap) {
            drop(queue);
            self.overloaded.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.admit(shard, &mut queue, request);
        drop(queue);
        shard.wake.notify_one();
        true
    }

    /// Backpressure admission ([`Client::submit`]): if the routed shard is
    /// at capacity, park until an executor drains below the bound or
    /// shutdown begins — then admit (or resolve the slot `Rejected`).  On
    /// an unbounded engine this never waits.
    pub(crate) fn enqueue_blocking(&self, shard: usize, request: PendingRequest) {
        let shard = &self.shards[shard];
        let mut queue = shard.queue.lock();
        if let Some(cap) = self.policy.capacity {
            shard
                .space
                .wait_while(&mut queue, |q| !q.shutdown && q.len() >= cap);
        }
        if queue.shutdown {
            drop(queue);
            self.reject(&request.slot);
            return;
        }
        self.admit(shard, &mut queue, request);
        drop(queue);
        shard.wake.notify_one();
    }
}

/// A snapshot of one shard's occupancy and work so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Batches this shard's executor drained and ran.  A batch counts
    /// once even when a re-closing [`IncUpdate`](crate::IncUpdate) splits
    /// it into two pool passes (see [`Session::flush`](crate::Session::flush)).
    pub passes: u64,
    /// Requests this shard executed (resolved or poisoned).
    pub requests: u64,
    /// Requests currently queued on this shard (not yet drained by a pass).
    pub queued: usize,
    /// High-water mark of `queued` over the shard's lifetime.  On a
    /// [`capacity`](BatchPolicy::capacity)-bounded engine this never
    /// exceeds the bound — the invariant `tests/engine_admission.rs` holds
    /// the engine to.
    pub max_depth: usize,
    /// Compiled plan steps currently enqueued-or-executing on this shard —
    /// the load measure size-balanced routing works from.
    pub outstanding_steps: u64,
    /// This shard's plan-cache counters (skeleton hits/misses/evictions).
    pub plan_cache: PlanCacheStats,
    /// This shard's scratch-arena counters (pooled-buffer hits/misses).
    pub arena: ArenaStats,
}

/// A snapshot of an engine's ingress counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted into a shard queue.
    pub enqueued: u64,
    /// Requests refused because the engine was shutting down.
    pub rejected: u64,
    /// Fail-fast submissions refused because the routed shard was at
    /// capacity ([`Client::try_submit`](crate::Client::try_submit) returned
    /// [`Overloaded`](crate::Overloaded)); nothing was queued for these.
    pub overloaded: u64,
    /// Requests whose deadline passed while queued; resolved
    /// [`Expired`](crate::TicketError::Expired) without executing.
    pub expired: u64,
    /// Requests lost to panicking passes.
    pub poisoned: u64,
    /// Queueing + execution latency of completed requests, log₂-bucketed.
    pub latency: LatencySnapshot,
    /// Per-shard occupancy and work.
    pub shards: Vec<ShardStats>,
}

impl EngineStats {
    /// Total executor passes across all shards.
    pub fn passes(&self) -> u64 {
        self.shards.iter().map(|s| s.passes).sum()
    }

    /// Total requests executed across all shards.
    pub fn executed(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Mean requests per pass — the coalescing win (1.0 means no request
    /// ever shared a pass).
    pub fn coalesce_ratio(&self) -> f64 {
        let passes = self.passes();
        if passes == 0 {
            1.0
        } else {
            self.executed() as f64 / passes as f64
        }
    }

    /// Highest queue depth any shard ever reached.  On a
    /// [`capacity`](BatchPolicy::capacity)-bounded engine this is `<=` the
    /// bound; unbounded, it is the "memory hoarding" gauge the load
    /// generator watches grow.
    pub fn max_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.max_depth).max().unwrap_or(0)
    }

    /// Plan-cache counters aggregated across every shard's cache.
    pub fn plan_cache(&self) -> PlanCacheStats {
        self.shards
            .iter()
            .map(|s| s.plan_cache)
            .fold(PlanCacheStats::default(), PlanCacheStats::merge)
    }

    /// Scratch-arena counters aggregated across every shard's pool; feed
    /// [`ArenaStats::reuse_ratio`] for the engine-wide reuse gauge.
    pub fn arena(&self) -> ArenaStats {
        self.shards
            .iter()
            .map(|s| s.arena)
            .fold(ArenaStats::default(), ArenaStats::merge)
    }

    /// Fraction of admission attempts refused (shutdown `rejected` plus
    /// capacity `overloaded`) out of all attempts that reached admission.
    /// `0.0` when nothing was attempted.
    pub fn reject_ratio(&self) -> f64 {
        let refused = self.rejected + self.overloaded;
        let attempts = self.enqueued + refused;
        if attempts == 0 {
            0.0
        } else {
            refused as f64 / attempts as f64
        }
    }
}

/// The concurrent front door: a set of executor shards (each owning its own
/// worker pool) serving a multi-producer submission queue under a
/// [`BatchPolicy`].
///
/// Construction spawns the executor threads; [`Engine::client`] hands out
/// `Clone + Send` [`Client`]s whose `submit`/`try_submit` can be called from
/// any thread at any time.  [`Engine::shutdown`] (or dropping the engine)
/// stops intake, drains every queued request through final passes, and joins
/// the executors and their pools — no admitted work is silently dropped.
///
/// ```
/// use paco_service::{Engine, Sort};
///
/// let engine = Engine::builder().procs(2).build();
/// let client = engine.client();
/// let ticket = client.submit(Sort { keys: vec![3.0, 1.0, 2.0] });
/// assert_eq!(ticket.wait().unwrap(), vec![1.0, 2.0, 3.0]);
/// engine.shutdown();
/// ```
pub struct Engine {
    shared: Arc<EngineShared>,
    executors: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine(p={}, shards={})",
            self.shared.p,
            self.shared.shards.len()
        )
    }
}

impl Engine {
    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with `p` processors per shard and an otherwise default
    /// configuration ([`Tuning::from_env`], [`BatchPolicy::default`]).
    pub fn new(p: usize) -> Self {
        Self::builder().procs(p).build()
    }

    /// The processor count of each shard's pool — every request is compiled
    /// for this `p`.
    pub fn p(&self) -> usize {
        self.shared.p
    }

    /// The tuning config every request is compiled with.
    pub fn tuning(&self) -> &Tuning {
        &self.shared.tuning
    }

    /// The admission and coalescing policy the executors run under.
    pub fn policy(&self) -> &BatchPolicy {
        &self.shared.policy
    }

    /// A cheap, `Clone + Send` submission handle.  Clients outlive the
    /// engine gracefully: submissions after shutdown resolve to
    /// [`TicketError::Rejected`](crate::TicketError::Rejected) instead of
    /// blocking forever.
    pub fn client(&self) -> Client {
        Client::new(Arc::clone(&self.shared))
    }

    /// The engine's closed-graph handle registry, shared across shards.
    /// Construct the incremental requests ([`IncClose`](crate::IncClose),
    /// [`IncUpdate`](crate::IncUpdate), …) against this registry; their
    /// [`Solve::route_hint`] then pins each
    /// graph's traffic to the shard owning its state.
    pub fn registry(&self) -> Arc<HandleRegistry> {
        self.shared.registry()
    }

    /// This engine's ingress counters, exact for this engine.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            enqueued: self.shared.enqueued.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            overloaded: self.shared.overloaded.load(Ordering::Relaxed),
            expired: self.shared.expired.load(Ordering::Relaxed),
            poisoned: self.shared.poisoned.load(Ordering::Relaxed),
            latency: self.shared.latency.snapshot(),
            shards: self
                .shared
                .shards
                .iter()
                .zip(self.shared.caches.iter().zip(&self.shared.arenas))
                .map(|(s, (cache, arena))| ShardStats {
                    passes: s.passes.load(Ordering::Relaxed),
                    requests: s.requests.load(Ordering::Relaxed),
                    queued: s.queue.lock().len(),
                    max_depth: s.max_depth.load(Ordering::Relaxed),
                    outstanding_steps: s.outstanding_steps.load(Ordering::Relaxed),
                    plan_cache: cache.stats(),
                    arena: arena.stats(),
                })
                .collect(),
        }
    }

    /// Stop intake, drain, and tear down.
    ///
    /// Every request admitted before this call still executes (the
    /// executors run final passes over their remaining queues — the
    /// gathering window is cut short, not the work; deadlines are still
    /// honoured, so an already-expired request resolves `Expired` rather
    /// than running).  Producers blocked in [`Client::submit`]
    /// backpressure wake up and their tickets resolve to
    /// [`TicketError::Rejected`](crate::TicketError::Rejected), as do
    /// requests submitted after this call.  Returns the engine's final
    /// stats once every executor thread and every worker pool has been
    /// joined — unlike a mid-flight [`Engine::stats`] call, the returned
    /// counters can no longer move.
    pub fn shutdown(mut self) -> EngineStats {
        // Executor threads catch pass panics themselves; a dead executor
        // means the executor logic itself is broken.
        assert!(self.shutdown_impl(), "engine executor thread panicked");
        self.stats()
    }

    /// Returns whether every executor thread exited cleanly.
    fn shutdown_impl(&mut self) -> bool {
        self.shared
            .shutting_down
            .store(true, std::sync::atomic::Ordering::Relaxed);
        for shard in &self.shared.shards {
            shard.queue.lock().shutdown = true;
            shard.wake.notify_all();
            // Producers parked in backpressure must wake to learn the
            // engine is gone — their requests resolve Rejected, not hang.
            shard.space.notify_all();
        }
        let mut clean = true;
        for handle in self.executors.drain(..) {
            clean &= handle.join().is_ok();
        }
        clean
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Unlike the explicit `shutdown()`, drop must not panic: the engine
        // may be dropped while a test assertion is already unwinding the
        // stack, and a double panic would abort and eat the real failure.
        let _ = self.shutdown_impl();
    }
}

/// Configures and builds an [`Engine`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    procs: Option<usize>,
    tuning: Option<Tuning>,
    base: Option<usize>,
    policy: Option<BatchPolicy>,
    shards: Option<usize>,
    backend: Backend,
}

impl EngineBuilder {
    /// Pin each shard's pool to `p` processors (default: the machine's
    /// available parallelism).
    pub fn procs(mut self, p: usize) -> Self {
        assert!(p >= 1, "an engine needs at least one processor per shard");
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

    /// Use an explicit admission/coalescing policy (default:
    /// [`BatchPolicy::default`]).
    pub fn policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Convenience: set only the shard count on top of whatever policy the
    /// builder ends up with — applied at [`EngineBuilder::build`], so it
    /// composes with [`EngineBuilder::policy`] in either call order (like
    /// [`EngineBuilder::base`] over the tuning).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Execute requests on `backend` (default: [`Backend::Local`]) — same
    /// semantics as
    /// [`SessionBuilder::backend`](crate::SessionBuilder::backend), applied
    /// to every shard.
    pub fn backend(mut self, backend: Backend) -> Self {
        if let Backend::Distributed { ranks } = backend {
            assert!(ranks >= 1, "a distributed engine needs at least one rank");
        }
        self.backend = backend;
        self
    }

    /// Spawn the executor shard(s) and finish the engine.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid — see [`BatchPolicy`]'s validation
    /// rules (`max_batch >= 1`, `shards >= 1`, `capacity != Some(0)`).
    pub fn build(self) -> Engine {
        let mut tuning = self.tuning.unwrap_or_else(Tuning::from_env);
        if let Some(base) = self.base {
            tuning = tuning.with_base(base);
        }
        let p = self.procs.unwrap_or_else(available_processors);
        let mut policy = self.policy.unwrap_or_default();
        if let Some(shards) = self.shards {
            policy.shards = shards;
        }
        policy.validate();

        let shared = Arc::new(EngineShared {
            p,
            tuning: tuning.clone(),
            policy,
            backend: self.backend,
            lower: LowerCache::new(),
            shards: (0..policy.shards).map(|_| Shard::new()).collect(),
            caches: (0..policy.shards)
                .map(|_| SkeletonCache::new(SkeletonCache::DEFAULT_CAP))
                .collect(),
            arenas: (0..policy.shards)
                .map(|_| Arc::new(ScratchArena::new()))
                .collect(),
            registry: Arc::new(HandleRegistry::new()),
            next_shard: AtomicUsize::new(0),
            shutting_down: std::sync::atomic::AtomicBool::new(false),
            enqueued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        });

        let executors = (0..policy.shards)
            .map(|shard_id| {
                // The pool handoff: build each shard's pool here and
                // move it into the executor thread that will own it.
                let core = PassCore::new(p, tuning.clone());
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("paco-engine-{shard_id}"))
                    .spawn(move || executor_loop(shard_id, core, shared))
                    .expect("failed to spawn engine executor thread")
            })
            .collect();

        Engine { shared, executors }
    }
}

/// EWMA estimate of a shard's arrival rate, feeding the
/// [`adaptive`](BatchPolicy::adaptive) gathering window.
struct RateEstimator {
    last_count: u64,
    last_at: Instant,
    /// Smoothed arrivals per second; `0.0` until the first sample.
    lambda: f64,
}

impl RateEstimator {
    /// Smoothing factor: ~0.4 weight on the newest sample reacts to a load
    /// shift within a few passes without chasing single-pass noise.
    const ALPHA: f64 = 0.4;

    fn new(now: Instant) -> Self {
        Self {
            last_count: 0,
            last_at: now,
            lambda: 0.0,
        }
    }

    /// Fold the shard's cumulative arrival count into the rate estimate.
    fn observe(&mut self, count: u64) {
        let now = Instant::now();
        let dt = now.duration_since(self.last_at).as_secs_f64();
        if dt < 1e-5 {
            // Too little wall clock since the last sample for the quotient
            // to mean anything; fold these arrivals into the next one.
            return;
        }
        let instantaneous = (count - self.last_count) as f64 / dt;
        self.lambda = if self.lambda == 0.0 {
            instantaneous
        } else {
            Self::ALPHA * instantaneous + (1.0 - Self::ALPHA) * self.lambda
        };
        self.last_count = count;
        self.last_at = now;
    }

    /// The Little's-law gathering window: at `lambda` arrivals/s, a full
    /// batch takes `max_batch / lambda` seconds to accumulate — waiting any
    /// longer buys nothing, waiting much less forfeits coalescing.  Capped
    /// at the policy `ceiling` (`max_wait`); before the first sample the
    /// ceiling itself is used.
    fn window(&self, max_batch: usize, ceiling: Duration) -> Duration {
        if self.lambda <= 0.0 {
            return ceiling;
        }
        ceiling.min(Duration::from_secs_f64(max_batch as f64 / self.lambda))
    }
}

/// One shard's executor: wait for work, gather a batch under the policy,
/// settle expired requests, run the pass, repeat; on shutdown, drain the
/// queue then join the pool.
fn executor_loop(shard_id: usize, core: PassCore, shared: Arc<EngineShared>) {
    let policy = shared.policy;
    let shard = &shared.shards[shard_id];
    let mut rate = RateEstimator::new(Instant::now());
    loop {
        let (mut batch, expired) = {
            let mut queue = shard.queue.lock();
            while queue.is_empty() && !queue.shutdown {
                shard.wake.wait(&mut queue);
            }
            if queue.is_empty() {
                // Shut down with nothing left to drain.
                break;
            }
            // The gathering window: wait (bounded by the window length) for
            // the batch to fill before draining.  Shutdown closes the
            // window early — drain now, don't dawdle.
            let window = if policy.adaptive {
                rate.window(policy.max_batch, policy.max_wait)
            } else {
                policy.max_wait
            };
            if policy.max_batch > 1 && window > Duration::ZERO {
                let deadline = Instant::now() + window;
                while queue.len() < policy.max_batch && !queue.shutdown {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    shard.wake.wait_for(&mut queue, deadline - now);
                }
            }
            let drained = queue.drain_batch(policy.max_batch, Instant::now());
            shard.depth.store(queue.len(), Ordering::Relaxed);
            drained
        };
        // The drain freed queue space; producers parked in backpressure can
        // re-fill while this pass runs.
        shard.space.notify_all();
        rate.observe(shard.arrivals.load(Ordering::Relaxed));

        if !expired.is_empty() {
            let steps: u64 = expired.iter().map(|r| r.steps() as u64).sum();
            for request in &expired {
                ticket::resolve(&request.slot, SlotState::Expired);
            }
            shard.outstanding_steps.fetch_sub(steps, Ordering::Relaxed);
            shared
                .expired
                .fetch_add(expired.len() as u64, Ordering::Relaxed);
        }
        if batch.is_empty() {
            continue;
        }

        let requests = batch.len() as u64;
        let steps: u64 = batch.iter().map(|r| r.steps() as u64).sum();
        // Count the pass before resolving its tickets, so a producer that
        // observed its ticket resolve also observes the pass counted.
        shard.passes.fetch_add(1, Ordering::Relaxed);
        shard.requests.fetch_add(requests, Ordering::Relaxed);
        if core.run_pass(&mut batch).is_err() {
            // The pass's tickets are already poisoned; the engine itself
            // survives and keeps serving subsequent submissions.
            shared.poisoned.fetch_add(requests, Ordering::Relaxed);
        } else {
            let now = Instant::now();
            for request in &batch {
                shared
                    .latency
                    .record(now.duration_since(request.submitted_at));
            }
        }
        shard.outstanding_steps.fetch_sub(steps, Ordering::Relaxed);
    }
    core.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SubmitOptions;
    use crate::solve::Prepared;
    use paco_runtime::schedule::{Plan, Step};
    use proptest::prelude::*;
    use std::any::Any;

    #[test]
    fn builder_shards_composes_with_policy_in_either_order() {
        let policy = BatchPolicy {
            max_batch: 8,
            ..BatchPolicy::default()
        };
        let shards_first = Engine::builder().procs(1).shards(2).policy(policy).build();
        assert_eq!(shards_first.policy().shards, 2);
        assert_eq!(shards_first.policy().max_batch, 8);
        let policy_first = Engine::builder().procs(1).policy(policy).shards(2).build();
        assert_eq!(policy_first.policy().shards, 2);
        assert_eq!(policy_first.policy().max_batch, 8);
        shards_first.shutdown();
        policy_first.shutdown();
    }

    #[test]
    fn rate_estimator_window_is_capped_and_tracks_rate() {
        let mut rate = RateEstimator::new(Instant::now() - Duration::from_secs(1));
        // No sample yet: the ceiling is the window.
        assert_eq!(
            rate.window(64, Duration::from_millis(5)),
            Duration::from_millis(5)
        );
        // ~1000 arrivals over ~1s → λ ≈ 1000/s → a 64-batch gathers in
        // ~64ms, far above a 5ms ceiling → still the ceiling...
        rate.observe(1000);
        assert_eq!(
            rate.window(64, Duration::from_millis(5)),
            Duration::from_millis(5)
        );
        // ...but a 4-batch gathers in ~4ms, inside the ceiling.
        let window = rate.window(4, Duration::from_millis(5));
        assert!(window < Duration::from_millis(5), "window = {window:?}");
        assert!(window > Duration::ZERO);
    }

    /// A no-op compiled request carrying an id as its output, for driving
    /// `ShardQueue` directly.
    struct Tagged {
        id: usize,
        skeleton: Plan<usize>,
    }

    impl Prepared for Tagged {
        fn skeleton(&self) -> &Plan<usize> {
            &self.skeleton
        }
        fn run_step(&self, _proc: usize, _idx: usize) {}
        fn take_output(&mut self) -> Box<dyn Any + Send> {
            Box::new(self.id)
        }
    }

    fn tagged(id: usize, priority: Priority, expired: bool) -> PendingRequest {
        let opts = SubmitOptions {
            priority,
            // An already-elapsed deadline: guaranteed expired at any
            // subsequent drain.
            deadline: expired.then(|| Instant::now() - Duration::from_millis(1)),
        };
        PendingRequest::new(
            Compiled::<usize>::from_prepared(Box::new(Tagged {
                id,
                skeleton: Plan::single_wave(1, vec![Step { proc: 0, job: 0 }]),
            })),
            ticket::new_slot(),
            opts,
        )
    }

    fn id_of(request: &mut PendingRequest) -> usize {
        *request
            .prepared
            .take_output()
            .downcast::<usize>()
            .expect("Tagged outputs usize")
    }

    const LANES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Model check of the drain: strictly-by-class ordering, FIFO
        /// within a class, expired requests diverted without consuming
        /// batch slots, and nothing lost or duplicated.
        #[test]
        fn drain_batch_orders_by_class_and_diverts_expired(
            shape in proptest::collection::vec((0usize..3, any::<bool>()), 1..40),
            max_batch in 1usize..8,
        ) {
            let mut queue = ShardQueue::new();
            for (id, &(lane, expired)) in shape.iter().enumerate() {
                queue.push(tagged(id, LANES[lane], expired));
            }
            let total = shape.len();
            prop_assert_eq!(queue.len(), total);

            let mut drained = Vec::new();
            while !queue.is_empty() {
                let before = queue.len();
                let (mut batch, mut expired) = queue.drain_batch(max_batch, Instant::now());
                // Expired requests never consume a live request's slot.
                prop_assert!(batch.len() <= max_batch);
                prop_assert!(!batch.is_empty() || !expired.is_empty());
                prop_assert_eq!(before, queue.len() + batch.len() + expired.len());

                // Within one batch: priorities never invert.
                for pair in batch.windows(2) {
                    prop_assert!(pair[0].priority >= pair[1].priority);
                }
                for request in batch.iter_mut().chain(expired.iter_mut()) {
                    let id = id_of(request);
                    prop_assert_eq!(request.expired(Instant::now()), shape[id].1);
                    drained.push((id, request.priority));
                }
            }

            // Nothing lost, nothing duplicated.
            prop_assert_eq!(drained.len(), total);
            let mut seen: Vec<usize> = drained.iter().map(|&(id, _)| id).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..total).collect::<Vec<_>>());

            // FIFO within each class across the whole drain sequence: the
            // live ids of one lane come out in push order.
            for lane in LANES {
                let order: Vec<usize> = drained
                    .iter()
                    .filter(|&&(id, p)| p == lane && !shape[id].1)
                    .map(|&(id, _)| id)
                    .collect();
                let mut sorted = order.clone();
                sorted.sort_unstable();
                prop_assert_eq!(order, sorted);
            }
        }
    }
}
