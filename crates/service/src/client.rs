//! The [`Client`]: a cheap, thread-safe submission handle onto an
//! [`Engine`](crate::Engine), with blocking ([`Client::submit`]) and
//! fail-fast ([`Client::try_submit`]) admission paths.

use crate::engine::EngineShared;
use crate::exec::PendingRequest;
use crate::policy::Priority;
use crate::solve::Solve;
use crate::ticket::{self, Ticket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request admission metadata: the priority class the shard queues
/// drain by and an optional deadline after which executing the request is
/// pointless.  Built fluently from [`SubmitOptions::new`].
///
/// An expired request is *not* executed — when the executor dequeues it
/// past its deadline, its ticket resolves to
/// [`TicketError::Expired`](crate::TicketError::Expired) and the request
/// does not occupy a slot in the pass.  Expiry is checked at dequeue time
/// (the single point every queued request flows through), so a deadline
/// bounds *queueing* delay: a request whose pass starts in time runs to
/// completion even if the pass itself outlives the deadline.
///
/// ```
/// use paco_service::{Priority, SubmitOptions};
/// use std::time::Duration;
///
/// let urgent = SubmitOptions::new()
///     .priority(Priority::High)
///     .deadline_in(Duration::from_millis(5));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Urgency class ([`Priority::Normal`] by default).
    pub(crate) priority: Priority,
    /// Latest instant at which starting the request's pass is still useful
    /// (`None`, the default, never expires).
    pub(crate) deadline: Option<Instant>,
}

impl SubmitOptions {
    /// The default options: [`Priority::Normal`], no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Expire the request if it has not started executing by `deadline`.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Expire the request if it has not started executing within `budget`
    /// from now.
    pub fn deadline_in(self, budget: Duration) -> Self {
        self.deadline(Instant::now() + budget)
    }
}

/// The shard a request was routed to is at its
/// [`capacity`](crate::BatchPolicy::capacity) bound — the fail-fast verdict
/// of [`Client::try_submit`].
///
/// This is *load shedding*, distinct from
/// [`TicketError::Rejected`](crate::TicketError::Rejected) (the engine shut
/// down — retrying is pointless): an `Overloaded` submission was never
/// admitted, nothing was queued, and retrying after backing off is exactly
/// what the caller should consider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded;

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("engine shard queue at capacity")
    }
}

impl std::error::Error for Overloaded {}

/// A `Clone + Send + Sync` handle for submitting requests to an
/// [`Engine`](crate::Engine) from any thread at any time — including while a
/// pass is in flight.
///
/// Submission routes the request to a shard first, then compiles it on the
/// *calling* thread **through that shard's plan cache**: same-shaped
/// requests reuse the shard's cached skeleton and only bind their buffers,
/// so producers pay (at most) their own compilation cost and the executor
/// threads spend their time purely on passes.  The returned [`Ticket`]
/// resolves when an executor pass completes the request; block on it with
/// [`Ticket::wait`] or poll with [`Ticket::try_wait`] — no `flush` call
/// exists or is needed on this path.
///
/// Two admission paths exist once the engine's
/// [`BatchPolicy::capacity`](crate::BatchPolicy::capacity) bounds the shard
/// queues: [`Client::submit`] applies **backpressure** (blocks until the
/// routed shard has space), [`Client::try_submit`] **sheds load** (fails
/// fast with [`Overloaded`] instead of waiting).  On an unbounded engine
/// (the default) the two behave identically and never refuse for load.
///
/// ```
/// use paco_service::{Engine, Lcs};
///
/// let engine = Engine::builder().procs(2).build();
/// let client = engine.client();
///
/// // Hand clones to as many producer threads as you like.
/// let worker = {
///     let client = client.clone();
///     std::thread::spawn(move || {
///         client.submit(Lcs { a: vec![1, 2, 3], b: vec![2, 3, 4] }).wait()
///     })
/// };
/// let here = client.submit(Lcs { a: vec![5, 6], b: vec![6, 5] });
/// assert_eq!(worker.join().unwrap().unwrap(), 2);
/// assert_eq!(here.wait().unwrap(), 1);
/// engine.shutdown();
/// ```
#[derive(Clone)]
pub struct Client {
    shared: Arc<EngineShared>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Client(p={})", self.shared.p())
    }
}

impl Client {
    pub(crate) fn new(shared: Arc<EngineShared>) -> Self {
        Self { shared }
    }

    /// The processor count requests are compiled for (each shard's pool
    /// width).
    pub fn p(&self) -> usize {
        self.shared.p()
    }

    /// Submit a request with default [`SubmitOptions`]: route it to a shard
    /// under the engine's [`BatchPolicy`](crate::BatchPolicy), compile it
    /// here through that shard's plan cache, and hand back the ticket its
    /// output will arrive through.
    ///
    /// On a [`capacity`](crate::BatchPolicy::capacity)-bounded engine this
    /// is the **backpressure** path: if the routed shard is full, the call
    /// blocks until an executor drains below the bound (or shutdown begins,
    /// in which case the ticket resolves to
    /// [`TicketError::Rejected`](crate::TicketError::Rejected)).  On an
    /// unbounded engine it never blocks on execution (only briefly on the
    /// shard queue lock).  If the engine has shut down, the ticket resolves
    /// immediately to `Rejected` — a client outliving its engine degrades
    /// loudly, it does not hang.
    pub fn submit<R: Solve>(&self, req: R) -> Ticket<R::Output> {
        self.submit_with(req, SubmitOptions::default())
    }

    /// [`Client::submit`] with explicit priority/deadline options.
    pub fn submit_with<R: Solve>(&self, req: R, opts: SubmitOptions) -> Ticket<R::Output> {
        let slot = ticket::new_slot();
        // Advisory fast path: don't pay compilation for a request a
        // shut-down engine would reject anyway.  The authoritative check
        // stays inside the enqueue (under the shard queue lock), so a racing
        // shutdown is still caught there.
        if self.shared.is_shutting_down() {
            self.shared.reject(&slot);
            return Ticket::new(slot);
        }
        let shard = self.shared.route_for(req.route_hint());
        let compiled = self.shared.compile_on(shard, req);
        self.shared
            .enqueue_blocking(shard, PendingRequest::new(compiled, slot.clone(), opts));
        Ticket::new(slot)
    }

    /// Submit a batch of same-typed requests with default options — the
    /// engine-side mirror of
    /// [`Session::run_batch`](crate::Session::run_batch).  Tickets come
    /// back in request order.
    pub fn submit_batch<R: Solve>(
        &self,
        reqs: impl IntoIterator<Item = R>,
    ) -> Vec<Ticket<R::Output>> {
        self.submit_batch_with(reqs, SubmitOptions::default())
    }

    /// [`Client::submit_batch`] with explicit priority/deadline options
    /// (applied to every request of the batch).
    ///
    /// The whole batch is routed to **one** shard, so requests that arrive
    /// together coalesce into the same passes instead of being scattered
    /// round-robin — and same-shaped requests compile once against that
    /// shard's plan cache.  Each request still admits individually:
    /// on a bounded engine a batch larger than the remaining capacity
    /// simply backpressures partway through, exactly as the equivalent
    /// `submit` loop would.
    pub fn submit_batch_with<R: Solve>(
        &self,
        reqs: impl IntoIterator<Item = R>,
        opts: SubmitOptions,
    ) -> Vec<Ticket<R::Output>> {
        let shard = self.shared.route();
        reqs.into_iter()
            .map(|req| {
                let slot = ticket::new_slot();
                if self.shared.is_shutting_down() {
                    self.shared.reject(&slot);
                    return Ticket::new(slot);
                }
                let compiled = self.shared.compile_on(shard, req);
                self.shared
                    .enqueue_blocking(shard, PendingRequest::new(compiled, slot.clone(), opts));
                Ticket::new(slot)
            })
            .collect()
    }

    /// Submit without ever waiting for queue space: route the request,
    /// compile it through the routed shard's plan cache, and admit it
    /// **only if** that shard is below its
    /// [`capacity`](crate::BatchPolicy::capacity) bound — otherwise fail
    /// fast with [`Overloaded`], having queued nothing.
    ///
    /// `Err(Overloaded)` means exactly "the routed shard was full at
    /// admission time": on an unbounded engine it is never returned, and a
    /// shut-down engine returns `Ok` of a ticket that resolves to
    /// [`TicketError::Rejected`](crate::TicketError::Rejected) (shutdown is
    /// a terminal verdict carried by the ticket, not a transient overload).
    pub fn try_submit<R: Solve>(&self, req: R) -> Result<Ticket<R::Output>, Overloaded> {
        self.try_submit_with(req, SubmitOptions::default())
    }

    /// [`Client::try_submit`] with explicit priority/deadline options.
    pub fn try_submit_with<R: Solve>(
        &self,
        req: R,
        opts: SubmitOptions,
    ) -> Result<Ticket<R::Output>, Overloaded> {
        let slot = ticket::new_slot();
        if self.shared.is_shutting_down() {
            self.shared.reject(&slot);
            return Ok(Ticket::new(slot));
        }
        let shard = self.shared.route_for(req.route_hint());
        let compiled = self.shared.compile_on(shard, req);
        if self
            .shared
            .try_enqueue(shard, PendingRequest::new(compiled, slot.clone(), opts))
        {
            Ok(Ticket::new(slot))
        } else {
            Err(Overloaded)
        }
    }
}
