//! A processor-aware worker pool.
//!
//! The PACO algorithms are *processor-aware*: the partitioning decides, ahead
//! of time, which processor executes which sub-problem.  A randomized
//! work-stealing pool (Cilk, rayon) deliberately hides that mapping, so this
//! crate provides its own small executor:
//!
//! * [`WorkerPool::new(p)`](WorkerPool::new) starts `p` long-lived worker
//!   threads, one per logical processor id `0..p`.
//! * [`WorkerPool::scope`] opens a scope in which
//!   [`PoolScope::spawn_on`] submits a closure **to a specific processor**.
//!   Tasks submitted to the same processor run in submission order (each worker
//!   drains a FIFO channel); tasks on different processors run concurrently.
//!   The scope joins every spawned task before it returns, so closures may
//!   borrow from the enclosing stack frame — the same guarantee as
//!   `std::thread::scope`, but without spawning threads per call.
//! * Panics inside tasks are captured and re-thrown from the scope on the
//!   caller's thread after all tasks have finished.
//! * A crate-private spin-then-park barrier (`SpinBarrier`) lets the tasks
//!   of one scope meet without returning to the caller: the plan executor
//!   ([`Plan::execute`](crate::schedule::Plan::execute)) runs a whole
//!   multi-wave plan in one scope, with one task per processor crossing
//!   the barrier between waves, instead of one scope hand-off per wave.
//!
//! The pool makes no attempt at work stealing — that is the whole point: the
//! PACO partitioning (not a scheduler) is responsible for balance, and the
//! experiments measure how well it does.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paco_core::proc_list::ProcId;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;

enum Message {
    Job(StaticJob),
    Shutdown,
}

/// A pool of `p` long-lived workers addressed by processor id.
///
/// Workers are *not* pinned to cores: the pool sets no CPU affinity, so the
/// operating system may migrate a worker between cores, and "processor
/// `i`" names a thread, not a core.  Opt-in placement is ROADMAP item 1(c).
///
/// The pool is `Send`: the thread that builds it need not be the thread that
/// drives it.  The service layer's concurrent front door relies on this —
/// each executor shard builds (or receives) its own pool and owns it for the
/// engine's lifetime, while producer threads never touch the pool at all.
/// The pool is deliberately *not* `Sync`-driven from many threads at once:
/// one owning thread opens scopes; everyone else talks to that thread.
pub struct WorkerPool {
    senders: Vec<Sender<Message>>,
    handles: Vec<JoinHandle<()>>,
}

// The handoff contract above, checked at compile time: a pool built on one
// thread can be moved into the executor thread that will own it.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<WorkerPool>();
};

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool(p={})", self.p())
    }
}

impl WorkerPool {
    /// Start a pool with `p >= 1` workers.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "WorkerPool needs at least one worker");
        let mut senders = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for proc in 0..p {
            let (tx, rx): (Sender<Message>, Receiver<Message>) = unbounded();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("paco-worker-{proc}"))
                .spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Message::Job(job) => job(),
                            Message::Shutdown => break,
                        }
                    }
                })
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// A pool sized to the hardware parallelism available to this process.
    pub fn with_available_parallelism() -> Self {
        Self::new(paco_core::machine::available_processors())
    }

    /// Number of workers (processors) in the pool.
    pub fn p(&self) -> usize {
        self.senders.len()
    }

    /// Open a scope in which tasks can be spawned onto specific processors and
    /// may borrow from the caller's stack.  Returns the closure's result after
    /// every spawned task has completed.
    ///
    /// If any task panicked, the panic is re-thrown here (after all tasks have
    /// finished, so no task is left running with dangling borrows).
    ///
    /// The join is unconditional: even when the scope closure itself unwinds
    /// after queueing borrowed jobs, `scope` waits for every spawned task
    /// before propagating the panic — the same guarantee as
    /// `std::thread::scope`.  Without the wait, a worker could still be
    /// running a closure that borrows from the frame being unwound.  When both
    /// the scope closure and a task panic, the closure's payload wins and the
    /// task's is dropped.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'_, 'env>) -> R,
    {
        paco_core::metrics::sched::record_pool_barrier();
        let scope = PoolScope {
            pool: self,
            state: Arc::new(ScopeState::default()),
            _marker: std::marker::PhantomData,
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait();
        match result {
            Ok(r) => {
                scope.rethrow_if_panicked();
                r
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Run `f(proc)` on every worker concurrently and wait for completion.
    pub fn run_on_all<F>(&self, f: F)
    where
        F: Fn(ProcId) + Sync,
    {
        self.scope(|s| {
            for proc in 0..self.p() {
                let f = &f;
                s.spawn_on(proc, move || f(proc));
            }
        });
    }

    /// Gracefully shut the pool down: deliver a shutdown message behind any
    /// queued work, then join every worker.
    ///
    /// `Drop` does the same, but swallows worker-thread join failures (it
    /// must not double-panic); the explicit form is for owners that want the
    /// drain to be loud — an engine shard shutting down calls this so a
    /// worker that died outside a scope (which "cannot happen": every job is
    /// wrapped in `catch_unwind`) surfaces instead of vanishing.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panicked (as opposed to a *job*,
    /// whose panics are captured and re-thrown by the scope that spawned it).
    pub fn shutdown(mut self) {
        for tx in &self.senders {
            let _ = tx.send(Message::Shutdown);
        }
        let mut dead = Vec::new();
        for (proc, handle) in self.handles.drain(..).enumerate() {
            if handle.join().is_err() {
                dead.push(proc);
            }
        }
        assert!(
            dead.is_empty(),
            "worker thread(s) {dead:?} panicked outside any scope"
        );
    }

    /// Execute a pre-computed assignment: `tasks[i]` is the ordered list of
    /// closures processor `i` must run.  Returns once every processor finished
    /// its list.
    pub fn run_assignment<'env, F>(&self, tasks: Vec<Vec<F>>)
    where
        F: FnOnce() + Send + 'env,
    {
        assert!(
            tasks.len() <= self.p(),
            "assignment uses {} processors but the pool has {}",
            tasks.len(),
            self.p()
        );
        self.scope(|s| {
            for (proc, list) in tasks.into_iter().enumerate() {
                for job in list {
                    s.spawn_on(proc, job);
                }
            }
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Message::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A reusable barrier for a fixed number of parties that spins briefly and
/// then parks.
///
/// Between two waves of a plan a processor usually waits for a few
/// microseconds of imbalance; parking and waking a thread costs tens of
/// microseconds on a shared virtual machine.  So a waiter first spins for
/// at most [`SpinBarrier::SPIN`] and only then blocks on a condition
/// variable.  The spin is a constant bound, not a tuning knob: past it the
/// barrier behaves like any blocking barrier, which is also what keeps
/// more parties than cores (p = 8 on two vCPUs) from burning the cores the
/// late party needs.
///
/// Crossing the barrier orders memory like a mutex hand-off: every write a
/// party made before [`wait`](SpinBarrier::wait) is visible to every party
/// after it returns.
pub(crate) struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl SpinBarrier {
    /// Longest a waiter spins before it parks.
    pub(crate) const SPIN: Duration = Duration::from_micros(50);

    /// A barrier for `parties >= 1` threads.
    pub(crate) fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        Self {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `parties` threads have called `wait` for this
    /// round; the barrier is then ready for the next round.
    pub(crate) fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last to arrive: reset for the next round, then release the
            // round.  No party can arrive again before it sees the new
            // generation, and that store publishes the reset.
            self.arrived.store(0, Ordering::Relaxed);
            let _guard = self.lock.lock();
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            self.wake.notify_all();
            return;
        }
        let start = Instant::now();
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) && start.elapsed() > Self::SPIN {
                // The releaser bumps the generation under the lock, so a
                // check under the lock cannot miss its notification.
                let mut guard = self.lock.lock();
                while self.generation.load(Ordering::Acquire) == generation {
                    self.wake.wait(&mut guard);
                }
                return;
            }
            std::hint::spin_loop();
        }
    }
}

#[derive(Default)]
struct ScopeState {
    pending: Mutex<usize>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Handle for spawning tasks inside a [`WorkerPool::scope`].
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    _marker: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Number of processors of the underlying pool.
    pub fn p(&self) -> usize {
        self.pool.p()
    }

    /// Submit `job` to processor `proc`.  Jobs submitted to the same processor
    /// execute in submission order; jobs on different processors run
    /// concurrently.  The closure may borrow data living at least as long as
    /// the enclosing scope (`'env`).
    pub fn spawn_on<F>(&self, proc: ProcId, job: F)
    where
        F: FnOnce() + Send + 'env,
    {
        assert!(proc < self.pool.p(), "processor {proc} out of range");
        *self.state.pending.lock() += 1;

        let state = Arc::clone(&self.state);
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(job));
            if let Err(payload) = outcome {
                let mut slot = state.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = state.pending.lock();
            *pending -= 1;
            if *pending == 0 {
                state.all_done.notify_all();
            }
        });

        // SAFETY: `scope()` joins every spawned task (wait()) before returning,
        // so the closure — and everything it borrows from 'env — outlives its
        // execution.  This is the standard scoped-pool lifetime erasure.
        let static_job: StaticJob =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, StaticJob>(wrapped) };
        self.pool.senders[proc]
            .send(Message::Job(static_job))
            .expect("worker thread terminated unexpectedly");
    }

    fn wait(&self) {
        let mut pending = self.state.pending.lock();
        while *pending > 0 {
            self.state.all_done.wait(&mut pending);
        }
    }

    fn rethrow_if_panicked(&self) {
        if let Some(payload) = self.state.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_tasks_on_requested_processors() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.scope(|s| {
            for proc in 0..4 {
                let hits = &hits;
                s.spawn_on(proc, move || {
                    // Each worker thread is named after its processor id.
                    let name = std::thread::current().name().unwrap().to_string();
                    assert_eq!(name, format!("paco-worker-{proc}"));
                    hits[proc].fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn tasks_on_same_processor_run_in_order() {
        let pool = WorkerPool::new(2);
        let log = parking_lot::Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..20 {
                let log = &log;
                s.spawn_on(1, move || log.lock().push(i));
            }
        });
        assert_eq!(*log.lock(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn scope_allows_borrowing_stack_data() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0u64; 3];
        {
            let chunks: Vec<&mut u64> = data.iter_mut().collect();
            pool.scope(|s| {
                for (proc, slot) in chunks.into_iter().enumerate() {
                    s.spawn_on(proc, move || *slot = proc as u64 + 10);
                }
            });
        }
        assert_eq!(data, vec![10, 11, 12]);
    }

    #[test]
    fn run_on_all_visits_every_processor() {
        let pool = WorkerPool::new(5);
        let seen: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        pool.run_on_all(|proc| {
            seen[proc].fetch_add(1, Ordering::SeqCst);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn run_assignment_executes_all_tasks() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Vec<_>> = (0..3)
            .map(|_| {
                (0..4)
                    .map(|_| {
                        let counter = &counter;
                        move || {
                            counter.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .collect()
            })
            .collect();
        pool.run_assignment(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn pool_can_be_handed_to_an_owning_thread_and_shut_down() {
        // The engine handoff pattern: build the pool here, move it into the
        // thread that will own and drive it, and shut it down explicitly when
        // that thread is done.
        let pool = WorkerPool::new(3);
        let handle = std::thread::spawn(move || {
            let total = AtomicUsize::new(0);
            pool.scope(|s| {
                let total = &total;
                for proc in 0..3 {
                    s.spawn_on(proc, move || {
                        total.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            pool.shutdown();
            total.load(Ordering::SeqCst)
        });
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn shutdown_after_a_job_panic_is_clean() {
        // A *job* panic is captured by the scope; the worker thread survives,
        // so the explicit shutdown must see every worker exit cleanly.
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn_on(0, || panic!("job dies, worker survives")));
        }));
        assert!(result.is_err());
        pool.shutdown();
    }

    #[test]
    fn nested_scopes_work() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            let total = &total;
            outer.spawn_on(0, move || {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        pool.scope(|s| {
            let total = &total;
            s.spawn_on(1, move || {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panics_propagate_to_the_scope_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn_on(0, || panic!("boom"));
                s.spawn_on(1, || {});
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.scope(|s| {
            let ok = &ok;
            s.spawn_on(0, move || {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "scope closure dies")]
    fn scope_closure_panic_propagates() {
        let pool = WorkerPool::new(2);
        pool.scope(|s| {
            s.spawn_on(0, || {});
            panic!("scope closure dies");
        });
    }

    #[test]
    fn scope_closure_panic_still_joins_borrowed_jobs() {
        // Regression test for the panic-unsafety fixed in `scope`: if the
        // scope closure unwinds after queueing jobs that borrow the enclosing
        // stack, the scope must still join them before propagating the panic —
        // otherwise a worker races with the unwinding frame (UB).  Observable
        // contract: by the time the panic escapes `scope`, every queued job
        // has finished writing through its borrow.
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let hits = &hits;
                for proc in 0..2 {
                    s.spawn_on(proc, move || {
                        // Give the closure time to unwind first.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("unwind with queued borrowed jobs");
            });
        }));
        assert!(result.is_err());
        assert_eq!(
            hits.load(Ordering::SeqCst),
            2,
            "all borrowed jobs must be joined before the scope unwinds"
        );
        // The pool must still be usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.scope(|s| {
            let ok = &ok;
            s.spawn_on(1, move || {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scope_closure_panic_wins_over_task_panic() {
        let pool = WorkerPool::new(1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn_on(0, || panic!("task payload"));
                panic!("closure payload");
            });
        }));
        let payload = result.expect_err("scope must panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "closure payload");
    }

    #[test]
    fn spin_barrier_orders_rounds_across_parties() {
        // Three parties, 200 rounds: in round r every party first checks
        // that all three wrote round r − 1, then writes round r.  A party
        // running ahead of the barrier would see a stale slot.
        const ROUNDS: usize = 200;
        let pool = WorkerPool::new(3);
        let barrier = SpinBarrier::new(3);
        let slots: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.run_on_all(|proc| {
            for round in 1..=ROUNDS {
                for slot in &slots {
                    assert_eq!(slot.load(Ordering::Relaxed), round - 1);
                }
                barrier.wait();
                slots[proc].store(round, Ordering::Relaxed);
                barrier.wait();
            }
        });
        assert!(slots.iter().all(|s| s.load(Ordering::Relaxed) == ROUNDS));
    }

    #[test]
    fn spin_barrier_parks_past_the_spin_bound() {
        // One party arrives long after the spin bound: the other must park
        // and still be woken.
        let pool = WorkerPool::new(2);
        let barrier = SpinBarrier::new(2);
        let after = AtomicUsize::new(0);
        pool.run_on_all(|proc| {
            if proc == 1 {
                std::thread::sleep(SpinBarrier::SPIN * 20);
            }
            barrier.wait();
            after.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(after.load(Ordering::SeqCst), 2);
        // A single party never waits.
        SpinBarrier::new(1).wait();
    }

    #[test]
    fn parallel_speed_sanity() {
        // Not a benchmark — just checks that independent processors genuinely
        // run concurrently (the scope would deadlock if a single worker had to
        // run a task that waits for a task queued behind it on the same worker).
        let pool = WorkerPool::new(2);
        let barrier = std::sync::Barrier::new(2);
        pool.scope(|s| {
            let b = &barrier;
            s.spawn_on(0, move || {
                b.wait();
            });
            s.spawn_on(1, move || {
                b.wait();
            });
        });
    }
}
