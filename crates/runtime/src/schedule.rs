//! The wave-based schedule IR every PACO front-end compiles to.
//!
//! The paper's central claim is that the pruned-BFS assignment is a
//! *workload-independent* schedule: partitioning decides, ahead of time, which
//! processor runs which piece and in which order.  Before this module each
//! workload crate re-implemented that discipline by hand against the raw pool
//! (`fork2` recursions, ad-hoc wavefront loops), so every scheduling
//! optimisation had to be repeated per workload.  This module separates the
//! two concerns the way real runtimes separate a schedule IR from kernels:
//!
//! * a **[`Plan`]** is an ordered list of **waves**; a wave is a list of
//!   **[`Step`]s**, each placing one workload-defined job on one processor;
//! * the executor ([`Plan::execute`]) runs the whole plan in **one**
//!   [`WorkerPool`] scope: one task per processor walks the waves, and the
//!   processors meet at a spin-then-park barrier between waves — one
//!   barrier per wave, and no hand-off through the calling thread;
//! * within a wave, steps on the *same* processor run in plan order,
//!   steps on different processors run concurrently.
//!
//! Jobs are plain data (ranges, block descriptors, …), not boxed closures: the
//! workload's runner closure interprets them against its own tables with
//! *concrete* kernel/tracker types, so the hot paths stay fully monomorphized
//! (the `LeafCall` trick from `paco-graph`, now the default for every
//! front-end), and the identical plan can be replayed sequentially through the
//! cache simulator ([`Plan::for_each`]) with the exact leaf→processor
//! assignment of the native run.
//!
//! # Building plans
//!
//! Front-ends with an explicit dependency graph (the LCS anti-diagonal
//! partitioning) layer it themselves and call [`Plan::from_waves`]; pruned-BFS
//! assignments become single-wave plans via [`Assignment::into_plan`].
//! Recursive 1-PIECE front-ends (Floyd–Warshall, 1D DP, MM) use the
//! [`PlanBuilder`]/[`Front`] pair: the builder replays the recursion
//! *symbolically*, and the front — a per-processor wave clock — captures the
//! series-parallel ordering exactly:
//!
//! * a step sequenced after a front may share a wave with its latest
//!   same-processor predecessor (the FIFO carries the ordering for free), but
//!   must start a **later** wave than any cross-processor predecessor;
//! * parallel branches start from the same front and [`Front::join`] merges
//!   their completion fronts element-wise.
//!
//! This is what flattens the Floyd–Warshall A/B/C/D recursion: the old
//! executor paid one barrier per `fork2` *and* per off-processor leaf, linear
//! in the recursion depth per phase, while the front only advances the wave
//! clock on true cross-processor hand-offs — the B/C forks and the following D
//! phase collapse into a constant number of waves per phase.
//!
//! # Batching
//!
//! [`Plan::concat`] composes plans sequentially.  [`Plan::batch`] runs many
//! *independent* plans through one pool pass: wave `w` of the batch is the
//! union of every constituent's wave `w`, so the barrier count is the **max**
//! of the constituents' wave counts, not the sum — many small problem
//! instances amortise the spawn/join round-trips that dominate them
//! individually (a ROADMAP "scale" item).

use crate::bfs::{Assignment, DcNode};
use crate::pool::{SpinBarrier, WorkerPool};
use paco_core::metrics::sched;
use paco_core::proc_list::ProcId;
use parking_lot::Mutex;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};

/// One placed task: run `job` on processor `proc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step<J> {
    /// The processor the job is pinned to.
    pub proc: ProcId,
    /// The workload-defined job payload (plain data, interpreted by the
    /// runner closure handed to [`Plan::execute`]).
    pub job: J,
}

/// An ordered wave schedule over `p` processors.  See the module docs.
#[derive(Debug, Clone)]
pub struct Plan<J> {
    waves: Vec<Vec<Step<J>>>,
    p: usize,
}

impl<J> Plan<J> {
    /// An empty plan (no waves, no steps) for `p` processors.
    pub fn empty(p: usize) -> Self {
        assert!(p >= 1, "a plan needs at least one processor");
        Self {
            waves: Vec::new(),
            p,
        }
    }

    /// Build a plan from explicit waves.  Every step's processor must be
    /// `< p`; empty waves are dropped (a barrier with nothing behind it is
    /// pure overhead).
    pub fn from_waves(p: usize, waves: Vec<Vec<Step<J>>>) -> Self {
        assert!(p >= 1, "a plan needs at least one processor");
        let waves: Vec<Vec<Step<J>>> = waves.into_iter().filter(|w| !w.is_empty()).collect();
        for wave in &waves {
            for step in wave {
                assert!(
                    step.proc < p,
                    "step targets processor {} but the plan has p = {p}",
                    step.proc
                );
            }
        }
        Self { waves, p }
    }

    /// A single-wave plan: every step independent (up to same-processor FIFO
    /// ordering), one barrier total.
    pub fn single_wave(p: usize, steps: Vec<Step<J>>) -> Self {
        Self::from_waves(p, vec![steps])
    }

    /// Number of processors the plan targets.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of waves, i.e. the exact number of pool barriers
    /// [`Plan::execute`] will issue.
    pub fn barriers(&self) -> usize {
        self.waves.len()
    }

    /// Total number of placed steps.
    pub fn steps(&self) -> usize {
        self.waves.iter().map(|w| w.len()).sum()
    }

    /// The raw waves (read-only), for inspection by tests and reports.
    pub fn waves(&self) -> &[Vec<Step<J>>] {
        &self.waves
    }

    /// Iterate over every step in schedule order (wave by wave).
    pub fn iter(&self) -> impl Iterator<Item = &Step<J>> {
        self.waves.iter().flatten()
    }

    /// Number of steps placed on each processor.
    pub fn steps_per_proc(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.p];
        for step in self.iter() {
            out[step.proc] += 1;
        }
        out
    }

    /// Weigh the plan under the barrier semantics of [`Plan::execute`]: a
    /// wave lasts as long as its slowest processor, so
    /// `makespan = Σ_waves max_q (Σ cost) / speed_q` — the paper's
    /// `T^max_p` as a count.  `speeds` gives each processor's relative
    /// throughput (Corollary 12's `tᵢ`); `None` means every processor runs
    /// at speed 1.
    ///
    /// # Panics
    ///
    /// If `speeds` does not have one positive entry per processor.
    pub fn profile(&self, speeds: Option<&[f64]>, cost: impl Fn(&J) -> u64) -> PlanProfile {
        let speeds = speeds.map_or_else(|| vec![1.0; self.p], <[f64]>::to_vec);
        assert_eq!(speeds.len(), self.p, "one speed per processor");
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        let mut per_proc = vec![0u64; self.p];
        let mut makespan = 0.0;
        let mut in_wave = vec![0u64; self.p];
        for wave in &self.waves {
            in_wave.fill(0);
            for step in wave {
                in_wave[step.proc] += cost(&step.job);
            }
            makespan += in_wave
                .iter()
                .zip(&speeds)
                .map(|(&w, &s)| w as f64 / s)
                .fold(0.0, f64::max);
            for (total, w) in per_proc.iter_mut().zip(&in_wave) {
                *total += w;
            }
        }
        PlanProfile {
            work: per_proc.iter().sum(),
            makespan,
            per_proc,
            speeds,
        }
    }

    /// Visit every step in schedule order with its wave index — the
    /// sequential twin of [`Plan::execute`], used by the traced (cache
    /// simulator) variants so they replay the *identical* leaf→processor
    /// assignment.
    pub fn for_each<F>(&self, mut f: F)
    where
        F: FnMut(usize, ProcId, &J),
    {
        for (w, wave) in self.waves.iter().enumerate() {
            for step in wave {
                f(w, step.proc, &step.job);
            }
        }
    }

    /// Sequential composition: every wave of `other` runs after every wave of
    /// `self`.  The result targets `max(p, other.p)` processors.
    pub fn concat(mut self, other: Plan<J>) -> Plan<J> {
        self.p = self.p.max(other.p);
        self.waves.extend(other.waves);
        self
    }

    /// Run many *independent* plans through one pool pass: wave `w` of the
    /// batch is the concatenation of wave `w` of every constituent, each job
    /// tagged with its plan's index.  The barrier count of the batch is the
    /// maximum of the constituents' barrier counts, not the sum.
    pub fn batch(plans: Vec<Plan<J>>) -> Plan<(usize, J)> {
        let p = plans.iter().map(|pl| pl.p).max().unwrap_or(1);
        let depth = plans.iter().map(|pl| pl.waves.len()).max().unwrap_or(0);
        let mut waves: Vec<Vec<Step<(usize, J)>>> = (0..depth).map(|_| Vec::new()).collect();
        for (idx, plan) in plans.into_iter().enumerate() {
            for (w, wave) in plan.waves.into_iter().enumerate() {
                waves[w].extend(wave.into_iter().map(|s| Step {
                    proc: s.proc,
                    job: (idx, s.job),
                }));
            }
        }
        Plan { waves, p }
    }

    /// [`Plan::batch`] over *borrowed* plans: merge without consuming (or
    /// deep-cloning) the constituents, cloning only the jobs actually placed.
    /// This is the executor path for cached plan skeletons — the same `Arc`ed
    /// skeleton can appear in any number of concurrent batches, so the merge
    /// must not take ownership.
    pub fn batch_refs(plans: &[&Plan<J>]) -> Plan<(usize, J)>
    where
        J: Clone,
    {
        let p = plans.iter().map(|pl| pl.p).max().unwrap_or(1);
        let depth = plans.iter().map(|pl| pl.waves.len()).max().unwrap_or(0);
        let mut waves: Vec<Vec<Step<(usize, J)>>> = (0..depth).map(|_| Vec::new()).collect();
        for (idx, plan) in plans.iter().enumerate() {
            for (w, wave) in plan.waves.iter().enumerate() {
                waves[w].extend(wave.iter().map(|s| Step {
                    proc: s.proc,
                    job: (idx, s.job.clone()),
                }));
            }
        }
        Plan { waves, p }
    }

    /// Transform every job, preserving the schedule.
    pub fn map<K>(self, mut f: impl FnMut(J) -> K) -> Plan<K> {
        Plan {
            waves: self
                .waves
                .into_iter()
                .map(|wave| {
                    wave.into_iter()
                        .map(|s| Step {
                            proc: s.proc,
                            job: f(s.job),
                        })
                        .collect()
                })
                .collect(),
            p: self.p,
        }
    }
}

/// What [`Plan::profile`] counts: total work, barrier-semantics makespan and
/// the work placed on each processor, all in the caller's cost unit.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProfile {
    /// Total cost of every step (`T_1`).
    pub work: u64,
    /// `Σ_waves max_q (Σ cost) / speed_q` (`T^max_p` under one barrier per
    /// wave); an integer count when every speed is 1.
    pub makespan: f64,
    /// Cost placed on each processor.
    pub per_proc: Vec<u64>,
    /// The per-processor speeds the makespan was weighed at.
    pub speeds: Vec<f64>,
}

impl PlanProfile {
    /// `work / (Σ speed · makespan)`: 1.0 means no processor ever waits at
    /// a barrier; at unit speeds, `1/p` means the plan never runs two
    /// processors at once.
    pub fn eff(&self) -> f64 {
        self.work as f64 / (self.speeds.iter().sum::<f64>() * self.makespan)
    }

    /// Busiest processor's work over the mean (`≥ 1`); blind to idling.
    pub fn imbalance(&self) -> f64 {
        let max = self.per_proc.iter().copied().max().unwrap_or(0);
        max as f64 * self.per_proc.len() as f64 / self.work as f64
    }
}

impl<J> Plan<J> {
    fn check_pool(&self, pool: &WorkerPool) {
        assert!(
            self.p <= pool.p(),
            "plan targets {} processors but the pool has {}",
            self.p,
            pool.p()
        );
    }
}

impl<J: Send + Sync> Plan<J> {
    /// Execute the plan on `pool`; `run(proc, &job)` runs on `proc`, steps
    /// on one processor in plan order.
    ///
    /// The whole plan runs in **one** `pool.scope`: each processor with
    /// steps gets one task that walks the waves in order and meets the
    /// others at a spin-then-park barrier between waves, so no wave pays a
    /// scope hand-off through the calling thread.  If a step panics, the
    /// run is poisoned: the remaining steps are skipped, every processor
    /// still crosses every barrier, and the first payload is re-thrown
    /// here.  The calling thread counts one pool barrier per wave.
    ///
    /// Panics if the plan targets more processors than the pool has.
    pub fn execute<F>(&self, pool: &WorkerPool, run: F)
    where
        F: Fn(ProcId, &J) + Sync,
    {
        self.check_pool(pool);
        let lanes = lanes(
            self.p,
            self.waves
                .iter()
                .map(|wave| wave.iter().map(|s| (s.proc, &s.job))),
        );
        run_waves(pool, self.waves.len(), lanes, &run);
        sched::record_plan_execution(self.waves.len() as u64, self.steps() as u64);
    }
}

impl<J: Send> Plan<J> {
    /// [`Plan::execute`], but consuming the plan and moving each job into its
    /// task — for jobs that carry owned resources (e.g. disjoint `MatMut`
    /// windows) rather than plain descriptors.  Same scope, barriers and
    /// panic semantics.
    pub fn execute_owned<F>(self, pool: &WorkerPool, run: F)
    where
        F: Fn(ProcId, J) + Sync,
    {
        self.check_pool(pool);
        let (waves, steps) = (self.waves.len(), self.steps());
        let lanes = lanes(
            self.p,
            self.waves
                .into_iter()
                .map(|wave| wave.into_iter().map(|s| (s.proc, s.job))),
        );
        run_waves(pool, waves, lanes, &run);
        sched::record_plan_execution(waves as u64, steps as u64);
    }
}

/// Regroup a plan's `(proc, job)` steps, wave by wave, into one lane per
/// processor: `lanes[q]` lists `q`'s steps as `(wave, job)` in plan order.
fn lanes<T, W, S>(p: usize, waves: W) -> Vec<Vec<(usize, T)>>
where
    W: IntoIterator<Item = S>,
    S: IntoIterator<Item = (ProcId, T)>,
{
    let mut lanes: Vec<Vec<(usize, T)>> = (0..p).map(|_| Vec::new()).collect();
    for (w, wave) in waves.into_iter().enumerate() {
        for (proc, job) in wave {
            lanes[proc].push((w, job));
        }
    }
    lanes
}

/// Run `waves` waves in one `pool.scope`: `lanes[q]` lists processor `q`'s
/// steps as `(wave, job)` in plan order (see [`lanes`]).  Each processor
/// with steps walks the waves and crosses a [`SpinBarrier`] after every
/// wave but the last (the scope's join is the last one).  A panicking step poisons the run:
/// later steps are dropped unrun, the barriers are still crossed, and the
/// first payload is re-thrown after the join.
fn run_waves<T: Send, F: Fn(ProcId, T) + Sync>(
    pool: &WorkerPool,
    waves: usize,
    lanes: Vec<Vec<(usize, T)>>,
    run: &F,
) {
    if waves == 0 {
        return;
    }
    let parties = lanes.iter().filter(|lane| !lane.is_empty()).count();
    let barrier = SpinBarrier::new(parties);
    let poisoned = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    pool.scope(|s| {
        for (proc, lane) in lanes.into_iter().enumerate() {
            if lane.is_empty() {
                continue;
            }
            let (barrier, poisoned, first_panic) = (&barrier, &poisoned, &first_panic);
            s.spawn_on(proc, move || {
                let mut lane = lane.into_iter().peekable();
                for w in 0..waves {
                    while let Some((_, job)) = lane.next_if(|&(at, _)| at == w) {
                        if poisoned.load(Ordering::Relaxed) {
                            continue;
                        }
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run(proc, job)));
                        if let Err(payload) = outcome {
                            poisoned.store(true, Ordering::Relaxed);
                            first_panic.lock().get_or_insert(payload);
                        }
                    }
                    if w + 1 < waves {
                        barrier.wait();
                    }
                }
            });
        }
    });
    // `scope` counted one barrier; the waves after the first count one each.
    for _ in 1..waves {
        sched::record_pool_barrier();
    }
    if let Some(payload) = first_panic.into_inner() {
        std::panic::resume_unwind(payload);
    }
}

impl<N: DcNode> Assignment<N> {
    /// Lower a pruned-BFS assignment into a single-wave plan: every node is
    /// independent; per-processor node order (largest piece first) is
    /// preserved by the pool's per-worker FIFO.
    pub fn into_plan(self) -> Plan<N> {
        let p = self.per_proc.len().max(1);
        let mut steps = Vec::with_capacity(self.total_nodes());
        for (proc, nodes) in self.per_proc.into_iter().enumerate() {
            steps.extend(nodes.into_iter().map(|job| Step { proc, job }));
        }
        Plan::single_wave(p, steps)
    }
}

/// A per-processor wave clock describing the completion front of already
/// planned work; see the module docs for the sequencing rules it encodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Front {
    /// `per_proc[q]` = first wave index a step on `q` sequenced after this
    /// front may occupy.
    per_proc: Vec<usize>,
}

impl Front {
    /// Merge the completion fronts of parallel branches (element-wise max).
    pub fn join(&self, other: &Front) -> Front {
        assert_eq!(self.per_proc.len(), other.per_proc.len());
        Front {
            per_proc: self
                .per_proc
                .iter()
                .zip(&other.per_proc)
                .map(|(&a, &b)| a.max(b))
                .collect(),
        }
    }

    /// Join an iterator of fronts (for k-way forks).
    pub fn join_all<'a>(fronts: impl IntoIterator<Item = &'a Front>) -> Front {
        let mut it = fronts.into_iter();
        let first = it
            .next()
            .expect("join_all needs at least one front")
            .clone();
        it.fold(first, |acc, f| acc.join(f))
    }
}

/// Builds a [`Plan`] from a symbolic replay of a series-parallel recursion.
#[derive(Debug)]
pub struct PlanBuilder<J> {
    waves: Vec<Vec<Step<J>>>,
    p: usize,
}

impl<J> PlanBuilder<J> {
    /// A builder for `p >= 1` processors.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "a plan needs at least one processor");
        Self {
            waves: Vec::new(),
            p,
        }
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The front before any work: every processor is free from wave 0.
    pub fn root(&self) -> Front {
        Front {
            per_proc: vec![0; self.p],
        }
    }

    /// Place `job` on `proc`, sequenced after `front`; returns the completion
    /// front of the step.
    ///
    /// The step lands in wave `front[proc]` — sharing a wave with its latest
    /// same-processor predecessor (the pool FIFO orders them) while starting
    /// strictly after every cross-processor predecessor.  Steps of parallel
    /// branches emitted into the same wave/processor are independent by
    /// construction, so their relative FIFO order is irrelevant.
    pub fn step(&mut self, front: &Front, proc: ProcId, job: J) -> Front {
        assert!(
            proc < self.p,
            "processor {proc} out of range (p = {})",
            self.p
        );
        let wave = front.per_proc[proc];
        if self.waves.len() <= wave {
            self.waves.resize_with(wave + 1, Vec::new);
        }
        self.waves[wave].push(Step { proc, job });
        let mut per_proc = front.per_proc.clone();
        for (q, slot) in per_proc.iter_mut().enumerate() {
            let earliest = if q == proc { wave } else { wave + 1 };
            *slot = (*slot).max(earliest);
        }
        Front { per_proc }
    }

    /// Finish: empty waves (possible when a front skipped a wave index on
    /// every processor) are dropped.
    pub fn finish(self) -> Plan<J> {
        Plan::from_waves(self.p, self.waves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_wave_executes_every_step_once() {
        let pool = WorkerPool::new(3);
        let plan = Plan::single_wave(
            3,
            (0..9)
                .map(|i| Step {
                    proc: i % 3,
                    job: i,
                })
                .collect(),
        );
        assert_eq!(plan.barriers(), 1);
        assert_eq!(plan.steps(), 9);
        assert_eq!(plan.steps_per_proc(), vec![3, 3, 3]);
        let hits = AtomicUsize::new(0);
        plan.execute(&pool, |proc, &job| {
            assert_eq!(proc, job % 3);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn waves_are_barriers_and_same_proc_steps_stay_ordered() {
        // Wave 1 must observe every wave-0 write; same-proc steps within a
        // wave run in plan order.
        let pool = WorkerPool::new(2);
        let plan = Plan::from_waves(
            2,
            vec![
                vec![
                    Step {
                        proc: 0,
                        job: 0usize,
                    },
                    Step { proc: 1, job: 1 },
                    Step { proc: 1, job: 2 },
                ],
                vec![Step { proc: 0, job: 3 }],
            ],
        );
        let log = Mutex::new(Vec::new());
        plan.execute(&pool, |_, &job| log.lock().push(job));
        let log = log.lock();
        assert_eq!(log.len(), 4);
        // Job 3 is in a later wave: it runs after everything else.
        assert_eq!(*log.last().unwrap(), 3);
        // Jobs 1 and 2 share worker 1: FIFO order.
        let pos = |j: usize| log.iter().position(|&x| x == j).unwrap();
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn empty_waves_are_dropped() {
        let plan: Plan<u32> = Plan::from_waves(2, vec![vec![], vec![Step { proc: 0, job: 1 }]]);
        assert_eq!(plan.barriers(), 1);
    }

    #[test]
    #[should_panic(expected = "targets processor")]
    fn from_waves_rejects_out_of_range_processors() {
        let _ = Plan::from_waves(2, vec![vec![Step { proc: 2, job: () }]]);
    }

    #[test]
    fn builder_front_sequencing_rules() {
        // seq(leaf on 0, leaf on 0) shares a wave; seq(leaf on 0, leaf on 1)
        // advances a wave; parallel branches overlap.
        let mut b = PlanBuilder::new(3);
        let f0 = b.root();
        let f1 = b.step(&f0, 0, "a");
        let f2 = b.step(&f1, 0, "b"); // same proc: same wave
        let f3 = b.step(&f2, 1, "c"); // cross proc: next wave
                                      // Parallel branches from f3:
        let left = b.step(&f3, 0, "d");
        let right = b.step(&f3, 2, "e");
        let joined = left.join(&right);
        let _ = b.step(&joined, 1, "f");
        let plan = b.finish();
        // a,b in wave 0; c in wave 1; d,e in wave 2; f in wave 3.
        assert_eq!(plan.barriers(), 4);
        let wave_of = |j: &str| {
            plan.waves()
                .iter()
                .position(|w| w.iter().any(|s| s.job == j))
                .unwrap()
        };
        assert_eq!(wave_of("a"), 0);
        assert_eq!(wave_of("b"), 0);
        assert_eq!(wave_of("c"), 1);
        assert_eq!(wave_of("d"), 2);
        assert_eq!(wave_of("e"), 2);
        assert_eq!(wave_of("f"), 3);
    }

    #[test]
    fn builder_execution_respects_dependencies() {
        // A diamond: s0 on p0 -> (s1 on p1 || s2 on p2) -> s3 on p0, with the
        // executed order verified through a shared cell.
        let mut b = PlanBuilder::new(3);
        let f = b.root();
        let f = b.step(&f, 0, 0usize);
        let l = b.step(&f, 1, 1);
        let r = b.step(&f, 2, 2);
        let _ = b.step(&l.join(&r), 0, 3);
        let plan = b.finish();
        let pool = WorkerPool::new(3);
        let order = Mutex::new(Vec::new());
        plan.execute(&pool, |_, &j| order.lock().push(j));
        let order = order.lock();
        let pos = |j: usize| order.iter().position(|&x| x == j).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(3) > pos(1) && pos(3) > pos(2));
    }

    #[test]
    fn concat_appends_waves() {
        let a = Plan::single_wave(2, vec![Step { proc: 0, job: 1u32 }]);
        let b = Plan::single_wave(2, vec![Step { proc: 1, job: 2u32 }]);
        let c = a.concat(b);
        assert_eq!(c.barriers(), 2);
        assert_eq!(c.steps(), 2);
    }

    #[test]
    fn batch_zips_waves_and_tags_instances() {
        let mk = |n_waves: usize, proc: ProcId| {
            Plan::from_waves(
                2,
                (0..n_waves).map(|w| vec![Step { proc, job: w }]).collect(),
            )
        };
        let batched = Plan::batch(vec![mk(3, 0), mk(1, 1), mk(2, 1)]);
        // Barrier count is the max, not the sum.
        assert_eq!(batched.barriers(), 3);
        assert_eq!(batched.steps(), 6);
        // Wave 0 holds wave 0 of every instance.
        assert_eq!(batched.waves()[0].len(), 3);
        let tags: Vec<usize> = batched.waves()[0].iter().map(|s| s.job.0).collect();
        assert_eq!(tags, vec![0, 1, 2]);
        // Executing the batch runs all six steps.
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        batched.execute(&pool, |_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn batch_refs_agrees_with_batch_without_consuming() {
        let mk = |n_waves: usize, proc: ProcId| {
            Plan::from_waves(
                2,
                (0..n_waves).map(|w| vec![Step { proc, job: w }]).collect(),
            )
        };
        let (a, b, c) = (mk(3, 0), mk(1, 1), mk(2, 1));
        let merged = Plan::batch_refs(&[&a, &b, &c]);
        let owned = Plan::batch(vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(merged.barriers(), owned.barriers());
        assert_eq!(merged.steps(), owned.steps());
        for (wa, wb) in merged.waves().iter().zip(owned.waves()) {
            assert_eq!(wa, wb);
        }
        // The constituents survive the merge untouched.
        assert_eq!(a.steps(), 3);
        assert_eq!(c.barriers(), 2);
        let empty = Plan::<usize>::batch_refs(&[]);
        assert_eq!(empty.steps(), 0);
    }

    #[test]
    fn assignment_lowers_to_single_wave_plan() {
        use crate::bfs::pruned_bfs;

        #[derive(Debug, Clone)]
        struct Node(f64);
        impl DcNode for Node {
            fn divide(&self) -> Vec<Self> {
                vec![Node(self.0 / 2.0), Node(self.0 / 2.0)]
            }
            fn is_base(&self) -> bool {
                self.0 <= 1.0
            }
            fn work(&self) -> f64 {
                self.0
            }
        }

        let assignment = pruned_bfs(Node(64.0), 3);
        let total = assignment.total_nodes();
        let plan = assignment.into_plan();
        assert_eq!(plan.barriers(), 1);
        assert_eq!(plan.steps(), total);
    }

    #[test]
    fn execute_records_sched_metrics() {
        let before = sched::snapshot();
        let pool = WorkerPool::new(2);
        let plan = Plan::from_waves(
            2,
            vec![
                vec![Step { proc: 0, job: () }, Step { proc: 1, job: () }],
                vec![Step { proc: 0, job: () }],
            ],
        );
        plan.execute(&pool, |_, _| {});
        let delta = sched::snapshot().since(&before);
        assert_eq!(delta.plan_executions, 1);
        assert_eq!(delta.plan_waves, 2);
        assert_eq!(delta.plan_steps, 3);
        // Each wave is exactly one pool barrier.
        assert!(delta.pool_barriers >= 2);
    }

    /// An irregular plan of `waves` waves over `p` processors: wave `w`
    /// holds `1 + w % (p + 1)` steps, dealt round-robin from processor
    /// `w % p`, so some waves leave processors idle and some stack two
    /// steps on one.  Jobs are `(wave, index in wave)`.
    fn ragged(p: usize, waves: usize) -> Plan<(usize, usize)> {
        Plan::from_waves(
            p,
            (0..waves)
                .map(|w| {
                    (0..1 + w % (p + 1))
                        .map(|i| Step {
                            proc: (w + i) % p,
                            job: (w, i),
                        })
                        .collect()
                })
                .collect(),
        )
    }

    /// Run `f` on a fresh thread and fail if it neither returns nor
    /// panics within `secs` seconds; returns whether it panicked.
    fn under_watchdog(secs: u64, f: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(f));
            let _ = tx.send(outcome.is_err());
        });
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .expect("plan execution hung")
    }

    #[test]
    fn two_hundred_waves_keep_barrier_order_at_every_p() {
        const WAVES: usize = 200;
        for p in [1usize, 2, 3, 5, 8] {
            let plan = ragged(p, WAVES);
            let sizes: Vec<usize> = plan.waves().iter().map(Vec::len).collect();
            let pool = WorkerPool::new(p);
            let done: Vec<AtomicUsize> = (0..WAVES).map(|_| AtomicUsize::new(0)).collect();
            let before = sched::snapshot();
            plan.execute(&pool, |proc, &(w, i)| {
                assert_eq!(proc, (w + i) % p, "step ran on the wrong processor");
                if w > 0 {
                    // Every step of the previous wave finished first.
                    assert_eq!(done[w - 1].load(Ordering::SeqCst), sizes[w - 1]);
                }
                // No step of the next wave started yet.
                if w + 1 < WAVES {
                    assert_eq!(done[w + 1].load(Ordering::SeqCst), 0);
                }
                done[w].fetch_add(1, Ordering::SeqCst);
            });
            let delta = sched::snapshot().since(&before);
            for (w, d) in done.iter().enumerate() {
                assert_eq!(d.load(Ordering::SeqCst), sizes[w], "p = {p}, wave {w}");
            }
            assert_eq!(delta.plan_waves, WAVES as u64);
            assert_eq!(delta.pool_barriers, WAVES as u64, "one barrier per wave");

            // The owning entry point runs the same schedule.
            let owned = AtomicUsize::new(0);
            ragged(p, WAVES).execute_owned(&pool, |_, _| {
                owned.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(owned.load(Ordering::SeqCst), sizes.iter().sum::<usize>());
        }
    }

    #[test]
    fn a_panicking_step_rethrows_instead_of_hanging() {
        // Wave 37 of 120 panics on one processor, through both entry
        // points: the call must re-throw that payload, run nothing after
        // the poisoned wave, and leave the pool usable.
        for owned in [false, true] {
            for p in [1usize, 2, 3, 8] {
                let panicked = under_watchdog(60, move || {
                    let pool = WorkerPool::new(p);
                    let late = AtomicUsize::new(0);
                    let step = |_: ProcId, (w, i): (usize, usize)| {
                        if w == 37 && i == 0 {
                            panic!("step in wave 37 fails");
                        }
                        if w > 37 {
                            late.fetch_add(1, Ordering::SeqCst);
                        }
                    };
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        if owned {
                            ragged(p, 120).execute_owned(&pool, step);
                        } else {
                            ragged(p, 120).execute(&pool, |q, &job| step(q, job));
                        }
                    }));
                    let payload = outcome.expect_err("the step's panic must re-throw");
                    assert_eq!(
                        payload.downcast_ref::<&str>().copied(),
                        Some("step in wave 37 fails")
                    );
                    assert_eq!(late.load(Ordering::SeqCst), 0, "ran past the poison");
                    let after = AtomicUsize::new(0);
                    ragged(p, 10).execute(&pool, |_, _| {
                        after.fetch_add(1, Ordering::SeqCst);
                    });
                    assert!(after.load(Ordering::SeqCst) > 0, "pool unusable");
                });
                assert!(!panicked, "owned = {owned}, p = {p}");
            }
        }
    }

    #[test]
    fn a_single_wave_plan_takes_the_same_panic_path() {
        // One wave, two steps per processor; the first step on processor 0
        // panics.  Both entry points re-throw it and skip the steps that
        // come after it, exactly as in a multi-wave plan.
        let steps = || {
            (0..4)
                .map(|i| Step {
                    proc: i % 2,
                    job: i,
                })
                .collect::<Vec<_>>()
        };
        for owned in [false, true] {
            let pool = WorkerPool::new(2);
            let ran = Mutex::new(Vec::new());
            let step = |_: ProcId, i: usize| {
                if i == 0 {
                    panic!("first step fails");
                }
                ran.lock().push(i);
            };
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if owned {
                    Plan::single_wave(2, steps()).execute_owned(&pool, step);
                } else {
                    Plan::single_wave(2, steps()).execute(&pool, |q, &i| step(q, i));
                }
            }));
            let payload = outcome.expect_err("the step's panic must re-throw");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("first step fails")
            );
            // Step 2 follows the panic on processor 0 and never runs.
            assert!(!ran.lock().contains(&2), "owned = {owned}");
        }
    }

    #[test]
    fn execute_owned_moves_jobs() {
        // Jobs owning data (a Vec) are moved into their tasks.
        let pool = WorkerPool::new(2);
        let plan = Plan::single_wave(
            2,
            vec![
                Step {
                    proc: 0,
                    job: vec![1u8, 2],
                },
                Step {
                    proc: 1,
                    job: vec![3u8],
                },
            ],
        );
        let total = AtomicUsize::new(0);
        plan.execute_owned(&pool, |_, job| {
            total.fetch_add(job.len(), Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn profile_charges_each_wave_its_busiest_processor() {
        // Wave 0: p0 = 3 + 1, p1 = 2; wave 1: p1 = 5 alone.
        let plan = Plan::from_waves(
            2,
            vec![
                vec![
                    Step { proc: 0, job: 3u64 },
                    Step { proc: 1, job: 2 },
                    Step { proc: 0, job: 1 },
                ],
                vec![Step { proc: 1, job: 5 }],
            ],
        );
        let prof = plan.profile(None, |&c| c);
        assert_eq!(prof.work, 11);
        assert_eq!(prof.makespan, (4 + 5) as f64);
        assert_eq!(prof.per_proc, vec![4, 7]);
        assert!((prof.eff() - 11.0 / 18.0).abs() < 1e-12);
        assert!((prof.imbalance() - 14.0 / 11.0).abs() < 1e-12);

        // p0 twice as fast: wave 0 lasts max(4/2, 2/1) = 2, wave 1 lasts 5.
        let fast = plan.profile(Some(&[2.0, 1.0]), |&c| c);
        assert_eq!(fast.makespan, 2.0 + 5.0);
        assert_eq!(fast.per_proc, prof.per_proc);
        assert!((fast.eff() - 11.0 / (3.0 * 7.0)).abs() < 1e-12);
    }

    #[test]
    fn map_preserves_schedule() {
        let plan = Plan::from_waves(
            2,
            vec![
                vec![Step { proc: 1, job: 7u32 }],
                vec![Step { proc: 0, job: 9 }],
            ],
        );
        let mapped = plan.map(|j| j as u64 * 2);
        assert_eq!(mapped.barriers(), 2);
        assert_eq!(mapped.waves()[0][0].job, 14);
        assert_eq!(mapped.waves()[1][0].job, 18);
    }
}
