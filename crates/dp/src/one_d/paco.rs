//! PACO 1D algorithm (Sect. III-C, Fig. 6, Theorem 6).
//!
//! The self-updating triangles are traversed exactly as in the sequential
//! algorithm; only the external-updating squares are partitioned and
//! parallelised:
//!
//! * the square's processor list is split `⌊p/2⌋ : ⌈p/2⌉`;
//! * a cut along the *output* dimension (x) splits the output range in the same
//!   ratio — the two halves share the inputs and write disjoint outputs;
//! * a cut along the *input* dimension (y) splits the input range, allocates a
//!   temporary copy of the output for one half so both halves can run
//!   independently, and merges with a parallel element-wise `min` afterwards
//!   (lines 11–19 of Fig. 6);
//! * the recursion stops when a single processor is left, which then runs the
//!   sequential cache-oblivious square kernel.
//!
//! Since PR 3 the recursion is compiled by [`plan_one_d`] into the runtime's
//! wave-based [`Plan`] IR instead of driving the pool directly: the recursion
//! is replayed symbolically, every leaf becomes a [`OneDJob`] (plain data:
//! ranges plus buffer ids into a temporary arena sized at plan time), and
//! execution issues exactly one pool barrier per wave.  Sequential
//! compositions that stay on one processor (the triangle spine) share waves
//! through the pool's per-worker FIFO, and the processor-list semantics of
//! the pseudo-code are preserved without any work stealing.

use super::kernel::{square_update, triangle_co, Weight};
use paco_core::arena::ScratchArena;
use paco_core::proc_list::ProcList;
use paco_core::shared::SharedSlice;
use paco_runtime::schedule::{Front, Plan, PlanBuilder};
use std::ops::Range;
use std::sync::Arc;

/// Which array a [`OneDJob`] reads or writes: the main `D` array or one of the
/// temporaries allocated for y-cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buf {
    /// The shared `D[0..=n]` array.
    D,
    /// Temporary `i` of the plan's arena (covers one y-cut's output range).
    Tmp(usize),
}

/// One leaf of the compiled 1D schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OneDJob {
    /// Self-updating triangle over `range` (the sequential CO spine).
    Triangle {
        /// The index range (half-open) the triangle finalises.
        range: Range<usize>,
    },
    /// External update of `out` from the final range `inp`.
    Square {
        /// Source buffer (holds the final inputs).
        src: Buf,
        /// Destination buffer.
        dst: Buf,
        /// Offset translating output indices into `dst`.
        dst_off: usize,
        /// Input range (already final).
        inp: Range<usize>,
        /// Output range.
        out: Range<usize>,
    },
    /// Element-wise `dst[j] = min(dst[j], tmp[j])` over `chunk ⊆ out`
    /// (lines 17–18 of Fig. 6, one chunk per processor).
    MergeMin {
        /// Destination buffer being merged into.
        dst: Buf,
        /// Offset translating output indices into `dst`.
        dst_off: usize,
        /// The temporary holding the other half's contributions.
        tmp: usize,
        /// The full output range the temporary covers.
        out: Range<usize>,
        /// This step's slice of `out`.
        chunk: Range<usize>,
    },
}

/// The compiled PACO 1D schedule: the wave plan plus the lengths of the
/// temporaries its y-cuts need (allocated fresh by the executor).
#[derive(Debug, Clone)]
pub struct OneDPlan {
    /// The executable schedule.
    pub plan: Plan<OneDJob>,
    /// `tmp_len[i]` is the length of temporary `i`.
    pub tmp_len: Vec<usize>,
}

/// Compile the PACO 1D recursion for `D[0..=n]` on `p` processors.
pub fn plan_one_d(n: usize, p: usize, base: usize) -> OneDPlan {
    let base = base.max(2);
    let mut planner = OneDPlanner {
        b: PlanBuilder::new(p),
        tmp_len: Vec::new(),
        base,
    };
    let front = planner.b.root();
    planner.triangle(&front, ProcList::all(p), 0..n + 1);
    OneDPlan {
        plan: planner.b.finish(),
        tmp_len: planner.tmp_len,
    }
}

struct OneDPlanner {
    b: PlanBuilder<OneDJob>,
    tmp_len: Vec<usize>,
    base: usize,
}

impl OneDPlanner {
    /// `COP-1D△`: sequential spine (left triangle, parallel square, right
    /// triangle).  The spine leaves run on the list's first processor.
    fn triangle(&mut self, front: &Front, procs: ProcList, range: Range<usize>) -> Front {
        let len = range.len();
        if len <= 1 {
            return front.clone();
        }
        if len <= self.base || procs.len() == 1 {
            return self
                .b
                .step(front, procs.first(), OneDJob::Triangle { range });
        }
        let mid = range.start + len / 2;
        let f = self.triangle(front, procs, range.start..mid);
        let f = self.square(
            &f,
            procs,
            Buf::D,
            Buf::D,
            0,
            range.start..mid,
            mid..range.end,
        );
        self.triangle(&f, procs, mid..range.end)
    }

    /// `COP-1D□`: the parallel external-updating function of Fig. 6.
    #[allow(clippy::too_many_arguments)] // mirrors the pseudo-code signature
    fn square(
        &mut self,
        front: &Front,
        procs: ProcList,
        src: Buf,
        dst: Buf,
        dst_off: usize,
        inp: Range<usize>,
        out: Range<usize>,
    ) -> Front {
        if inp.is_empty() || out.is_empty() {
            return front.clone();
        }
        if procs.len() == 1 {
            return self.b.step(
                front,
                procs.only(),
                OneDJob::Square {
                    src,
                    dst,
                    dst_off,
                    inp,
                    out,
                },
            );
        }

        let (p1, p2) = procs.split_even();
        if out.len() >= inp.len() {
            // Cut on x: split the output range in the ratio |P1| : |P2|.
            let split = out.start + out.len() * p1.len() / procs.len();
            let left = self.square(front, p1, src, dst, dst_off, inp.clone(), out.start..split);
            let right = self.square(front, p2, src, dst, dst_off, inp, split..out.end);
            left.join(&right)
        } else {
            // Cut on y: split the input range; the second half accumulates
            // into a temporary covering the output, merged by a parallel min.
            let split = inp.start + inp.len() * p1.len() / procs.len();
            let tmp = self.tmp_len.len();
            self.tmp_len.push(out.len());
            let left = self.square(front, p1, src, dst, dst_off, inp.start..split, out.clone());
            let right = self.square(
                front,
                p2,
                src,
                Buf::Tmp(tmp),
                out.start,
                split..inp.end,
                out.clone(),
            );
            let f = left.join(&right);
            self.merge_min(&f, procs, dst, dst_off, tmp, out)
        }
    }

    /// Parallel element-wise merge, one chunk of `out` per processor.
    fn merge_min(
        &mut self,
        front: &Front,
        procs: ProcList,
        dst: Buf,
        dst_off: usize,
        tmp: usize,
        out: Range<usize>,
    ) -> Front {
        let p = procs.len();
        let mut fronts = Vec::with_capacity(p);
        for (k, proc) in procs.ids().enumerate() {
            let lo = out.start + k * out.len() / p;
            let hi = out.start + (k + 1) * out.len() / p;
            if lo >= hi {
                continue;
            }
            fronts.push(self.b.step(
                front,
                proc,
                OneDJob::MergeMin {
                    dst,
                    dst_off,
                    tmp,
                    out: out.clone(),
                    chunk: lo..hi,
                },
            ));
        }
        if fronts.is_empty() {
            front.clone()
        } else {
            Front::join_all(&fronts)
        }
    }
}

/// A prepared PACO 1D instance: the compiled wave plan plus the shared `D`
/// array and temporary arena its jobs interpret.  This is the unit the
/// service layer's `Session` schedules — alone, in batches, or mixed with
/// other workloads.  The schedule depends only on `(n, p, base)`, so
/// [`OneDRun::from_plan`] can bind fresh weights to a shared, possibly
/// cached [`OneDPlan`].
pub struct OneDRun<W> {
    w: W,
    d: SharedSlice<f64>,
    tmps: Vec<SharedSlice<f64>>,
    compiled: Arc<OneDPlan>,
    base: usize,
    /// Pool the temp arenas return to at finish (`from_plan_in` runs only).
    arena: Option<Arc<ScratchArena>>,
}

impl<W: Weight> OneDRun<W> {
    /// Compile an instance for `p` processors with base-case length `base`.
    pub fn prepare(n: usize, w: W, d0: f64, p: usize, base: usize) -> Self {
        let base = base.max(2);
        Self::from_plan(n, w, d0, Arc::new(plan_one_d(n, p, base)), base)
    }

    /// Bind an instance to an already-compiled (typically cached) plan.  The
    /// plan must have been produced by [`plan_one_d`] for exactly this `n`
    /// and the same `base`.
    pub fn from_plan(n: usize, w: W, d0: f64, compiled: Arc<OneDPlan>, base: usize) -> Self {
        let d = SharedSlice::new(n + 1, f64::INFINITY);
        d.set(0, d0);
        let tmps = compiled
            .tmp_len
            .iter()
            .map(|&len| SharedSlice::new(len, f64::INFINITY))
            .collect();
        Self {
            w,
            d,
            tmps,
            compiled,
            base: base.max(2),
            arena: None,
        }
    }

    /// As [`OneDRun::from_plan`], but checking the `D` array and every
    /// square-phase temp arena out of `arena` instead of allocating; the
    /// temps go back into the pool at [`OneDRun::finish`] (the `D` array is
    /// the output and leaves with the caller).
    pub fn from_plan_in(
        n: usize,
        w: W,
        d0: f64,
        compiled: Arc<OneDPlan>,
        base: usize,
        arena: Arc<ScratchArena>,
    ) -> Self {
        let d = SharedSlice::from_vec(arena.take_vec(n + 1, f64::INFINITY));
        d.set(0, d0);
        let tmps = compiled
            .tmp_len
            .iter()
            .map(|&len| SharedSlice::from_vec(arena.take_vec(len, f64::INFINITY)))
            .collect();
        Self {
            w,
            d,
            tmps,
            compiled,
            base: base.max(2),
            arena: Some(arena),
        }
    }

    /// The compiled wave schedule.
    pub fn plan(&self) -> &Plan<OneDJob> {
        &self.compiled.plan
    }

    fn buf(&self, b: &Buf) -> &SharedSlice<f64> {
        match b {
            Buf::D => &self.d,
            Buf::Tmp(i) => &self.tmps[*i],
        }
    }

    /// Interpret one job against the shared buffers.
    pub fn step(&self, _proc: paco_core::proc_list::ProcId, job: &OneDJob) {
        match job {
            OneDJob::Triangle { range } => triangle_co(&self.d, range.clone(), &self.w, self.base),
            OneDJob::Square {
                src,
                dst,
                dst_off,
                inp,
                out,
            } => square_update(
                self.buf(src),
                self.buf(dst),
                *dst_off,
                inp.clone(),
                out.clone(),
                &self.w,
                self.base,
            ),
            OneDJob::MergeMin {
                dst,
                dst_off,
                tmp,
                out,
                chunk,
            } => {
                let dst = self.buf(dst);
                let t = &self.tmps[*tmp];
                for j in chunk.clone() {
                    let merged = dst.get(j - dst_off).min(t.get(j - out.start));
                    dst.set(j - dst_off, merged);
                }
            }
        }
    }

    /// Read the full `D[0..=n]` array off the completed run.  The array's
    /// storage is handed out directly (no copy); pure temporaries return to
    /// the arena when the run was built with [`OneDRun::from_plan_in`].
    pub fn finish(self) -> Vec<f64> {
        if let Some(arena) = &self.arena {
            for t in self.tmps {
                arena.put_vec(t.into_vec());
            }
        }
        self.d.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_d::kernel::{one_d_reference, FnWeight};
    use paco_core::workload::ParagraphWeight;
    use paco_runtime::WorkerPool;

    /// Prepare-and-run helper standing in for the removed pool-threading
    /// wrapper; real callers go through `paco_service::Session`.
    fn one_d_paco<W: Weight + Clone>(
        n: usize,
        w: &W,
        d0: f64,
        pool: &WorkerPool,
        base: usize,
    ) -> Vec<f64> {
        let run = OneDRun::prepare(n, w.clone(), d0, pool.p(), base);
        run.plan().execute(pool, |proc, job| run.step(proc, job));
        run.finish()
    }

    fn assert_close(a: &[f64], b: &[f64], ctx: &str) {
        assert_eq!(a.len(), b.len());
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "{ctx}: mismatch at {j}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_for_various_p() {
        let w = ParagraphWeight { ideal: 11.0 };
        let n = 400;
        let expect = one_d_reference(n, &w, 0.0);
        for p in [1usize, 2, 3, 5, 7, 8] {
            let pool = WorkerPool::new(p);
            let got = one_d_paco(n, &w, 0.0, &pool, 16);
            assert_close(&expect, &got, &format!("p={p}"));
        }
    }

    #[test]
    fn small_inputs_and_degenerate_cases() {
        let w = ParagraphWeight { ideal: 2.0 };
        let pool = WorkerPool::new(4);
        assert_close(
            &one_d_reference(0, &w, 1.0),
            &one_d_paco(0, &w, 1.0, &pool, 8),
            "n=0",
        );
        assert_close(
            &one_d_reference(1, &w, 0.0),
            &one_d_paco(1, &w, 0.0, &pool, 8),
            "n=1",
        );
        assert_close(
            &one_d_reference(7, &w, 0.0),
            &one_d_paco(7, &w, 0.0, &pool, 8),
            "n=7",
        );
    }

    #[test]
    fn irregular_weight_function() {
        let w = FnWeight(|i: usize, j: usize| ((i * 31 + j * 17) % 23) as f64 * 0.5);
        let n = 333;
        let expect = one_d_reference(n, &w, 0.0);
        let pool = WorkerPool::new(6);
        let got = one_d_paco(n, &w, 0.0, &pool, 8);
        assert_close(&expect, &got, "irregular");
    }

    #[test]
    fn tiny_base_forces_deep_recursion() {
        let w = ParagraphWeight { ideal: 5.0 };
        let n = 200;
        let expect = one_d_reference(n, &w, 0.0);
        let pool = WorkerPool::new(5);
        let got = one_d_paco(n, &w, 0.0, &pool, 2);
        assert_close(&expect, &got, "base=2");
    }

    #[test]
    fn plan_is_reusable_and_counts_barriers() {
        // A plan is pure data: building it twice gives the same schedule, and
        // its barrier count equals its wave count.
        let a = plan_one_d(300, 4, 8);
        let b = plan_one_d(300, 4, 8);
        assert_eq!(a.plan.barriers(), b.plan.barriers());
        assert_eq!(a.plan.steps(), b.plan.steps());
        assert_eq!(a.tmp_len, b.tmp_len);
        assert!(a.plan.barriers() >= 1);
    }
}
