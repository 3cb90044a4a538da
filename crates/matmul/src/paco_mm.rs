//! PACO rectangular matrix multiplication (Sect. III-E).
//!
//! Two faces of the same idea:
//!
//! * [`plan_paco_mm`] — the *general* PACO MM partitioning of Theorem 9: the
//!   computation cuboid `n × m × k` is cut in half along its longest dimension,
//!   level by level, by the pruned BFS traversal; every processor ends up with
//!   a geometrically decreasing sequence of cuboids whose total volume is
//!   `Θ(nmk/p)` and whose surface area matches the communication lower bound.
//!   The function returns the assignment so tests, the scaling experiment and
//!   the ablation bench can inspect the balance directly.
//!
//! * [`MmRun`] / [`paco_mm_1piece_with`] — the executable MM-1-PIECE
//!   algorithm of Corollary 10 (Fig. 8), the variant the paper benchmarks
//!   against MKL: processor lists are split `⌊p/2⌋ : ⌈p/2⌉` and the cuboid is
//!   split on its longest dimension in the same ratio, until a single
//!   processor remains and runs the sequential cache-oblivious kernel.  A
//!   height (`k`) cut allocates a temporary output and merges with a parallel
//!   addition afterwards, exactly as lines 27–37 of Fig. 7 / Fig. 8 describe.
//!   Run it through `paco_service::Session` with the `MatMul` request.
//!
//! Since PR 3 the 1-PIECE recursion is compiled by [`plan_mm_1piece`] into the
//! runtime's wave-based [`Plan`] IR instead of driving the pool with `fork2`:
//! the recursion is replayed symbolically, leaves and reduction adds become
//! [`MmJob`] descriptors (block coordinates into the output and a temporary
//! arena sized at plan time), and the executor interprets them against
//! `UnsafeCell`-backed [`SharedGrid`] storage, rebuilding `MatMut`/`MatRef`
//! windows per job.  Jobs are plain data, so the leaf kernel call is fully
//! monomorphized — no boxed closures, no virtual dispatch on the hot path —
//! and the same plan could be replayed sequentially step by step.
//!
//! The same recursion, parameterised by throughput fractions and a leaf
//! throttle, also implements the heterogeneous variant (see [`crate::hetero`]).

use crate::co_mm::co_mm_with_cutoff;
use crate::kernel::MM_BASE;
use paco_core::matrix::{MatMut, MatRef, Matrix};
use paco_core::proc_list::{ProcId, ProcList};
use paco_core::semiring::Semiring;
use paco_core::shared::SharedGrid;
use paco_runtime::hetero::ThrottleSpec;
use paco_runtime::schedule::{Front, Plan, PlanBuilder};
use paco_runtime::{pruned_bfs, Assignment, DcNode, WorkerPool};
use std::sync::Arc;

/// A computation cuboid `n × m × k` (output `n × m`, inputs `n × k` and
/// `k × m`); the node type of the pruned BFS partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cuboid {
    /// Output rows.
    pub n: usize,
    /// Output columns.
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Base-case threshold (a cuboid stops dividing when all dims are ≤ this).
    pub base: usize,
}

impl Cuboid {
    /// Volume `n·m·k` — the computational weight.
    pub fn volume(&self) -> f64 {
        self.n as f64 * self.m as f64 * self.k as f64
    }

    /// Surface area `nm + nk + mk` — the communication weight.
    pub fn surface_area(&self) -> f64 {
        (self.n * self.m + self.n * self.k + self.m * self.k) as f64
    }
}

impl DcNode for Cuboid {
    fn divide(&self) -> Vec<Self> {
        let mut c1 = *self;
        let mut c2 = *self;
        if self.n >= self.m && self.n >= self.k {
            c1.n = self.n / 2;
            c2.n = self.n - self.n / 2;
        } else if self.m >= self.k {
            c1.m = self.m / 2;
            c2.m = self.m - self.m / 2;
        } else {
            c1.k = self.k / 2;
            c2.k = self.k - self.k / 2;
        }
        vec![c1, c2]
    }

    fn is_base(&self) -> bool {
        self.n.max(self.m).max(self.k) <= self.base
    }

    fn work(&self) -> f64 {
        self.volume()
    }

    fn surface(&self) -> f64 {
        self.surface_area()
    }
}

/// The general PACO MM partitioning (Theorem 9): pruned BFS of the
/// `n × m × k` cuboid over `p` processors.
pub fn plan_paco_mm(n: usize, m: usize, k: usize, p: usize) -> Assignment<Cuboid> {
    plan_paco_mm_with_base(n, m, k, p, MM_BASE)
}

/// [`plan_paco_mm`] with an explicit base-case threshold.
pub fn plan_paco_mm_with_base(
    n: usize,
    m: usize,
    k: usize,
    p: usize,
    base: usize,
) -> Assignment<Cuboid> {
    pruned_bfs(Cuboid { n, m, k, base }, p)
}

/// How the 1-PIECE recursion splits work between the two halves of a processor
/// list, and whether leaves emulate slower cores.
#[derive(Debug, Clone)]
pub struct MmConfig {
    /// Per-processor load fractions (length = total `p`); `None` means split by
    /// processor count (the homogeneous ⌊p/2⌋:⌈p/2⌉ rule).
    pub fractions: Option<Vec<f64>>,
    /// Leaf throttle emulating heterogeneous cores; `None` means no throttling.
    pub throttle: Option<ThrottleSpec>,
    /// Base-case threshold handed to the sequential kernel.
    pub cutoff: usize,
}

impl Default for MmConfig {
    fn default() -> Self {
        Self {
            fractions: None,
            throttle: None,
            cutoff: MM_BASE,
        }
    }
}

impl MmConfig {
    /// The relative load share of processors `[lo, hi)`.
    fn share(&self, list: ProcList) -> f64 {
        match &self.fractions {
            Some(f) => list.ids().map(|i| f[i]).sum(),
            None => list.len() as f64,
        }
    }
}

/// A rectangular block: `rows × cols` cells starting at `(r0, c0)` of its
/// parent matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// First row.
    pub r0: usize,
    /// First column.
    pub c0: usize,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Rect {
    fn split_rows(self, at: usize) -> (Rect, Rect) {
        (
            Rect { rows: at, ..self },
            Rect {
                r0: self.r0 + at,
                rows: self.rows - at,
                ..self
            },
        )
    }

    fn split_cols(self, at: usize) -> (Rect, Rect) {
        (
            Rect { cols: at, ..self },
            Rect {
                c0: self.c0 + at,
                cols: self.cols - at,
                ..self
            },
        )
    }
}

/// An output block: which buffer (`0` = the real output `C`, `i + 1` =
/// temporary `i` of the plan's arena) and which rectangle of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// Buffer id (`0` = `C`, else temporary `buf - 1`).
    pub buf: usize,
    /// The block's rectangle within that buffer.
    pub rect: Rect,
}

/// One step of the compiled MM-1-PIECE schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmJob {
    /// `c += A[a] ⊗ B[b]` with the sequential cache-oblivious kernel.
    Leaf {
        /// Output block.
        c: BlockRef,
        /// Block of the input matrix `A`.
        a: Rect,
        /// Block of the input matrix `B`.
        b: Rect,
    },
    /// Element-wise reduction `c += d` (one row band of a height cut's
    /// temporary, the "parallel for" of Fig. 7 lines 35–36).
    Add {
        /// Destination band.
        c: BlockRef,
        /// Source band (same shape).
        d: BlockRef,
    },
}

impl MmJob {
    /// Semiring multiply-adds (a leaf) or element additions (a reduction
    /// band) the job performs — the unit [`Plan::profile`] weighs MM plans
    /// in.
    pub fn cost(&self) -> u64 {
        let volume = match self {
            MmJob::Leaf { c, a, .. } => c.rect.rows * c.rect.cols * a.cols,
            MmJob::Add { c, .. } => c.rect.rows * c.rect.cols,
        };
        volume as u64
    }
}

/// The compiled MM-1-PIECE schedule: the wave plan plus the shapes of the
/// temporaries its height cuts need (allocated fresh by the executor).
#[derive(Debug, Clone)]
pub struct MmPlan {
    /// The executable schedule.
    pub plan: Plan<MmJob>,
    /// `temps[i]` is the `(rows, cols)` shape of temporary `i`.
    pub temps: Vec<(usize, usize)>,
}

/// Compile the 1-PIECE recursion of Fig. 8 (plus the Fig. 7 height-cut
/// reduction) for a `C = A(n×k) ⊗ B(k×m)` product on `p` processors.
///
/// Only [`MmConfig::fractions`] influences the schedule (it decides the cut
/// ratios); the cutoff and throttle are execution-time concerns.
pub fn plan_mm_1piece(n: usize, m: usize, k: usize, p: usize, cfg: &MmConfig) -> MmPlan {
    let mut planner = MmPlanner {
        b: PlanBuilder::new(p),
        temps: Vec::new(),
        cfg,
    };
    let front = planner.b.root();
    planner.recurse(
        &front,
        ProcList::all(p),
        BlockRef {
            buf: 0,
            rect: Rect {
                r0: 0,
                c0: 0,
                rows: n,
                cols: m,
            },
        },
        Rect {
            r0: 0,
            c0: 0,
            rows: n,
            cols: k,
        },
        Rect {
            r0: 0,
            c0: 0,
            rows: k,
            cols: m,
        },
    );
    MmPlan {
        plan: planner.b.finish(),
        temps: planner.temps,
    }
}

struct MmPlanner<'a> {
    b: PlanBuilder<MmJob>,
    temps: Vec<(usize, usize)>,
    cfg: &'a MmConfig,
}

impl MmPlanner<'_> {
    fn recurse(&mut self, front: &Front, procs: ProcList, c: BlockRef, a: Rect, b: Rect) -> Front {
        let n = c.rect.rows;
        let m = c.rect.cols;
        let k = a.cols;
        if n == 0 || m == 0 || k == 0 {
            return front.clone();
        }
        if procs.len() == 1 {
            return self.b.step(front, procs.only(), MmJob::Leaf { c, a, b });
        }

        let (p1, p2) = procs.split_even();
        let (share1, share2) = (self.cfg.share(p1), self.cfg.share(p2));
        let ratio = |dim: usize| -> usize {
            let cut = (dim as f64 * share1 / (share1 + share2)).round() as usize;
            cut.min(dim)
        };

        if n >= m && n >= k {
            // Cut on X (rows of A and C).
            let cut = ratio(n);
            let (a1, a2) = a.split_rows(cut);
            let (c1, c2) = c.rect.split_rows(cut);
            let left = self.recurse(front, p1, BlockRef { rect: c1, ..c }, a1, b);
            let right = self.recurse(front, p2, BlockRef { rect: c2, ..c }, a2, b);
            left.join(&right)
        } else if m >= k {
            // Cut on Y (columns of B and C).
            let cut = ratio(m);
            let (b1, b2) = b.split_cols(cut);
            let (c1, c2) = c.rect.split_cols(cut);
            let left = self.recurse(front, p1, BlockRef { rect: c1, ..c }, a, b1);
            let right = self.recurse(front, p2, BlockRef { rect: c2, ..c }, a, b2);
            left.join(&right)
        } else {
            // Cut on Z (the reduction dimension): the upper half accumulates
            // into a temporary D which is then merged with a parallel addition.
            let cut = ratio(k);
            let (a1, a2) = a.split_cols(cut);
            let (b1, b2) = b.split_rows(cut);
            let tmp = self.temps.len();
            self.temps.push((n, m));
            let d = BlockRef {
                buf: tmp + 1,
                rect: Rect {
                    r0: 0,
                    c0: 0,
                    rows: n,
                    cols: m,
                },
            };
            let left = self.recurse(front, p1, c, a1, b1);
            let right = self.recurse(front, p2, d, a2, b2);
            let f = left.join(&right);
            self.parallel_add(&f, procs, c, d)
        }
    }

    /// `c += d`, spread row-wise over the processor list.
    fn parallel_add(&mut self, front: &Front, procs: ProcList, c: BlockRef, d: BlockRef) -> Front {
        let p = procs.len();
        let rows = c.rect.rows;
        let mut fronts = Vec::with_capacity(p);
        let mut c_rest = c.rect;
        let mut d_rest = d.rect;
        for (idx, proc) in procs.ids().enumerate() {
            let hi = (idx + 1) * rows / p;
            let lo = idx * rows / p;
            let take = hi - lo;
            let (c_band, c_next) = c_rest.split_rows(take);
            let (d_band, d_next) = d_rest.split_rows(take);
            c_rest = c_next;
            d_rest = d_next;
            if take > 0 {
                fronts.push(self.b.step(
                    front,
                    proc,
                    MmJob::Add {
                        c: BlockRef { rect: c_band, ..c },
                        d: BlockRef { rect: d_band, ..d },
                    },
                ));
            }
        }
        if fronts.is_empty() {
            front.clone()
        } else {
            Front::join_all(&fronts)
        }
    }
}

/// A prepared MM-1-PIECE instance: the compiled schedule plus the
/// `UnsafeCell`-backed output/temporary grids its jobs interpret.  Each job
/// rebuilds its disjoint window views, and the plan's wave discipline
/// provides the `SharedGrid` safety contract.  This is the unit the service
/// layer's `Session` schedules — alone, in batches, or mixed with other
/// workloads — and [`paco_mm_1piece_with`] is the borrowing variant over the
/// same interpreter.  Only [`MmConfig::fractions`] shapes the schedule, so
/// [`MmRun::from_plan`] can bind fresh operands to a shared, possibly cached
/// [`MmPlan`].
pub struct MmRun<S: Semiring> {
    a: Matrix<S>,
    b: Matrix<S>,
    cfg: MmConfig,
    compiled: Arc<MmPlan>,
    buffers: MmBuffers<S>,
}

/// The `UnsafeCell`-backed output and height-cut temporaries of one compiled
/// MM-1-PIECE schedule, with the job interpreter over them — shared between
/// the owning [`MmRun`] and the borrowing [`paco_mm_1piece_with`] path so
/// neither pays for the other's ownership model.
struct MmBuffers<S> {
    c_grid: SharedGrid<S>,
    temps: Vec<SharedGrid<S>>,
}

impl<S: Semiring> MmBuffers<S> {
    fn new(n: usize, m: usize, compiled: &MmPlan) -> Self {
        Self {
            c_grid: SharedGrid::new(n, m, S::zero()),
            temps: compiled
                .temps
                .iter()
                .map(|&(r, c)| SharedGrid::new(r, c, S::zero()))
                .collect(),
        }
    }

    fn grid_of(&self, buf: usize) -> &SharedGrid<S> {
        if buf == 0 {
            &self.c_grid
        } else {
            &self.temps[buf - 1]
        }
    }

    // SAFETY (both helpers): the rectangle lies inside the grid by
    // construction of the plan, and the plan's wave/FIFO ordering guarantees
    // that a mutable window is never aliased by a concurrent access.
    fn block_mut(&self, blk: &BlockRef) -> MatMut<'_, S> {
        let g = self.grid_of(blk.buf);
        unsafe {
            MatMut::from_raw_parts(
                g.cell_ptr(blk.rect.r0, blk.rect.c0),
                blk.rect.rows,
                blk.rect.cols,
                g.cols(),
            )
        }
    }

    fn block_ref(&self, blk: &BlockRef) -> MatRef<'_, S> {
        let g = self.grid_of(blk.buf);
        unsafe {
            MatRef::from_raw_parts(
                g.cell_ptr(blk.rect.r0, blk.rect.c0),
                blk.rect.rows,
                blk.rect.cols,
                g.cols(),
            )
        }
    }

    /// Interpret one job against the grids, reading inputs from `av`/`bv`.
    fn run_job(
        &self,
        proc: ProcId,
        job: &MmJob,
        av: &MatRef<'_, S>,
        bv: &MatRef<'_, S>,
        cfg: &MmConfig,
    ) {
        match job {
            MmJob::Leaf { c, a, b } => {
                let c_win = self.block_mut(c);
                let a_win = av.submatrix(a.r0, a.c0, a.rows, a.cols);
                let b_win = bv.submatrix(b.r0, b.c0, b.rows, b.cols);
                run_leaf(proc, c_win, a_win, b_win, cfg);
            }
            MmJob::Add { c, d } => {
                let mut c_win = self.block_mut(c);
                crate::kernel::mat_add_assign(&mut c_win, &self.block_ref(d));
            }
        }
    }

    /// Move the output grid's storage into the result (no copy).
    fn into_output(self) -> Matrix<S> {
        let (rows, cols) = (self.c_grid.rows(), self.c_grid.cols());
        Matrix::from_vec(rows, cols, self.c_grid.into_vec())
    }
}

fn check_mm_config(a_cols: usize, b_rows: usize, p: usize, cfg: &MmConfig) {
    assert_eq!(a_cols, b_rows, "inner dimensions must agree");
    if let Some(f) = &cfg.fractions {
        assert_eq!(f.len(), p, "fractions must cover every processor");
    }
    if let Some(t) = &cfg.throttle {
        assert_eq!(t.p(), p, "throttle must cover every processor");
    }
}

impl<S: Semiring> MmRun<S> {
    /// Compile `C = A ⊗ B` for `p` processors with an explicit configuration.
    pub fn prepare(a: Matrix<S>, b: Matrix<S>, p: usize, cfg: MmConfig) -> Self {
        check_mm_config(a.cols(), b.rows(), p, &cfg);
        let (n, m, k) = (a.rows(), b.cols(), a.cols());
        let compiled = Arc::new(plan_mm_1piece(n, m, k, p, &cfg));
        Self::from_plan(a, b, compiled, cfg)
    }

    /// Bind operands to an already-compiled (typically cached) plan.  The
    /// plan must have been produced by [`plan_mm_1piece`] for exactly these
    /// operand shapes and the same [`MmConfig::fractions`] (the cutoff and
    /// throttle are execution-time knobs and may differ).
    pub fn from_plan(a: Matrix<S>, b: Matrix<S>, compiled: Arc<MmPlan>, cfg: MmConfig) -> Self {
        let (n, m) = (a.rows(), b.cols());
        let buffers = MmBuffers::new(n, m, &compiled);
        Self {
            a,
            b,
            cfg,
            compiled,
            buffers,
        }
    }

    /// The compiled wave schedule.
    pub fn plan(&self) -> &Plan<MmJob> {
        &self.compiled.plan
    }

    /// Interpret one job against the shared grids.
    pub fn step(&self, proc: ProcId, job: &MmJob) {
        self.buffers
            .run_job(proc, job, &self.a.as_ref(), &self.b.as_ref(), &self.cfg);
    }

    /// Read the completed product off the output grid.
    pub fn finish(self) -> Matrix<S> {
        self.buffers.into_output()
    }

    /// Read one element of buffer `buf` (0 = the output `C`, `i+1` = temp
    /// buffer `i`).  Used by the distributed backend to pack exchange and
    /// gather messages out of a rank's private run state.
    pub fn buffer_get(&self, buf: usize, r: usize, c: usize) -> S {
        self.buffers.grid_of(buf).get(r, c)
    }

    /// Write one element of buffer `buf` (same numbering as
    /// [`MmRun::buffer_get`]).  Used by the distributed backend to unpack
    /// received ghost blocks into a rank's private run state.
    pub fn buffer_set(&self, buf: usize, r: usize, c: usize, v: S) {
        self.buffers.grid_of(buf).set(r, c, v);
    }
}

/// PACO MM-1-PIECE with an explicit configuration (fractions / throttle /
/// cutoff); the borrowing entry point shared with the heterogeneous variant
/// (no operand copies — the service layer's owning [`MmRun`] exists for
/// requests that bring their own matrices).
pub fn paco_mm_1piece_with<S: Semiring>(
    a: &Matrix<S>,
    b: &Matrix<S>,
    pool: &WorkerPool,
    cfg: &MmConfig,
) -> Matrix<S> {
    check_mm_config(a.cols(), b.rows(), pool.p(), cfg);
    let (n, m, k) = (a.rows(), b.cols(), a.cols());
    let compiled = plan_mm_1piece(n, m, k, pool.p(), cfg);
    let buffers = MmBuffers::new(n, m, &compiled);
    let (av, bv) = (a.as_ref(), b.as_ref());
    compiled
        .plan
        .execute(pool, |proc, job| buffers.run_job(proc, job, &av, &bv, cfg));
    buffers.into_output()
}

/// Leaf execution: the sequential cache-oblivious kernel, optionally repeated
/// into a scratch buffer to emulate a slower core (the heterogeneous machine
/// substitution documented in DESIGN.md).
fn run_leaf<S: Semiring>(
    proc: ProcId,
    mut c: MatMut<'_, S>,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    cfg: &MmConfig,
) {
    co_mm_with_cutoff(c.rb(), a, b, cfg.cutoff);
    if let Some(throttle) = &cfg.throttle {
        let repeats = throttle.slowdown(proc).saturating_sub(1);
        if repeats > 0 {
            // Redo the same multiplication into scratch space so the extra work
            // is real but does not perturb the result.
            let mut scratch: Matrix<S> = Matrix::zeros(c.rows(), c.cols());
            for _ in 0..repeats {
                co_mm_with_cutoff(scratch.as_mut(), a, b, cfg.cutoff);
            }
            std::hint::black_box(&scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::co_mm::mm_reference;
    use paco_core::semiring::WrappingRing;
    use paco_core::workload::{random_matrix_f64, random_matrix_wrapping};

    /// Default-config wrapper standing in for the removed shim; real callers
    /// go through `paco_service::Session` with the `MatMul` request.
    fn paco_mm_1piece<S: Semiring>(a: &Matrix<S>, b: &Matrix<S>, pool: &WorkerPool) -> Matrix<S> {
        paco_mm_1piece_with(a, b, pool, &MmConfig::default())
    }

    #[test]
    fn matches_reference_for_various_p_exact() {
        let a = random_matrix_wrapping(97, 61, 1);
        let b = random_matrix_wrapping(61, 83, 2);
        let expect = mm_reference(&a, &b);
        for p in [1usize, 2, 3, 5, 7, 8] {
            let pool = WorkerPool::new(p);
            let got = paco_mm_1piece(&a, &b, &pool);
            assert_eq!(expect, got, "p={p}");
        }
    }

    #[test]
    fn matches_reference_f64_tall_and_wide() {
        for &(n, m, k) in &[
            (200usize, 40usize, 40usize),
            (40, 200, 40),
            (40, 40, 260),
            (128, 128, 128),
        ] {
            let a = random_matrix_f64(n, k, 11);
            let b = random_matrix_f64(k, m, 12);
            let expect = mm_reference(&a, &b);
            let pool = WorkerPool::new(4);
            let got = paco_mm_1piece(&a, &b, &pool);
            assert!(expect.approx_eq(&got, 1e-9), "n={n} m={m} k={k}");
        }
    }

    #[test]
    fn deep_k_dimension_exercises_temp_and_reduce() {
        // k dominates, so the top cut is a Z cut with the temporary + merge path.
        let a = random_matrix_wrapping(16, 30, 3);
        let b = random_matrix_wrapping(30, 16, 4);
        let big_k = 600;
        let a_big = random_matrix_wrapping(16, big_k, 5);
        let b_big = random_matrix_wrapping(big_k, 16, 6);
        let pool = WorkerPool::new(6);
        assert_eq!(mm_reference(&a, &b), paco_mm_1piece(&a, &b, &pool));
        assert_eq!(
            mm_reference(&a_big, &b_big),
            paco_mm_1piece(&a_big, &b_big, &pool)
        );
        // The plan really allocated temporaries for the height cuts.
        let plan = plan_mm_1piece(16, 16, big_k, 6, &MmConfig::default());
        assert!(!plan.temps.is_empty());
        assert!(plan.plan.iter().any(|s| matches!(s.job, MmJob::Add { .. })));
    }

    #[test]
    fn finish_returns_the_output_grids_own_allocation() {
        // 96×80×64 on p = 2: one X cut, so the output grid is written in
        // place by both leaves and must come back without a copy.
        let a = random_matrix_f64(96, 64, 13);
        let b = random_matrix_f64(64, 80, 14);
        let expect = mm_reference(&a, &b);
        let run = MmRun::prepare(a, b, 2, MmConfig::default());
        let bound = run.buffers.c_grid.cell_ptr(0, 0).cast_const();
        let pool = WorkerPool::new(2);
        run.plan().execute(&pool, |proc, job| run.step(proc, job));
        let got = run.finish();
        assert_eq!(got.data().as_ptr(), bound, "finish must move, not copy");
        assert!(expect.approx_eq(&got, 1e-9));
    }

    #[test]
    fn small_matrices_with_many_processors() {
        let a = random_matrix_wrapping(3, 2, 7);
        let b = random_matrix_wrapping(2, 3, 8);
        let pool = WorkerPool::new(8);
        assert_eq!(mm_reference(&a, &b), paco_mm_1piece(&a, &b, &pool));
    }

    #[test]
    fn custom_fractions_still_produce_correct_results() {
        let a = random_matrix_wrapping(120, 64, 9);
        let b = random_matrix_wrapping(64, 96, 10);
        let pool = WorkerPool::new(4);
        let cfg = MmConfig {
            fractions: Some(vec![0.55, 0.15, 0.15, 0.15]),
            throttle: None,
            cutoff: 32,
        };
        let got = paco_mm_1piece_with(&a, &b, &pool, &cfg);
        assert_eq!(mm_reference(&a, &b), got);
    }

    #[test]
    fn plan_assigns_every_processor_one_piece() {
        // 1-PIECE: with no height cut every processor owns exactly one leaf.
        let plan = plan_mm_1piece(256, 256, 64, 8, &MmConfig::default());
        let leaves = plan
            .plan
            .iter()
            .filter(|s| matches!(s.job, MmJob::Leaf { .. }))
            .count();
        assert_eq!(leaves, 8);
        assert!(plan.plan.steps_per_proc().iter().all(|&c| c >= 1));
    }

    #[test]
    fn plan_balances_volume_for_arbitrary_p() {
        for &p in &[2usize, 3, 5, 7, 11, 24, 72, 97] {
            let plan = plan_paco_mm(1024, 1024, 1024, p);
            let report = plan.report();
            assert!(
                (report.total_work - 1024f64.powi(3)).abs() / 1024f64.powi(3) < 1e-9,
                "p={p}: volume lost"
            );
            assert!(
                report.work_imbalance < 1.3,
                "p={p}: imbalance {}",
                report.work_imbalance
            );
            assert!(report.geometric_decrease, "p={p}");
        }
    }

    #[test]
    fn plan_surface_area_tracks_the_theorem9_shape() {
        // Case p <= n/m (tall cuboid): extra surface ~ p·m·k.
        let n = 4096;
        let m = 64;
        let k = 64;
        let p = 16; // p < n/m = 64
        let plan = plan_paco_mm_with_base(n, m, k, p, 16);
        let report = plan.report();
        let initial_surface = (n * m + n * k + m * k) as f64;
        let extra = report.total_surface - initial_surface;
        let predicted = (p * m * k) as f64;
        assert!(
            extra < 4.0 * predicted,
            "extra surface {extra} should be O(p·m·k) = {predicted}"
        );
    }

    #[test]
    fn wrapping_ring_zero_sized_inputs() {
        let a: Matrix<WrappingRing> = Matrix::zeros(0, 0);
        let b: Matrix<WrappingRing> = Matrix::zeros(0, 0);
        let pool = WorkerPool::new(2);
        let c = paco_mm_1piece(&a, &b, &pool);
        assert_eq!(c.rows(), 0);
    }
}
