//! The typed request structs — one per workload — and their two-phase
//! [`Solve`] wiring onto the workload crates' prepared-run machinery.
//!
//! Every impl follows the same split: [`Solve::shape_key`] lists the
//! request-derived dimensions the plan depends on, [`Solve::skeleton`]
//! compiles the workload's shape-only plan (`plan_paco_lcs`, `plan_fw`,
//! `plan_mm_1piece`, …) and wraps it in a [`Skeleton`], and [`Solve::bind`]
//! recovers that plan from the skeleton's payload and attaches the
//! request's buffers through the workload's `from_plan` constructor.
//! Tuning knobs are read in both phases but never keyed — the skeleton
//! cache covers them with [`Tuning::epoch`].

use crate::backend::compile_dist;
use crate::solve::{Compiled, ShapeKey, Skeleton, Solve, WorkloadRun};
use paco_core::arena::ScratchArena;
use paco_core::matrix::Matrix;
use paco_core::proc_list::ProcId;
use paco_core::semiring::{IdempotentSemiring, MinPlus, Ring, Semiring};
use paco_core::tuning::Tuning;
use paco_dist::{FwDist, LcsDist, LowerCache, MmDist, StrassenDist};
use paco_dp::gap::{plan_gap, GapCost, GapRun};
use paco_dp::lcs::{plan_paco_lcs, LcsRun};
use paco_dp::one_d::{plan_one_d, OneDJob, OneDRun, Weight};
use paco_graph::{plan_fw, FwRun, LeafCall};
use paco_matmul::{
    plan_mm_1piece, plan_strassen, MmConfig, MmJob, MmRun, StrassenOptions, StrassenRun,
};
use paco_runtime::hetero::ThrottleSpec;
use paco_runtime::schedule::Plan;
use paco_sort::{plan_sort, SortJob, SortKey, SortRun};
use std::sync::Arc;

/// Longest common subsequence of two sequences (Sect. III-B); resolves to
/// the LCS length.
#[derive(Debug, Clone)]
pub struct Lcs {
    /// First sequence.
    pub a: Vec<u32>,
    /// Second sequence.
    pub b: Vec<u32>,
}

impl WorkloadRun for LcsRun {
    type Job = usize;
    type Out = u32;
    fn typed_plan(&self) -> &Plan<usize> {
        self.plan()
    }
    fn step(&self, proc: ProcId, job: &usize) {
        LcsRun::step(self, proc, job)
    }
    fn finish(self) -> u32 {
        LcsRun::finish(self)
    }
}

impl Solve for Lcs {
    type Output = u32;
    fn shape_key(&self) -> ShapeKey {
        ShapeKey::new("lcs", [self.a.len() as u64, self.b.len() as u64])
    }
    fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton {
        let compiled = Arc::new(plan_paco_lcs(
            self.a.len(),
            self.b.len(),
            p.max(1),
            tuning.lcs_base,
        ));
        Skeleton::new(Arc::clone(&compiled), &compiled.plan)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        _p: usize,
        arena: &Arc<ScratchArena>,
    ) -> Compiled<u32> {
        let compiled = skeleton.payload().expect("skeleton compiled by Lcs");
        Compiled::bound(
            skeleton,
            LcsRun::from_plan_in(self.a, self.b, compiled, tuning.lcs_base, Arc::clone(arena)),
        )
    }
    fn bind_dist(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        ranks: usize,
        _arena: &Arc<ScratchArena>,
        lower: &LowerCache,
    ) -> Result<Compiled<u32>, Self> {
        if self.a.is_empty() || self.b.is_empty() {
            return Err(self);
        }
        let compiled = skeleton.payload().expect("skeleton compiled by Lcs");
        let w = LcsDist::new(self.a, self.b, Arc::clone(&compiled), tuning.lcs_base);
        Ok(compile_dist(w, compiled, |p| &p.plan, ranks, lower))
    }
}

/// Path closure of a square matrix over a closed semiring with idempotent
/// `⊕` (the Floyd–Warshall A/B/C/D recursion, Sect. III-E applied to graphs);
/// resolves to the closed matrix.
#[derive(Debug, Clone)]
pub struct Closure<S: IdempotentSemiring> {
    /// The adjacency matrix to close; it is left untouched and the closed
    /// matrix is returned as the output.
    pub adj: Matrix<S>,
}

/// All-pairs shortest paths: [`Closure`] over the tropical `(min, +)`
/// semiring.  Entry `(i, j)` of the result is the weight of the shortest
/// directed path from `i` to `j`.
pub type Apsp = Closure<MinPlus>;

impl<S: IdempotentSemiring> WorkloadRun for FwRun<S> {
    type Job = LeafCall;
    type Out = Matrix<S>;
    fn typed_plan(&self) -> &Plan<LeafCall> {
        self.plan()
    }
    fn step(&self, proc: ProcId, job: &LeafCall) {
        FwRun::step(self, proc, job)
    }
    fn finish(self) -> Matrix<S> {
        FwRun::finish(self)
    }
}

/// The shape key of an `n`-vertex closure, shared by [`Closure`],
/// [`IncClose`](crate::IncClose) and a re-closing
/// [`IncUpdate`](crate::IncUpdate).
pub(crate) fn closure_key(n: usize) -> ShapeKey {
    ShapeKey::new("closure", [n as u64])
}

/// FW's parallel skeleton for `n` vertices; its payload is the
/// [`FwPlan`](paco_graph::FwPlan).
pub(crate) fn fw_skeleton(n: usize, tuning: &Tuning, p: usize) -> Skeleton {
    let compiled = Arc::new(plan_fw(n, p.max(1), tuning.fw_base));
    Skeleton::new(Arc::clone(&compiled), &compiled.plan)
}

impl<S: IdempotentSemiring> Solve for Closure<S> {
    type Output = Matrix<S>;
    fn shape_key(&self) -> ShapeKey {
        // The FW schedule is semiring-independent, so closures over
        // different element types deliberately share cache entries.
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
    ) -> Compiled<Matrix<S>> {
        let compiled = skeleton.payload().expect("skeleton compiled by Closure");
        Compiled::bound(
            skeleton,
            FwRun::from_owned(self.adj, compiled, tuning.fw_base),
        )
    }
    fn bind_dist(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        ranks: usize,
        _arena: &Arc<ScratchArena>,
        lower: &LowerCache,
    ) -> Result<Compiled<Matrix<S>>, Self> {
        if self.adj.rows() == 0 {
            return Err(self);
        }
        let compiled = skeleton.payload().expect("skeleton compiled by Closure");
        let w = FwDist::new(self.adj, Arc::clone(&compiled), tuning.fw_base);
        Ok(compile_dist(w, compiled, |p| &p.plan, ranks, lower))
    }
}

/// Rectangular semiring matrix multiplication `C = A ⊗ B` with the
/// MM-1-PIECE partitioning (Corollary 10); resolves to the product matrix.
#[derive(Debug, Clone)]
pub struct MatMul<S: Semiring> {
    /// Left operand (`n × k`).
    pub a: Matrix<S>,
    /// Right operand (`k × m`).
    pub b: Matrix<S>,
}

impl<S: Semiring> WorkloadRun for MmRun<S> {
    type Job = MmJob;
    type Out = Matrix<S>;
    fn typed_plan(&self) -> &Plan<MmJob> {
        self.plan()
    }
    fn step(&self, proc: ProcId, job: &MmJob) {
        MmRun::step(self, proc, job)
    }
    fn finish(self) -> Matrix<S> {
        MmRun::finish(self)
    }
}

impl<S: Semiring> Solve for MatMul<S> {
    type Output = Matrix<S>;
    fn shape_key(&self) -> ShapeKey {
        ShapeKey::new(
            "mm",
            [
                self.a.rows() as u64,
                self.a.cols() as u64,
                self.b.cols() as u64,
            ],
        )
    }
    fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton {
        assert_eq!(self.a.cols(), self.b.rows(), "inner dimensions must agree");
        let cfg = MmConfig {
            cutoff: tuning.mm_cutoff,
            ..MmConfig::default()
        };
        let (n, m, k) = (self.a.rows(), self.b.cols(), self.a.cols());
        let compiled = Arc::new(plan_mm_1piece(n, m, k, p, &cfg));
        Skeleton::new(Arc::clone(&compiled), &compiled.plan)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        _p: usize,
        _arena: &Arc<ScratchArena>,
    ) -> Compiled<Matrix<S>> {
        let compiled = skeleton.payload().expect("skeleton compiled by MatMul");
        let cfg = MmConfig {
            cutoff: tuning.mm_cutoff,
            ..MmConfig::default()
        };
        Compiled::bound(skeleton, MmRun::from_plan(self.a, self.b, compiled, cfg))
    }
    fn bind_dist(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        ranks: usize,
        _arena: &Arc<ScratchArena>,
        lower: &LowerCache,
    ) -> Result<Compiled<Matrix<S>>, Self> {
        if self.a.rows() == 0 || self.a.cols() == 0 || self.b.cols() == 0 {
            return Err(self);
        }
        let compiled = skeleton.payload().expect("skeleton compiled by MatMul");
        let cfg = MmConfig {
            cutoff: tuning.mm_cutoff,
            ..MmConfig::default()
        };
        let w = MmDist::new(self.a, self.b, Arc::clone(&compiled), cfg);
        Ok(compile_dist(w, compiled, |p| &p.plan, ranks, lower))
    }
}

/// Matrix multiplication on an (emulated) heterogeneous machine
/// (Corollary 12 / Sect. IV-A): work is split in proportion to the
/// throttle's throughput ratios when `aware`, evenly when not — both run on
/// the same emulated slow/fast cores, which is the Fig. 9b comparison.
///
/// The throttle must cover exactly the session's `p` processors.
#[derive(Debug, Clone)]
pub struct HeteroMatMul<S: Semiring> {
    /// Left operand (`n × k`).
    pub a: Matrix<S>,
    /// Right operand (`k × m`).
    pub b: Matrix<S>,
    /// The emulated machine: per-processor slowdown factors.
    pub throttle: ThrottleSpec,
    /// `true` = throughput-aware split ([`paco_matmul::hetero_mm`]'s
    /// behaviour), `false` = heterogeneity-unaware even split.
    pub aware: bool,
}

impl<S: Semiring> HeteroMatMul<S> {
    /// The cuboid-splitting fractions the schedule depends on: the
    /// throttle's throughput shares when `aware`, `None` (even split)
    /// otherwise.  The throttle's *slowdowns* are an execution-time knob
    /// and never shape the plan.
    fn plan_fractions(&self) -> Option<Vec<f64>> {
        self.aware.then(|| self.throttle.spec().fractions())
    }
}

impl<S: Semiring> Solve for HeteroMatMul<S> {
    type Output = Matrix<S>;
    fn shape_key(&self) -> ShapeKey {
        let mut dims = vec![
            self.a.rows() as u64,
            self.a.cols() as u64,
            self.b.cols() as u64,
        ];
        // The split fractions shape the plan, so they are part of the
        // request's shape — as exact bit patterns, because `f64` is not
        // `Eq`/`Hash` and two requests only share a skeleton when their
        // splits are *identical*.
        if let Some(fractions) = self.plan_fractions() {
            dims.extend(fractions.iter().map(|f| f.to_bits()));
        }
        ShapeKey::new("hetero-mm", dims)
    }
    fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton {
        assert_eq!(self.a.cols(), self.b.rows(), "inner dimensions must agree");
        let cfg = MmConfig {
            fractions: self.plan_fractions(),
            throttle: None,
            cutoff: tuning.mm_cutoff,
        };
        let (n, m, k) = (self.a.rows(), self.b.cols(), self.a.cols());
        let compiled = Arc::new(plan_mm_1piece(n, m, k, p, &cfg));
        Skeleton::new(Arc::clone(&compiled), &compiled.plan)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        _p: usize,
        _arena: &Arc<ScratchArena>,
    ) -> Compiled<Matrix<S>> {
        let compiled = skeleton
            .payload()
            .expect("skeleton compiled by HeteroMatMul");
        let cfg = MmConfig {
            fractions: self.plan_fractions(),
            throttle: Some(self.throttle),
            cutoff: tuning.mm_cutoff,
        };
        Compiled::bound(skeleton, MmRun::from_plan(self.a, self.b, compiled, cfg))
    }
}

/// Square ring matrix multiplication with Strassen's algorithm placed by the
/// pruned BFS of the 7-ary tree (Theorem 13; set
/// [`Tuning::strassen_gamma`] for CONST-PIECES); resolves to the product.
#[derive(Debug, Clone)]
pub struct Strassen<R: Ring> {
    /// Left operand (`n × n`).
    pub a: Matrix<R>,
    /// Right operand (`n × n`).
    pub b: Matrix<R>,
}

impl<R: Ring> WorkloadRun for StrassenRun<R> {
    type Job = usize;
    type Out = Matrix<R>;
    fn typed_plan(&self) -> &Plan<usize> {
        self.plan()
    }
    fn step(&self, proc: ProcId, job: &usize) {
        StrassenRun::step(self, proc, job)
    }
    fn finish(self) -> Matrix<R> {
        StrassenRun::finish(self)
    }
}

fn strassen_options(tuning: &Tuning) -> StrassenOptions {
    StrassenOptions {
        cutoff: tuning.strassen_cutoff,
        parallel_base: tuning.strassen_parallel_base,
        gamma: tuning.strassen_gamma,
    }
}

impl<R: Ring> Solve for Strassen<R> {
    type Output = Matrix<R>;
    fn shape_key(&self) -> ShapeKey {
        ShapeKey::new("strassen", [self.a.rows() as u64])
    }
    fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton {
        let compiled = Arc::new(plan_strassen(self.a.rows(), p, strassen_options(tuning)));
        Skeleton::new(Arc::clone(&compiled), &compiled.plan)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        _p: usize,
        arena: &Arc<ScratchArena>,
    ) -> Compiled<Matrix<R>> {
        let compiled = skeleton.payload().expect("skeleton compiled by Strassen");
        Compiled::bound(
            skeleton,
            StrassenRun::from_plan_in(
                self.a,
                self.b,
                compiled,
                tuning.strassen_cutoff,
                Arc::clone(arena),
            ),
        )
    }
    fn bind_dist(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        ranks: usize,
        arena: &Arc<ScratchArena>,
        lower: &LowerCache,
    ) -> Result<Compiled<Matrix<R>>, Self> {
        if self.a.rows() == 0 {
            return Err(self);
        }
        let compiled: Arc<paco_matmul::StrassenPlan> =
            skeleton.payload().expect("skeleton compiled by Strassen");
        let run = StrassenRun::from_plan_in(
            self.a,
            self.b,
            Arc::clone(&compiled),
            tuning.strassen_cutoff,
            Arc::clone(arena),
        );
        let w = StrassenDist::new(run, tuning.strassen_cutoff);
        Ok(compile_dist(w, compiled, |p| &p.plan, ranks, lower))
    }
}

/// Comparison sort of a key vector with PACO SORT (Theorem 16); resolves to
/// the sorted vector.
#[derive(Debug, Clone)]
pub struct Sort<T: SortKey> {
    /// The keys to sort.
    pub keys: Vec<T>,
}

impl<T: SortKey + 'static> WorkloadRun for SortRun<T> {
    type Job = SortJob;
    type Out = Vec<T>;
    fn typed_plan(&self) -> &Plan<SortJob> {
        self.plan()
    }
    fn step(&self, proc: ProcId, job: &SortJob) {
        SortRun::step(self, proc, job)
    }
    fn finish(self) -> Vec<T> {
        SortRun::finish(self)
    }
}

impl<T: SortKey + 'static> Solve for Sort<T> {
    type Output = Vec<T>;
    fn shape_key(&self) -> ShapeKey {
        // Like the FW closure, the sort schedule is element-type
        // independent (pivot *selection* is data-dependent but happens at
        // bind time), so sorts of different key types share entries.
        ShapeKey::new("sort", [self.keys.len() as u64])
    }
    fn skeleton(&self, _tuning: &Tuning, p: usize) -> Skeleton {
        let plan = Arc::new(plan_sort(self.keys.len(), p));
        Skeleton::new(Arc::clone(&plan), &plan)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        p: usize,
        arena: &Arc<ScratchArena>,
    ) -> Compiled<Vec<T>> {
        let plan = skeleton.payload().expect("skeleton compiled by Sort");
        let k = tuning.sort_k(self.keys.len());
        Compiled::bound(
            skeleton,
            SortRun::from_plan_in(self.keys, plan, p, k, Arc::clone(arena)),
        )
    }
}

/// The 1D / least-weight-subsequence problem (Sect. III-C): compute
/// `D[j] = min_i D[i] + w(i, j)` for `j = 1..=n` from `D[0] = d0`; resolves
/// to the full `D[0..=n]` array.
#[derive(Debug, Clone)]
pub struct OneD<W: Weight> {
    /// Number of breakpoints (the table has `n + 1` entries).
    pub n: usize,
    /// The O(1), memory-free weight function.
    pub weight: W,
    /// The initial value `D[0]`.
    pub d0: f64,
}

impl<W: Weight + Send + 'static> WorkloadRun for OneDRun<W> {
    type Job = OneDJob;
    type Out = Vec<f64>;
    fn typed_plan(&self) -> &Plan<OneDJob> {
        self.plan()
    }
    fn step(&self, proc: ProcId, job: &OneDJob) {
        OneDRun::step(self, proc, job)
    }
    fn finish(self) -> Vec<f64> {
        OneDRun::finish(self)
    }
}

impl<W: Weight + Send + 'static> Solve for OneD<W> {
    type Output = Vec<f64>;
    fn shape_key(&self) -> ShapeKey {
        ShapeKey::new("one-d", [self.n as u64])
    }
    fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton {
        let compiled = Arc::new(plan_one_d(self.n, p, tuning.one_d_base.max(2)));
        Skeleton::new(Arc::clone(&compiled), &compiled.plan)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        _p: usize,
        arena: &Arc<ScratchArena>,
    ) -> Compiled<Vec<f64>> {
        let compiled = skeleton.payload().expect("skeleton compiled by OneD");
        Compiled::bound(
            skeleton,
            OneDRun::from_plan_in(
                self.n,
                self.weight,
                self.d0,
                compiled,
                tuning.one_d_base,
                Arc::clone(arena),
            ),
        )
    }
}

/// The GAP problem (Sect. III-D): edit distance with general gap penalties
/// over an `(n+1) × (n+1)` table; resolves to the table in row-major order.
#[derive(Debug, Clone)]
pub struct Gap<C: GapCost> {
    /// The table is `(n + 1) × (n + 1)`.
    pub n: usize,
    /// The O(1), memory-free cost functions.
    pub costs: C,
}

impl<C: GapCost + Send + 'static> WorkloadRun for GapRun<C> {
    type Job = (usize, usize);
    type Out = Vec<f64>;
    fn typed_plan(&self) -> &Plan<(usize, usize)> {
        self.plan()
    }
    fn step(&self, proc: ProcId, job: &(usize, usize)) {
        GapRun::step(self, proc, job)
    }
    fn finish(self) -> Vec<f64> {
        GapRun::finish(self)
    }
}

impl<C: GapCost + Send + 'static> Solve for Gap<C> {
    type Output = Vec<f64>;
    fn shape_key(&self) -> ShapeKey {
        ShapeKey::new("gap", [self.n as u64])
    }
    fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton {
        let blocks = tuning.gap_grid(p).clamp(1, self.n + 1);
        let plan = Arc::new(plan_gap(self.n, p, blocks));
        Skeleton::new(Arc::clone(&plan), &plan)
    }
    fn bind(
        self,
        skeleton: &Skeleton,
        tuning: &Tuning,
        p: usize,
        arena: &Arc<ScratchArena>,
    ) -> Compiled<Vec<f64>> {
        let plan = skeleton.payload().expect("skeleton compiled by Gap");
        let blocks = tuning.gap_grid(p).clamp(1, self.n + 1);
        Compiled::bound(
            skeleton,
            GapRun::from_plan_in(self.n, self.costs, plan, blocks, arena),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use paco_core::workload::{
        random_digraph, random_keys, random_matrix_wrapping, related_sequences, GapCosts,
        ParagraphWeight,
    };
    use paco_dp::gap::gap_reference;
    use paco_dp::lcs::lcs_reference;
    use paco_dp::one_d::one_d_reference;
    use paco_graph::fw_reference;
    use paco_matmul::mm_reference;

    #[test]
    fn every_request_type_matches_its_reference() {
        let session = Session::new(3);

        let (a, b) = related_sequences(150, 4, 0.25, 11);
        assert_eq!(
            session.run(Lcs {
                a: a.clone(),
                b: b.clone()
            }),
            lcs_reference(&a, &b)
        );

        let g = random_digraph(48, 0.2, 40, 5);
        assert_eq!(session.run(Apsp { adj: g.clone() }), fw_reference(&g));

        let ma = random_matrix_wrapping(40, 24, 1);
        let mb = random_matrix_wrapping(24, 32, 2);
        assert_eq!(
            session.run(MatMul {
                a: ma.clone(),
                b: mb.clone()
            }),
            mm_reference(&ma, &mb)
        );

        let sa = random_matrix_wrapping(96, 96, 3);
        let sb = random_matrix_wrapping(96, 96, 4);
        assert_eq!(
            session.run(Strassen {
                a: sa.clone(),
                b: sb.clone()
            }),
            mm_reference(&sa, &sb)
        );

        let keys = random_keys(500, 9);
        let mut expect = keys.clone();
        expect.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(session.run(Sort { keys }), expect);

        let w = ParagraphWeight { ideal: 9.0 };
        let got = session.run(OneD {
            n: 130,
            weight: w,
            d0: 0.0,
        });
        let expect = one_d_reference(130, &w, 0.0);
        assert!(got.iter().zip(&expect).all(|(x, y)| (x - y).abs() < 1e-9));

        let costs = GapCosts::default();
        let got = session.run(Gap { n: 40, costs });
        let expect = gap_reference(40, &costs);
        assert!(got.iter().zip(&expect).all(|(x, y)| (x - y).abs() < 1e-9));
    }

    #[test]
    fn degenerate_requests_resolve() {
        let session = Session::new(2);
        assert_eq!(
            session.run(Lcs {
                a: vec![],
                b: vec![1, 2]
            }),
            0
        );
        assert_eq!(session.run(Sort::<f64> { keys: vec![] }), Vec::<f64>::new());
        let empty: Matrix<MinPlus> = Matrix::from_fn(0, 0, |_, _| unreachable!());
        assert_eq!(session.run(Apsp { adj: empty }).rows(), 0);
    }

    #[test]
    fn shape_keys_separate_workloads_and_dimensions() {
        let lcs = Lcs {
            a: vec![1, 2],
            b: vec![3],
        };
        assert_eq!(lcs.shape_key(), lcs.clone().shape_key());
        assert_ne!(
            lcs.shape_key(),
            Lcs {
                a: vec![1],
                b: vec![3]
            }
            .shape_key()
        );
        // Same dims, different workload kind: distinct keys.
        assert_ne!(
            Sort::<f64> { keys: vec![1.0] }.shape_key(),
            OneD {
                n: 1,
                weight: ParagraphWeight { ideal: 1.0 },
                d0: 0.0
            }
            .shape_key()
        );
        // Hetero MM: the split fractions are part of the shape.
        let ma = random_matrix_wrapping(8, 8, 1);
        let throttle = ThrottleSpec::homogeneous(2);
        let aware = HeteroMatMul {
            a: ma.clone(),
            b: ma.clone(),
            throttle: throttle.clone(),
            aware: true,
        };
        let unaware = HeteroMatMul {
            a: ma.clone(),
            b: ma,
            throttle,
            aware: false,
        };
        assert_ne!(aware.shape_key(), unaware.shape_key());
    }
}
