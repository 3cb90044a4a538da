//! Floyd–Warshall closure on the shared-nothing executor.
//!
//! Each rank owns a private [`FwRun`] over a full-shape local table whose
//! owned cells hold the adjacency matrix and whose ghost cells start at
//! `⊕`-identity; every wave's exchange overwrites exactly the ghost cells
//! the rank's A/B/C/D leaves are about to read with the owners'
//! authoritative values, so the leaf kernels never see a stale word.

use super::owned_cells;
use crate::exec::DistWorkload;
use crate::Region;
use paco_core::machine::Placement;
use paco_core::matrix::Matrix;
use paco_core::semiring::IdempotentSemiring;
use paco_graph::{FwPlan, FwRun, LeafCall};
use std::sync::Arc;

/// The FW closure request bound for distributed execution: the adjacency
/// matrix plus the compiled (cached) shared-memory plan.
pub struct FwDist<S: IdempotentSemiring> {
    adj: Matrix<S>,
    compiled: Arc<FwPlan>,
    base: usize,
}

impl<S: IdempotentSemiring> FwDist<S> {
    /// Bind `adj` to an already-compiled plan (the same payload the local
    /// backend binds through `FwRun::from_plan`).
    pub fn new(adj: Matrix<S>, compiled: Arc<FwPlan>, base: usize) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "closure needs a square matrix");
        Self {
            adj,
            compiled,
            base,
        }
    }

    fn n(&self) -> usize {
        self.adj.rows()
    }
}

impl<S: IdempotentSemiring> DistWorkload for FwDist<S> {
    type Job = LeafCall;
    type Elem = S;
    type RankInput = Vec<S>;
    type RankState = FwRun<S>;
    type Gather = Vec<S>;
    type Output = Matrix<S>;

    fn reads(&self, job: &LeafCall) -> Vec<(usize, Region)> {
        job.read_rects()
            .into_iter()
            .map(|(rows, cols)| (0, Region::new(rows, cols)))
            .collect()
    }

    fn writes(&self, job: &LeafCall) -> Vec<(usize, Region)> {
        let (rows, cols) = job.write_rect();
        vec![(0, Region::new(rows, cols))]
    }

    fn scatter(&self, placement: &Placement, rank: usize, _jobs: &[LeafCall]) -> (Vec<S>, u64) {
        let n = self.n();
        let cells: Vec<S> = owned_cells(placement, rank, n, n)
            .map(|(i, j)| self.adj.get(i, j))
            .collect();
        let words = cells.len() as u64;
        (cells, words)
    }

    fn init_state(&self, placement: &Placement, rank: usize, input: Vec<S>) -> FwRun<S> {
        let n = self.n();
        let mut local = Matrix::filled(n, n, S::zero());
        let mut cells = input.into_iter();
        for (i, j) in owned_cells(placement, rank, n, n) {
            local.set(i, j, cells.next().expect("scatter covers every owned cell"));
        }
        FwRun::from_owned(local, Arc::clone(&self.compiled), self.base)
    }

    fn run_step(&self, rank: usize, state: &mut FwRun<S>, job: &LeafCall) {
        state.step(rank, job);
    }

    fn pack(&self, state: &FwRun<S>, _buf: usize, region: Region, out: &mut Vec<S>) {
        let grid = state.table().grid();
        for i in region.r0..region.r1 {
            for j in region.c0..region.c1 {
                out.push(grid.get(i, j));
            }
        }
    }

    fn unpack(&self, state: &mut FwRun<S>, _buf: usize, region: Region, data: &[S]) {
        let grid = state.table().grid();
        let mut data = data.iter();
        for i in region.r0..region.r1 {
            for j in region.c0..region.c1 {
                grid.set(i, j, *data.next().expect("part carries its full region"));
            }
        }
    }

    fn gather(&self, placement: &Placement, rank: usize, state: FwRun<S>) -> (Vec<S>, u64) {
        let n = self.n();
        let grid_owner = state.table();
        let cells: Vec<S> = owned_cells(placement, rank, n, n)
            .map(|(i, j)| grid_owner.grid().get(i, j))
            .collect();
        let words = cells.len() as u64;
        (cells, words)
    }

    fn finish(&self, placement: &Placement, gathers: Vec<Vec<S>>) -> Matrix<S> {
        let n = self.n();
        let mut fragments: Vec<_> = gathers.into_iter().map(Vec::into_iter).collect();
        Matrix::from_fn(n, n, |i, j| {
            fragments[placement.owner(i, j)]
                .next()
                .expect("gather covers every owned cell")
        })
    }
}
