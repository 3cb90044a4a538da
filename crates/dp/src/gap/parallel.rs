//! Parallel GAP variants: processor-oblivious (rayon) and PACO (Theorem 7).
//!
//! Both variants run the same block-wavefront kernel as
//! [`super::gap_blocked`]; they differ only in how the blocks of one
//! anti-diagonal are mapped to processors — which is exactly the comparison the
//! paper makes.

use super::{block_bounds, gap_block, GapCost};
use paco_core::arena::ScratchArena;
use paco_core::proc_list::ProcList;
use paco_core::shared::SharedGrid;
use paco_runtime::schedule::{Plan, Step};
use rayon::prelude::*;
use std::sync::Arc;

/// Processor-oblivious parallel GAP: the blocks of each anti-diagonal are
/// handed to rayon's work-stealing scheduler with no processor assignment.
/// `blocks` controls the tile grid (the PO competitor must pick this blindly;
/// the paper's PO GAP uses a recursive decomposition with a tuned base case).
pub fn gap_po<C: GapCost>(n: usize, costs: &C, blocks: usize) -> Vec<f64> {
    let blocks = blocks.clamp(1, n + 1);
    let d = SharedGrid::new(n + 1, n + 1, f64::INFINITY);
    d.set(0, 0, 0.0);
    for diag in 0..(2 * blocks - 1) {
        let tiles: Vec<(usize, usize)> = (0..blocks)
            .filter_map(|bi| {
                let bj = diag.checked_sub(bi)?;
                (bj < blocks).then_some((bi, bj))
            })
            .collect();
        tiles.par_iter().for_each(|&(bi, bj)| {
            let (r0, r1) = block_bounds(n + 1, blocks, bi);
            let (c0, c1) = block_bounds(n + 1, blocks, bj);
            gap_block(&d, r0, r1, c0, c1, costs);
        });
    }
    d.snapshot()
}

/// Compile the GAP block wavefront for an `(n+1) × (n+1)` table on `p`
/// processors into a plan: one wave per tile anti-diagonal, tiles assigned
/// round-robin within their diagonal (the Theorem 7 placement).  Jobs are
/// `(block_row, block_col)` tile coordinates.
pub fn plan_gap(n: usize, p: usize, blocks: usize) -> Plan<(usize, usize)> {
    let blocks = blocks.clamp(1, n + 1);
    let procs = ProcList::all(p);
    let mut waves = Vec::with_capacity(2 * blocks - 1);
    for diag in 0..(2 * blocks - 1) {
        let mut wave = Vec::new();
        for bi in 0..blocks {
            let Some(bj) = diag.checked_sub(bi) else {
                continue;
            };
            if bj >= blocks {
                continue;
            }
            wave.push(Step {
                proc: procs.round_robin(wave.len()),
                job: (bi, bj),
            });
        }
        waves.push(wave);
    }
    Plan::from_waves(p, waves)
}

/// A prepared PACO GAP instance: the block-wavefront plan plus the shared
/// table its tile jobs fill.  This is the unit the service layer's `Session`
/// schedules — alone, in batches, or mixed with other workloads.  The plan
/// depends only on `(n, p, blocks)`, so [`GapRun::from_plan`] can bind fresh
/// costs to a shared, possibly cached schedule.
pub struct GapRun<C> {
    costs: C,
    d: SharedGrid<f64>,
    plan: Arc<Plan<(usize, usize)>>,
    n: usize,
    blocks: usize,
}

impl<C: GapCost> GapRun<C> {
    /// As [`GapRun::from_plan`], but checking the table storage out of
    /// `arena` instead of allocating fresh.  The filled table *is* the
    /// output, so nothing returns to the pool at finish — the checkout still
    /// reuses buffers other runs (1D temps, earlier tables) put back.
    pub fn from_plan_in(
        n: usize,
        costs: C,
        plan: Arc<Plan<(usize, usize)>>,
        blocks: usize,
        arena: &ScratchArena,
    ) -> Self {
        let blocks = blocks.clamp(1, n + 1);
        let d = SharedGrid::from_vec(
            n + 1,
            n + 1,
            arena.take_vec((n + 1) * (n + 1), f64::INFINITY),
        );
        d.set(0, 0, 0.0);
        Self {
            costs,
            d,
            plan,
            n,
            blocks,
        }
    }
}

impl<C: GapCost> GapRun<C> {
    /// Compile an instance for `p` processors with an explicit tile-grid side
    /// (clamped to `[1, n + 1]`).
    pub fn prepare(n: usize, costs: C, p: usize, blocks: usize) -> Self {
        let blocks = blocks.clamp(1, n + 1);
        Self::from_plan(n, costs, Arc::new(plan_gap(n, p, blocks)), blocks)
    }

    /// Bind an instance to an already-compiled (typically cached) plan.  The
    /// plan must have been produced by [`plan_gap`] for exactly this `n` and
    /// the same (clamped) `blocks`.
    pub fn from_plan(n: usize, costs: C, plan: Arc<Plan<(usize, usize)>>, blocks: usize) -> Self {
        let blocks = blocks.clamp(1, n + 1);
        let d = SharedGrid::new(n + 1, n + 1, f64::INFINITY);
        d.set(0, 0, 0.0);
        Self {
            costs,
            d,
            plan,
            n,
            blocks,
        }
    }

    /// The compiled wave schedule.
    pub fn plan(&self) -> &Plan<(usize, usize)> {
        &self.plan
    }

    /// Fill tile `(bi, bj)` of the table.
    pub fn step(&self, _proc: paco_core::proc_list::ProcId, &(bi, bj): &(usize, usize)) {
        let (r0, r1) = block_bounds(self.n + 1, self.blocks, bi);
        let (c0, c1) = block_bounds(self.n + 1, self.blocks, bj);
        gap_block(&self.d, r0, r1, c0, c1, &self.costs);
    }

    /// Read the completed table in row-major order (the table's own
    /// storage, no copy).
    pub fn finish(self) -> Vec<f64> {
        self.d.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::gap_reference;
    use paco_core::workload::GapCosts;
    use paco_runtime::WorkerPool;

    /// Prepare-and-run helpers standing in for the removed pool-threading
    /// wrappers; real callers go through `paco_service::Session`.
    fn gap_paco<C: GapCost + Clone>(n: usize, costs: &C, pool: &WorkerPool) -> Vec<f64> {
        let blocks = paco_core::tuning::Tuning::default().gap_grid(pool.p());
        gap_paco_with_blocks(n, costs, pool, blocks)
    }

    fn gap_paco_with_blocks<C: GapCost + Clone>(
        n: usize,
        costs: &C,
        pool: &WorkerPool,
        blocks: usize,
    ) -> Vec<f64> {
        let run = GapRun::prepare(n, costs.clone(), pool.p(), blocks);
        run.plan().execute(pool, |proc, job| run.step(proc, job));
        run.finish()
    }

    fn assert_close(a: &[f64], b: &[f64], ctx: &str) {
        assert_eq!(a.len(), b.len());
        for (idx, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "{ctx}: mismatch at {idx}");
        }
    }

    #[test]
    fn po_matches_reference() {
        let costs = GapCosts::default();
        for &n in &[3usize, 20, 65, 100] {
            let expect = gap_reference(n, &costs);
            let got = gap_po(n, &costs, 8);
            assert_close(&expect, &got, &format!("n={n}"));
        }
    }

    #[test]
    fn paco_matches_reference_for_various_p() {
        let costs = GapCosts::default();
        let n = 96;
        let expect = gap_reference(n, &costs);
        for p in [1usize, 2, 3, 5, 7] {
            let pool = WorkerPool::new(p);
            let got = gap_paco(n, &costs, &pool);
            assert_close(&expect, &got, &format!("p={p}"));
        }
    }

    #[test]
    fn paco_with_explicit_block_grid() {
        let costs = GapCosts::default();
        let n = 70;
        let expect = gap_reference(n, &costs);
        let pool = WorkerPool::new(3);
        for blocks in [1usize, 2, 5, 16, 128] {
            let got = gap_paco_with_blocks(n, &costs, &pool, blocks);
            assert_close(&expect, &got, &format!("blocks={blocks}"));
        }
    }

    #[test]
    fn tiny_instances() {
        let costs = GapCosts::default();
        let pool = WorkerPool::new(4);
        for n in [0usize, 1, 2] {
            let expect = gap_reference(n, &costs);
            assert_close(&expect, &gap_paco(n, &costs, &pool), &format!("n={n}"));
            assert_close(&expect, &gap_po(n, &costs, 4), &format!("po n={n}"));
        }
    }
}
