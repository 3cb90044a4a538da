//! The GAP problem (Sect. III-D of the paper).
//!
//! Given O(1)-computable cost functions `w`, `w'` and `s`, and `D[0][0] = 0`,
//! compute for all `0 ≤ i, j ≤ n`
//!
//! ```text
//! D[i][j] = min( D[i-1][j-1] + s(i, j),
//!                min_{0 ≤ q < j} D[i][q] + w(q, j),
//!                min_{0 ≤ p < i} D[p][j] + w'(p, i) )
//! ```
//!
//! (terms whose index would be negative are skipped).  This is edit distance
//! with general gap penalties; it is the 2D analogue of the 1D problem: every
//! cell depends on the *entire* prefix of its row and of its column, so the
//! total work is `Θ(n³)`.
//!
//! The paper's PACO GAP (Theorem 7) re-partitions only the external-updating
//! cubes: a `n × n × n` cube of work is cut into `p` slabs of disjoint output so
//! all `p` processors update independently.  In this reproduction the
//! computation is organised as a block wavefront over the output table:
//!
//! * [`gap_reference`] — row-major triple loop, ground truth;
//! * [`gap_blocked`] — the same work reorganised into square blocks processed
//!   anti-diagonal by anti-diagonal (better locality; the sequential kernel all
//!   parallel variants share);
//! * [`parallel::gap_po`] — blocks of an anti-diagonal scheduled by rayon
//!   (processor-oblivious);
//! * [`parallel::GapRun`] — PACO: the block grid is sized from `p` and every
//!   block is pre-assigned to a processor (round-robin within its
//!   anti-diagonal), executed on the processor-aware pool; each processor
//!   therefore updates a disjoint output slab of every wavefront step, which
//!   is the shape of the paper's cuboid partitioning.  Run it through
//!   `paco_service::Session` with the `Gap` request.
//!
//! The full Chowdhury–Ramachandran recursive decomposition of GAP (separate
//! self-updating and external-updating functions on sub-cubes) is *not*
//! reproduced; the blocked wavefront performs the identical `Θ(n³)` cell
//! updates and exposes the same output-disjoint parallelism, which is what the
//! partitioning experiments need.  This substitution is recorded in DESIGN.md.

pub mod parallel;

pub use parallel::{gap_po, plan_gap, GapRun};

use paco_core::shared::SharedGrid;

/// The GAP cost functions; all must be O(1) and memory-free.
pub trait GapCost: Sync {
    /// Substitution cost of aligning `i` with `j`.
    fn s(&self, i: usize, j: usize) -> f64;
    /// Cost of a horizontal gap from column `q` to column `j` (`q < j`).
    fn w(&self, q: usize, j: usize) -> f64;
    /// Cost of a vertical gap from row `p` to row `i` (`p < i`).
    fn w_prime(&self, p: usize, i: usize) -> f64;
}

impl GapCost for paco_core::workload::GapCosts {
    #[inline]
    fn s(&self, i: usize, j: usize) -> f64 {
        paco_core::workload::GapCosts::s(self, i, j)
    }
    #[inline]
    fn w(&self, q: usize, j: usize) -> f64 {
        paco_core::workload::GapCosts::w(self, q, j)
    }
    #[inline]
    fn w_prime(&self, p: usize, i: usize) -> f64 {
        paco_core::workload::GapCosts::w_prime(self, p, i)
    }
}

/// Compute one cell of the GAP table from fully finalised predecessors.
#[inline]
pub(crate) fn gap_cell<C: GapCost>(d: &SharedGrid<f64>, i: usize, j: usize, costs: &C) -> f64 {
    let mut best = f64::INFINITY;
    if i > 0 && j > 0 {
        best = d.get(i - 1, j - 1) + costs.s(i, j);
    }
    if j > 0 {
        for q in 0..j {
            let cand = d.get(i, q) + costs.w(q, j);
            if cand < best {
                best = cand;
            }
        }
    }
    if i > 0 {
        for p in 0..i {
            let cand = d.get(p, j) + costs.w_prime(p, i);
            if cand < best {
                best = cand;
            }
        }
    }
    best
}

/// Fill a rectangular block `[r0, r1) × [c0, c1)` of the table in row-major
/// order.  Requires every cell left of the block (same rows), above the block
/// (same columns) and up-left of it to be final.
pub(crate) fn gap_block<C: GapCost>(
    d: &SharedGrid<f64>,
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
    costs: &C,
) {
    for i in r0..r1 {
        for j in c0..c1 {
            if i == 0 && j == 0 {
                continue; // D[0][0] is the given boundary value
            }
            d.set(i, j, gap_cell(d, i, j, costs));
        }
    }
}

/// Reference implementation: row-major triple loop over the `(n+1) × (n+1)`
/// table.  Returns the table in row-major order.
pub fn gap_reference<C: GapCost>(n: usize, costs: &C) -> Vec<f64> {
    let d = SharedGrid::new(n + 1, n + 1, f64::INFINITY);
    d.set(0, 0, 0.0);
    gap_block(&d, 0, n + 1, 0, n + 1, costs);
    d.snapshot()
}

/// The block boundaries of a `parts`-way even division of `len` cells.
pub(crate) fn block_bounds(len: usize, parts: usize, idx: usize) -> (usize, usize) {
    (idx * len / parts, (idx + 1) * len / parts)
}

/// Sequential blocked wavefront: identical results to [`gap_reference`], but
/// the table is swept in `blocks × blocks` square tiles processed anti-diagonal
/// by anti-diagonal — the shared kernel of the parallel variants.
pub fn gap_blocked<C: GapCost>(n: usize, costs: &C, blocks: usize) -> Vec<f64> {
    let blocks = blocks.clamp(1, n + 1);
    let d = SharedGrid::new(n + 1, n + 1, f64::INFINITY);
    d.set(0, 0, 0.0);
    for diag in 0..(2 * blocks - 1) {
        for bi in 0..blocks {
            if diag < bi {
                continue;
            }
            let bj = diag - bi;
            if bj >= blocks {
                continue;
            }
            let (r0, r1) = block_bounds(n + 1, blocks, bi);
            let (c0, c1) = block_bounds(n + 1, blocks, bj);
            gap_block(&d, r0, r1, c0, c1, costs);
        }
    }
    d.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_core::workload::GapCosts;

    fn assert_close(a: &[f64], b: &[f64], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (idx, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "{ctx}: mismatch at {idx}: {x} vs {y}");
        }
    }

    /// A tiny hand-checkable cost model: unit gaps, zero substitutions.
    struct UnitCosts;
    impl GapCost for UnitCosts {
        fn s(&self, _i: usize, _j: usize) -> f64 {
            0.0
        }
        fn w(&self, q: usize, j: usize) -> f64 {
            (j - q) as f64
        }
        fn w_prime(&self, p: usize, i: usize) -> f64 {
            (i - p) as f64
        }
    }

    #[test]
    fn unit_costs_give_zero_diagonal() {
        // With free substitutions the diagonal D[i][i] is always 0, and
        // D[i][j] = |i - j| via a single gap.
        let d = gap_reference(6, &UnitCosts);
        let n1 = 7;
        for i in 0..n1 {
            for j in 0..n1 {
                let expect = (i as f64 - j as f64).abs();
                assert!(
                    (d[i * n1 + j] - expect).abs() < 1e-9,
                    "D[{i}][{j}] = {} expect {expect}",
                    d[i * n1 + j]
                );
            }
        }
    }

    #[test]
    fn blocked_matches_reference() {
        let costs = GapCosts::default();
        for &n in &[1usize, 5, 17, 40, 65] {
            let expect = gap_reference(n, &costs);
            for &blocks in &[1usize, 2, 3, 7, 16] {
                let got = gap_blocked(n, &costs, blocks);
                assert_close(&expect, &got, &format!("n={n} blocks={blocks}"));
            }
        }
    }

    #[test]
    fn boundary_row_and_column_are_pure_gap_costs() {
        let costs = GapCosts {
            open: 1.0,
            extend: 1.0,
            seed: 3,
        };
        let n = 8;
        let d = gap_reference(n, &costs);
        let width = n + 1;
        // D[0][j] is the cheapest way to cover columns 0..j with horizontal gaps.
        // With affine costs one single gap is optimal: 1 + j.
        for j in 1..=n {
            assert!(
                (d[j] - (1.0 + j as f64)).abs() < 1e-9,
                "D[0][{j}] = {}",
                d[j]
            );
            assert!((d[j * width] - (1.0 + j as f64)).abs() < 1e-9);
        }
    }
}
