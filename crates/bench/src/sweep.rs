//! Problem-size sweeps for the matrix-multiplication figures.
//!
//! The paper iterates `n`, `m`, `k` independently over a grid and reports, for
//! every grid point, the speedup of the PACO algorithm over a peer, plotted
//! against the problem size `n·m·k`.  [`mm_grid`] builds a scaled-down version
//! of that grid; [`run_mm_sweep`] measures one comparison over it.

use crate::report::SpeedupSeries;
use paco_core::matrix::Matrix;
use paco_core::metrics::{min_time_of, speedup_percent};
use paco_core::workload::random_matrix_f64;

/// The `(n, m, k)` grid of a sweep.  The paper uses 8000..=44000 step 4000 in
/// every dimension; scaled to this container we default to a handful of sizes
/// whose product spans roughly two orders of magnitude.
pub fn mm_grid(scale: usize) -> Vec<(usize, usize, usize)> {
    let dims: Vec<usize> = [192usize, 320, 448].iter().map(|&d| d * scale).collect();
    let mut grid = Vec::new();
    for &n in &dims {
        for &m in &dims {
            for &k in &dims {
                grid.push((n, m, k));
            }
        }
    }
    grid
}

/// A smaller grid for smoke tests and CI.
pub fn mm_grid_small() -> Vec<(usize, usize, usize)> {
    vec![
        (128, 128, 128),
        (128, 256, 128),
        (256, 128, 192),
        (256, 256, 256),
    ]
}

/// Measure `ours` vs `peer` over the grid; both closures compute `C = A·B` and
/// return it (the result is black-boxed, only time matters).  `repeats` runs
/// are taken per point and the minimum is kept, as in the paper.
///
/// Closures that route through the service API own their inputs, so they pay
/// one `O(n·k + k·m)` operand copy per repetition next to the `O(n·m·k)`
/// multiply — a ≤1–2% systematic cost at the smallest grid points, accepted
/// so the sweeps measure the same front door users call (and the committed
/// baseline is regenerated with the identical code path).
pub fn run_mm_sweep<FO, FP>(
    grid: &[(usize, usize, usize)],
    repeats: usize,
    ours_name: &str,
    peer_name: &str,
    mut ours: FO,
    mut peer: FP,
) -> SpeedupSeries
where
    FO: FnMut(&Matrix<f64>, &Matrix<f64>) -> Matrix<f64>,
    FP: FnMut(&Matrix<f64>, &Matrix<f64>) -> Matrix<f64>,
{
    let mut series = SpeedupSeries::new(ours_name, peer_name);
    for &(n, m, k) in grid {
        let a = random_matrix_f64(n, k, (n * 31 + k) as u64);
        let b = random_matrix_f64(k, m, (k * 17 + m) as u64);
        let t_ours = min_time_of(repeats, || std::hint::black_box(ours(&a, &b)));
        let t_peer = min_time_of(repeats, || std::hint::black_box(peer(&a, &b)));
        let speedup = speedup_percent(t_peer, t_ours);
        series.push(
            format!("{n}x{k} * {k}x{m}"),
            (n as f64) * (m as f64) * (k as f64),
            speedup,
        );
    }
    series
}

/// Per-point timing record of a sweep of a single algorithm (used by the
/// `Rmax/Rpeak` figures).
#[derive(Debug, Clone)]
pub struct TimingPoint {
    /// Output rows.
    pub n: usize,
    /// Output columns.
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Best-of-`repeats` running time in seconds.
    pub secs: f64,
}

/// Time a single algorithm over the grid.
pub fn run_mm_timing<F>(
    grid: &[(usize, usize, usize)],
    repeats: usize,
    mut algo: F,
) -> Vec<TimingPoint>
where
    F: FnMut(&Matrix<f64>, &Matrix<f64>) -> Matrix<f64>,
{
    grid.iter()
        .map(|&(n, m, k)| {
            let a = random_matrix_f64(n, k, (n + 7 * k) as u64);
            let b = random_matrix_f64(k, m, (m + 13 * k) as u64);
            let secs = min_time_of(repeats, || std::hint::black_box(algo(&a, &b)));
            TimingPoint { n, m, k, secs }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_matmul::baseline::blocked_parallel_mm;

    #[test]
    fn grid_shapes() {
        assert_eq!(mm_grid(1).len(), 27);
        assert_eq!(mm_grid(2)[0].0, 384);
        assert!(!mm_grid_small().is_empty());
    }

    #[test]
    fn sweep_runs_on_a_tiny_grid() {
        let grid = [(64usize, 64usize, 64usize)];
        // A 64³ product through the vector leaf takes tens of µs, so one
        // preempted timing would dominate a single sample: take the best
        // of 5 per side.
        let series = run_mm_sweep(
            &grid,
            5,
            "baseline",
            "baseline",
            blocked_parallel_mm,
            blocked_parallel_mm,
        );
        assert_eq!(series.rows.len(), 1);
        // Comparing an algorithm against itself: speedup near zero.
        assert!(series.rows[0].2.abs() < 100.0);
        let timings = run_mm_timing(&grid, 1, blocked_parallel_mm);
        assert_eq!(timings.len(), 1);
        assert!(timings[0].secs > 0.0);
    }
}
