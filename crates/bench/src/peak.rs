//! Peak-throughput calibration and `Rmax/Rpeak` accounting (Table IV, Fig. 10b).
//!
//! The paper computes `Rpeak` from the CPU's data sheet (cores × clock ×
//! FLOPs/cycle).  Inside a container we neither know nor control those
//! numbers, so the machine's "attainable peak" is *measured*: the single-core
//! throughput of the dispatched `f64` leaf kernel ([`mm_f64`], the kernel
//! every MM variant bottoms out in) on an in-cache problem, multiplied by the
//! worker count.  `Rmax/Rpeak` then reports the fraction of that attainable
//! peak each parallel strategy reaches — the same quantity the paper's
//! Table IV compares (its absolute level differs, the ordering is what the
//! reproduction checks), and never more than 100 %.

use paco_core::matrix::Matrix;
use paco_core::metrics::{min_time_of, mm_flops};
use paco_core::simd::mm_f64;
use paco_core::workload::random_matrix_f64;

/// Measured single-core throughput (FLOP/s) of the dispatched leaf kernel.
pub fn per_core_peak_flops() -> f64 {
    // 256³ keeps all three operands (1.5 MiB) in L2 and is large enough to
    // amortise timing noise; one call runs the whole product as one leaf.
    let n = 256;
    let a = random_matrix_f64(n, n, 0xbeef);
    let b = random_matrix_f64(n, n, 0xcafe);
    let mut c = Matrix::zeros(n, n);
    let secs = min_time_of(5, || mm_f64(&mut c.as_mut(), &a.as_ref(), &b.as_ref()));
    std::hint::black_box(&c);
    mm_flops(n, n, n, secs)
}

/// Attainable machine peak: per-core measured peak × worker count.
pub fn machine_peak_flops(p: usize) -> f64 {
    per_core_peak_flops() * p as f64
}

/// `Rmax/Rpeak` as a percentage for a measured multiplication.
pub fn rmax_over_rpeak(n: usize, m: usize, k: usize, secs: f64, machine_peak: f64) -> f64 {
    100.0 * mm_flops(n, m, k, secs) / machine_peak
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive_and_stable_in_order_of_magnitude() {
        let a = per_core_peak_flops();
        let b = per_core_peak_flops();
        assert!(a > 1e6, "implausibly low throughput {a}");
        assert!(b > 1e6);
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 5.0, "calibration unstable: {a} vs {b}");
    }

    #[test]
    fn rmax_accounting() {
        // 2·n·m·k flops in 1 second against a 1 GFLOP/s peak.
        let pct = rmax_over_rpeak(1000, 1000, 500, 1.0, 1e9);
        assert!((pct - 100.0).abs() < 1e-9);
    }
}
