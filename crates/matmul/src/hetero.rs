//! Heterogeneous PACO matrix multiplication (Sect. III-E-2, Corollary 12, and
//! the experimental variant of Sect. IV-A used for Fig. 9b).
//!
//! The paper's 72-core machine turned out to be heterogeneous (the 18 cores of
//! socket 0 ran ~3× faster than the other 54), and a throughput-aware PACO
//! split raised the mean speedup over MKL from 3.4% to 48.6%.  We do not have a
//! heterogeneous machine, so the experiment is reproduced on an *emulated* one:
//! a [`ThrottleSpec`] makes the "slow" workers repeat their leaf kernels, and
//! the comparison is between
//!
//! * [`hetero_mm`] — the throughput-aware split: the processor list is divided
//!   into two halves as a binary tree over the workers, and the cuboid is cut
//!   on its longest dimension in the ratio of the two halves' total throughput
//!   (the Sect. IV-A variant, similar to Nagamochi–Abe rectangular
//!   partitioning, which gives each processor exactly one piece), and
//! * [`unaware_mm`] — the plain even 1-PIECE split executed on the same
//!   emulated machine, standing in for any heterogeneity-unaware competitor
//!   (MKL in the paper's figure).
//!
//! Corollary 12 predicts the aware split reaches the ideal speedup
//! `Σtᵢ / t₁` while the unaware split is gated by the slowest core.

use crate::paco_mm::{paco_mm_1piece_with, MmConfig};
use paco_core::matrix::Matrix;
use paco_core::semiring::Semiring;
use paco_runtime::hetero::ThrottleSpec;
use paco_runtime::WorkerPool;

/// Throughput-aware PACO MM on an (emulated) heterogeneous machine: work is
/// split in proportion to the configured throughput ratios and every leaf is
/// throttled according to the same specification.
pub fn hetero_mm<S: Semiring>(
    a: &Matrix<S>,
    b: &Matrix<S>,
    pool: &WorkerPool,
    throttle: &ThrottleSpec,
) -> Matrix<S> {
    let cfg = MmConfig {
        fractions: Some(throttle.spec().fractions()),
        throttle: Some(throttle.clone()),
        cutoff: crate::kernel::MM_BASE,
    };
    paco_mm_1piece_with(a, b, pool, &cfg)
}

/// Heterogeneity-*unaware* PACO MM running on the same emulated machine: the
/// cuboid is split evenly (as if all cores were equal) while the leaves are
/// still throttled.  This is the baseline the aware split is compared against
/// in the Fig. 9b reproduction.
pub fn unaware_mm<S: Semiring>(
    a: &Matrix<S>,
    b: &Matrix<S>,
    pool: &WorkerPool,
    throttle: &ThrottleSpec,
) -> Matrix<S> {
    let cfg = MmConfig {
        fractions: None,
        throttle: Some(throttle.clone()),
        cutoff: crate::kernel::MM_BASE,
    };
    paco_mm_1piece_with(a, b, pool, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::co_mm::mm_reference;
    use crate::paco_mm::{plan_mm_1piece, MmJob};
    use paco_core::machine::{HeteroSpec, MachineConfig};
    use paco_core::workload::random_matrix_wrapping;

    #[test]
    fn aware_and_unaware_are_both_correct() {
        let a = random_matrix_wrapping(96, 80, 21);
        let b = random_matrix_wrapping(80, 72, 22);
        let expect = mm_reference(&a, &b);
        let spec = HeteroSpec::new(vec![3.0, 1.0, 1.0, 1.0]);
        let throttle = ThrottleSpec::from_spec(&spec);
        let pool = WorkerPool::new(4);
        assert_eq!(expect, hetero_mm(&a, &b, &pool, &throttle));
        assert_eq!(expect, unaware_mm(&a, &b, &pool, &throttle));
    }

    /// Speed-weighted plan efficiency `Σwork / (Σspeed · makespan)` of the
    /// 1-PIECE plan for an `n³` product, split by `fractions` (`None` =
    /// the even, heterogeneity-unaware split).
    fn weighted_eff(n: usize, spec: &HeteroSpec, fractions: Option<Vec<f64>>) -> f64 {
        let cfg = MmConfig {
            fractions,
            ..MmConfig::default()
        };
        plan_mm_1piece(n, n, n, spec.p(), &cfg)
            .plan
            .profile(Some(spec.ratios()), MmJob::cost)
            .eff()
    }

    #[test]
    fn aware_split_balances_the_emulated_heterogeneous_machine() {
        // Corollary 12 as a count: weighted by each core's speed, the aware
        // split keeps every core busy to the end, while the even split waits
        // on a slow core and reaches only `p / Σspeed` (every core finishes
        // `1/p` of the work, the slowest at speed 1).
        for spec in [
            MachineConfig::xeon_72core().hetero_spec(),
            HeteroSpec::new(vec![4.0, 1.0, 1.0, 1.0]),
            HeteroSpec::new(vec![3.0, 1.0, 1.0, 1.0]),
        ] {
            let ideal_unaware = spec.p() as f64 / spec.total_throughput();
            for n in [768, 4096] {
                let aware = weighted_eff(n, &spec, Some(spec.fractions()));
                let unaware = weighted_eff(n, &spec, None);
                assert!(aware >= 0.99, "p={} n={n}: aware eff {aware:.4}", spec.p());
                assert!(
                    (unaware - ideal_unaware).abs() <= 0.005,
                    "p={} n={n}: unaware eff {unaware:.4}, expected {ideal_unaware:.4}",
                    spec.p()
                );
            }
        }
    }

    #[test]
    fn homogeneous_spec_reduces_to_plain_1piece() {
        let a = random_matrix_wrapping(64, 64, 41);
        let b = random_matrix_wrapping(64, 64, 42);
        let spec = HeteroSpec::homogeneous(3);
        let throttle = ThrottleSpec::from_spec(&spec);
        let pool = WorkerPool::new(3);
        let expect = mm_reference(&a, &b);
        assert_eq!(expect, hetero_mm(&a, &b, &pool, &throttle));
    }
}
