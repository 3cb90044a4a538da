//! The single home of every tuning knob in the workspace.
//!
//! Before the service API each workload crate carried its own magic constant
//! (`paco_dp::lcs::kernel::DEFAULT_BASE`, `paco_graph::kernel::DEFAULT_BASE`,
//! the 1D `base` parameter, GAP's tile-grid size, sort's oversampling ratio
//! `k`) and every caller had to thread the right knob through the right
//! entry point by hand.  [`Tuning`] gathers them into one value that the
//! service layer's `Session` consumes: construct it once (defaults, builder
//! overrides, or the `PACO_BASE` environment variable for bench sweeps) and
//! every workload picks up its grain size from the same place.
//!
//! The constants below are the workspace-wide defaults; the per-crate
//! `DEFAULT_BASE`-style constants still exist for backwards compatibility but
//! are aliases of these.

use crate::util::next_power_of_two;

/// Default base-case side of the LCS cache-oblivious recursion.
pub const LCS_BASE: usize = 64;

/// Default base-case side of the Floyd–Warshall A/B/C/D recursion.
pub const FW_BASE: usize = 32;

/// Default base-case length of the 1D triangle/square recursion.
pub const ONE_D_BASE: usize = 32;

/// Default base-case threshold of the matrix-multiplication recursions.
pub const MM_BASE: usize = 64;

/// Default side length below which Strassen falls back to the classical
/// cache-oblivious kernel.
pub const STRASSEN_CUTOFF: usize = 64;

/// Default side of the dirty-block accounting grid used by the incremental
/// closure (`paco_incr`): frontier bookkeeping and the `incr/*` counters are
/// tracked per `INCR_BLOCK × INCR_BLOCK` tile.
pub const INCR_BLOCK: usize = 32;

/// Default dirty-frontier threshold of the incremental closure, in percent
/// of the total block grid: when one update's dirty rectangle probes more
/// than this fraction of all blocks, `paco_incr` re-closes the adjacency
/// from scratch instead of re-propagating.
pub const INCR_FALLBACK_PERCENT: usize = 60;

/// Environment variable overriding every base/grain size at once
/// (`PACO_BASE=<n>`), used by the ablation bench sweeps.
pub const BASE_ENV_VAR: &str = "PACO_BASE";

/// Environment variable controlling the SIMD microkernel dispatch
/// (`PACO_SIMD=off` forces the portable path); read once per process by
/// [`crate::simd`].
pub const SIMD_ENV_VAR: &str = "PACO_SIMD";

/// Every tuning knob of the PACO workloads, in one struct.
///
/// `None` for the optional knobs means "derive the paper's default from the
/// problem/processor count at run time" — see the accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuning {
    /// Base-case side of the LCS partitioning and kernel.
    pub lcs_base: usize,
    /// Base-case side of the Floyd–Warshall recursion and kernels.
    pub fw_base: usize,
    /// Base-case length of the 1D triangle/square recursion.
    pub one_d_base: usize,
    /// Base-case threshold of the classic-MM recursions (cuboid splitting and
    /// the sequential cache-oblivious kernel).
    pub mm_cutoff: usize,
    /// Side length below which Strassen falls back to the classical kernel.
    pub strassen_cutoff: usize,
    /// Side length below which the Strassen 7-ary tree stops expanding in
    /// parallel (nodes at most this size are assigned as-is).
    pub strassen_parallel_base: usize,
    /// `γ` for STRASSEN-CONST-PIECES: maximum number of assignment
    /// super-rounds; `None` is the plain PACO STRASSEN (unlimited).
    pub strassen_gamma: Option<usize>,
    /// GAP tile-grid side; `None` derives `2·2^⌈log₂ p⌉` from the processor
    /// count ([`Tuning::gap_grid`]).
    pub gap_blocks: Option<usize>,
    /// Sort oversampling ratio `k`; `None` derives `max(16, ⌈2·ln n⌉)` from
    /// the input length ([`Tuning::sort_k`]).
    pub sort_oversampling: Option<usize>,
    /// Side of the dirty-block accounting grid of the incremental closure
    /// (`paco_incr`): re-propagation work and the `incr/*` counters are
    /// tracked per `incr_block × incr_block` tile.
    pub incr_block: usize,
    /// Dirty-frontier fallback threshold of the incremental closure, in
    /// percent of the total block grid (0 = always re-close from scratch,
    /// 100 = re-propagate whatever the frontier; both paths produce
    /// bit-identical closures, this knob only trades bookkeeping for bulk
    /// recompute).  Kept as an integer percentage so [`Tuning`] stays `Eq`.
    pub incr_fallback_percent: usize,
    /// Monotonic invalidation counter for plan-skeleton caches.
    ///
    /// Compiled plan skeletons depend only on (shape, `p`, tuning) — the
    /// paper's workload-independence claim — so the service layer caches them
    /// keyed on the request shape *plus this epoch*.  Any holder that mutates
    /// a knob after skeletons may have been cached must call
    /// [`Tuning::bump_epoch`] so stale schedules can never be replayed
    /// (`paco_service::Session::update_tuning` does this automatically).
    /// Comparing two `Tuning`s for knob equality should ignore the epoch;
    /// use [`Tuning::same_knobs`].
    pub epoch: u64,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            lcs_base: LCS_BASE,
            fw_base: FW_BASE,
            one_d_base: ONE_D_BASE,
            mm_cutoff: MM_BASE,
            strassen_cutoff: STRASSEN_CUTOFF,
            strassen_parallel_base: 2 * STRASSEN_CUTOFF,
            strassen_gamma: None,
            gap_blocks: None,
            sort_oversampling: None,
            incr_block: INCR_BLOCK,
            incr_fallback_percent: INCR_FALLBACK_PERCENT,
            epoch: 0,
        }
    }
}

impl Tuning {
    /// Defaults, then the `PACO_BASE` environment override applied to every
    /// base/grain knob via [`Tuning::with_base`].  A set-but-invalid value
    /// (unparseable, or zero) is ignored with a warning on stderr — the
    /// override exists for bench sweeps, where silently running every point
    /// at the defaults would be much harder to notice than a warning.
    pub fn from_env() -> Self {
        match std::env::var(BASE_ENV_VAR) {
            Err(_) => Self::default(),
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(base) if base >= 1 => Self::default().with_base(base),
                _ => {
                    eprintln!(
                        "warning: ignoring invalid {BASE_ENV_VAR}={raw:?} (expected an integer >= 1)"
                    );
                    Self::default()
                }
            },
        }
    }

    /// Set every base/grain-size knob (LCS, FW, 1D, MM, Strassen cutoff) to
    /// `base` — the bench sweeps' one-dial override.  The Strassen parallel
    /// base follows at `2·base`; the derived knobs (GAP grid, oversampling)
    /// are left alone.
    pub fn with_base(mut self, base: usize) -> Self {
        assert!(base >= 1, "base sizes must be at least 1");
        self.lcs_base = base;
        self.fw_base = base;
        self.one_d_base = base;
        self.mm_cutoff = base;
        self.strassen_cutoff = base;
        self.strassen_parallel_base = 2 * base;
        self
    }

    /// The sort oversampling ratio for an input of `n` keys: the explicit
    /// override, or the paper's `k = Θ(ln n)` rule (`max(16, ⌈2·ln n⌉)`).
    pub fn sort_k(&self, n: usize) -> usize {
        self.sort_oversampling
            .unwrap_or_else(|| ((2.0 * (n.max(2) as f64).ln()).ceil() as usize).max(16))
    }

    /// The GAP tile-grid side for `p` processors: the explicit override, or
    /// `2·2^⌈log₂ p⌉` so most anti-diagonals offer at least `p` independent
    /// output slabs.
    pub fn gap_grid(&self, p: usize) -> usize {
        self.gap_blocks.unwrap_or(2 * next_power_of_two(p))
    }

    /// Advance the plan-cache invalidation [`epoch`](Tuning::epoch).  Call
    /// after mutating any knob once skeletons may have been cached against
    /// this tuning; every cached schedule keyed to the old epoch becomes
    /// unreachable.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Whether every *knob* matches `other`, ignoring the cache-invalidation
    /// [`epoch`](Tuning::epoch) (plain `==` compares the epoch too).
    pub fn same_knobs(&self, other: &Tuning) -> bool {
        let a = Tuning {
            epoch: 0,
            ..self.clone()
        };
        let b = Tuning {
            epoch: 0,
            ..other.clone()
        };
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_historical_per_crate_constants() {
        let t = Tuning::default();
        assert_eq!(t.lcs_base, 64);
        assert_eq!(t.fw_base, 32);
        assert_eq!(t.one_d_base, 32);
        assert_eq!(t.mm_cutoff, 64);
        assert_eq!(t.strassen_cutoff, 64);
        assert_eq!(t.strassen_parallel_base, 128);
        assert_eq!(t.incr_block, 32);
        assert_eq!(t.incr_fallback_percent, 60);
    }

    #[test]
    fn with_base_sets_every_grain_knob() {
        let t = Tuning::default().with_base(16);
        assert_eq!(t.lcs_base, 16);
        assert_eq!(t.fw_base, 16);
        assert_eq!(t.one_d_base, 16);
        assert_eq!(t.mm_cutoff, 16);
        assert_eq!(t.strassen_cutoff, 16);
        assert_eq!(t.strassen_parallel_base, 32);
    }

    #[test]
    fn derived_knobs_follow_the_paper_rules() {
        let t = Tuning::default();
        // k = max(16, ceil(2 ln n)).
        assert_eq!(t.sort_k(10), 16);
        let big = t.sort_k(1 << 20);
        assert!((27..=29).contains(&big), "2 ln 2^20 ≈ 27.7, got {big}");
        // Explicit override wins.
        let t2 = Tuning {
            sort_oversampling: Some(4),
            gap_blocks: Some(7),
            ..Tuning::default()
        };
        assert_eq!(t2.sort_k(1 << 20), 4);
        assert_eq!(t2.gap_grid(13), 7);
        // Derived GAP grid: 2 * next_pow2(p).
        assert_eq!(t.gap_grid(1), 2);
        assert_eq!(t.gap_grid(3), 8);
        assert_eq!(t.gap_grid(4), 8);
    }

    #[test]
    fn epoch_bumps_and_knob_comparison_ignores_it() {
        let mut t = Tuning::default();
        assert_eq!(t.epoch, 0);
        t.bump_epoch();
        t.bump_epoch();
        assert_eq!(t.epoch, 2);
        // Same knobs, different epochs: != but same_knobs.
        let fresh = Tuning::default();
        assert_ne!(t, fresh);
        assert!(t.same_knobs(&fresh));
        // Different knobs are caught regardless of epoch.
        let coarser = Tuning::default().with_base(128);
        assert!(!t.same_knobs(&coarser));
    }
}
