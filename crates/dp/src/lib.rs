//! # paco-dp
//!
//! The dynamic-programming family of the PACO paper:
//!
//! * [`lcs`] — longest common subsequence (Sect. III-B), DP with constant
//!   dependencies.
//! * [`one_d`] — the 1D / least-weight-subsequence problem (Sect. III-C), DP
//!   with a non-constant (full prefix) dependency in one dimension.
//! * [`gap`] — the GAP problem (Sect. III-D), DP with full prefix dependencies
//!   in both dimensions.
//!
//! Every problem ships the paper's full cast: a reference implementation, the
//! sequential cache-oblivious kernel, the processor-oblivious (PO) parallel
//! variant scheduled by randomized work stealing (rayon), the processor-aware
//! (PA) variant where the table lists one, and the PACO variant running on the
//! processor-aware runtime.  Kernels are generic over
//! [`paco_cache_sim::Tracker`] so the exact same code is measured natively and
//! replayed through the ideal distributed cache model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gap;
pub mod lcs;
pub mod one_d;
