//! # paco-runtime
//!
//! The processor-aware execution substrate of the PACO reproduction.
//!
//! The paper's algorithms do **not** rely on a randomized work-stealing
//! scheduler; their whole contribution is that an explicit, processor-aware
//! partitioning (the *pruned BFS traversal* of the divide-and-conquer tree)
//! achieves perfect strong scaling while staying cache-oblivious.  To run such
//! algorithms we need three things a work-stealing runtime does not give us:
//!
//! 1. **Placement** — run *this* task on *that* processor.
//!    [`pool::WorkerPool`] provides `p` long-lived workers and a scoped
//!    `spawn_on(proc, closure)` primitive; tasks on one processor run in
//!    submission order, tasks on different processors run concurrently.
//! 2. **Partitioning** — the generic pruned-BFS engine over any
//!    divide-and-conquer tree ([`bfs::pruned_bfs`], [`bfs::DcNode`]), including
//!    the `γ`-bounded variant used by STRASSEN-CONST-PIECES, plus the
//!    structural invariant checks (geometrically decreasing per-processor
//!    loads, bounded imbalance) the proofs rest on.
//! 3. **Scheduling** — the wave-based [`schedule::Plan`] IR every PACO
//!    front-end compiles its partitioning into: ordered waves of
//!    processor-placed steps, executed in one pool scope with exactly one
//!    barrier per wave, with [`schedule::Plan::concat`]/[`schedule::Plan::batch`]
//!    to run many problem instances through one pool pass.
//! 4. **Heterogeneity** — a throughput-proportional variant of the traversal
//!    and a way to *emulate* a machine with faster and slower cores on
//!    homogeneous hardware ([`hetero`]).
//!
//! The PO baselines the paper compares against are *not* implemented here —
//! they use rayon (a randomized work stealer, standing in for Cilk) directly in
//! the algorithm crates, exactly because that is what "processor-oblivious"
//! means.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bfs;
pub mod hetero;
pub mod pool;
pub mod schedule;

pub use bfs::{
    pruned_bfs, pruned_bfs_with_gamma, pruned_bfs_with_options, Assignment, AssignmentReport,
    BfsOptions, DcNode,
};
pub use hetero::{hetero_pruned_bfs, ThrottleSpec};
pub use pool::{PoolScope, WorkerPool};
pub use schedule::{Front, Plan, PlanBuilder, PlanProfile, Step};
