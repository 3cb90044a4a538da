//! Incremental re-closure over idempotent semirings.
//!
//! Everything below the service layer is one-shot: a `Closure` request closes
//! an adjacency matrix and forgets it.  The north-star workload (ROADMAP
//! item 5) re-solves *slightly changed* problems — the same road network with
//! one edge re-weighted, the same reachability graph with one link added —
//! and re-running the full `O(n³)` closure per edit wastes almost all of its
//! work.  The paper's semiring formulation is what makes the incremental
//! path crisp: over an idempotent semiring the closure is a join of path
//! weights, so an *improving* edge update can be folded in by re-propagating
//! only the entries it actually changes.
//!
//! [`ClosedState`] owns an adjacency matrix together with its closure and
//! serves [`EdgeUpdate`] batches:
//!
//! * **Incremental path** — for an eligible update (improving weight, cycle
//!   through the new edge absorbed by `1`), the closed-form single-edge
//!   update `D'ᵢⱼ = Dᵢⱼ ⊕ Lᵢ ⊗ Rⱼ` is applied to the *dirty rectangle*
//!   only: the rows whose distance-to-`v` changed × the columns whose
//!   distance-from-`u` changed (see `closed.rs` for the containment
//!   argument).  Work is accounted per [`Tuning::incr_block`]-sized block in
//!   the [`UpdateStats`] each batch returns — because exact counters, not
//!   timings, are the trustworthy signal on a shared container.
//! * **Full fallback** — a non-improving update (e.g. an edge deletion), an
//!   unsafe cycle, or a dirty frontier above
//!   [`Tuning::incr_fallback_percent`] of the block grid re-closes the
//!   adjacency from scratch.  Both paths produce bit-identical closures;
//!   the threshold only trades bookkeeping for bulk recompute.
//! * **Re-closure elsewhere** — when a batch's first effective update
//!   already has no incremental form ([`ClosedState::reclose_start`]), the
//!   caller may close [`ClosedState::reclose_input`] on a parallel plan and
//!   [`ClosedState::commit`] the result; the [`ClosedState::version`]
//!   counter refuses a commit that another batch overtook.  `paco_service`
//!   runs `IncUpdate`'s re-closure this way.
//!
//! [`HandleRegistry`] stores `ClosedState`s type-erased behind small `Copy`
//! [`ClosedGraph`] handles so `paco_service` can route update requests to
//! the Engine shard owning the closed state (handle id → shard affinity)
//! while the state itself stays behind one mutex.
//!
//! [`Tuning::incr_block`]: paco_core::tuning::Tuning::incr_block
//! [`Tuning::incr_fallback_percent`]: paco_core::tuning::Tuning::incr_fallback_percent

pub mod closed;
pub mod registry;

pub use closed::{ClosedState, EdgeUpdate, UpdateStats};
pub use registry::{ClosedGraph, HandleRegistry};
