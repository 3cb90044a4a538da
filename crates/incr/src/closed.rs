//! The incremental closure state and its edge-update algebra.
//!
//! # The single-edge update formula
//!
//! Let `D = A*` be the closure of the adjacency `A` over an idempotent
//! semiring, and let the update assign weight `w` to edge `(u, v)`.  Define
//!
//! ```text
//! L[i] = (δᵢᵤ·1 ⊕ D[i][u]) ⊗ w        (best way to reach the new edge's head)
//! R[j] =  δⱼᵥ·1 ⊕ D[v][j]             (best way to leave its tail)
//! ```
//!
//! Every walk in the updated graph either avoids the new edge (weight already
//! in `D`) or decomposes around its uses.  Walks using it once contribute
//! `L[i] ⊗ R[j]`; walks using it `k ≥ 2` times contribute
//! `L[i] ⊗ cᵏ⁻¹ ⊗ R[j]` where `c = w ⊗ (δᵥᵤ·1 ⊕ D[v][u])` is the best cycle
//! through the new edge.  Under the two *eligibility conditions*
//!
//! 1. **improving**: `w ⊕ A[u][v] = w` (assignment coincides with a join), and
//! 2. **safe cycle**: `1 ⊕ c = 1` (the cycle cannot beat staying put, so
//!    `c* = 1` and multi-use walks are absorbed: `L ⊗ c ⊗ R ⊕ L ⊗ R = L ⊗ R`),
//!
//! the exact new closure is `D'[i][j] = D[i][j] ⊕ L[i] ⊗ R[j]`.
//!
//! # The dirty rectangle
//!
//! Sweeping that formula over all `n²` cells would touch as many entries as
//! a full re-closure rewrites.  Define the *dirty frontier*
//!
//! ```text
//! dirty_rows = { i : D[i][v] ⊕ L[i] ⊗ R[v] ≠ D[i][v] }
//! dirty_cols = { j : D[u][j] ⊕ L[u] ⊗ R[j] ≠ D[u][j] }
//! ```
//!
//! **Every changed cell lies in `dirty_rows × dirty_cols`.**  Proof sketch:
//! `R[j] = R[v] ⊗ R[j]` (a walk leaving `v` passes through `v`, and the join
//! over such factorizations is absorbed by idempotence), so if row `i` is
//! clean — `L[i] ⊗ R[v]` absorbed by `D[i][v]` — then for every `j`:
//! `L[i] ⊗ R[j] = L[i] ⊗ R[v] ⊗ R[j]` is absorbed by `D[i][v] ⊗ R[j]`, a
//! walk weight already joined into `D[i][j]`.  Symmetrically for clean
//! columns via `L[i] = L[i] ⊗ (δᵤᵤ·1 ⊕ ...)`-style factoring through `u`.
//! The sweep therefore touches only the rectangle, which for a single-edge
//! update on a warm closure is a thin cross-shaped frontier, not the whole
//! matrix — that is what [`UpdateStats::repropagated_ratio`] measures.

use paco_core::matrix::Matrix;
use paco_core::semiring::IdempotentSemiring;
use paco_graph::seq::fw_seq;

/// One edge assignment: set the adjacency weight of `(from, to)` to `weight`.
///
/// Assignment — not join — so updates can also *worsen* an edge (raise a
/// min-plus distance, delete a boolean link by assigning `false`); worsening
/// updates are served by the full re-closure fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeUpdate<S> {
    /// Tail vertex (row index).
    pub from: usize,
    /// Head vertex (column index).
    pub to: usize,
    /// New adjacency weight.
    pub weight: S,
}

impl<S> EdgeUpdate<S> {
    /// Convenience constructor.
    pub fn new(from: usize, to: usize, weight: S) -> Self {
        Self { from, to, weight }
    }
}

/// Exact per-batch work accounting, returned by [`ClosedState::apply_batch`]
/// (and by the service's `IncUpdate` request); [`UpdateStats::merge`] totals
/// several batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Updates in the batch.
    pub updates: u64,
    /// Updates served by dirty-rectangle re-propagation.
    pub incremental: u64,
    /// Updates absorbed by a full re-closure fallback.
    pub full: u64,
    /// Full re-closures triggered (0 or 1 per batch: the fallback absorbs
    /// every remaining update of the batch into one re-closure).
    pub full_fallbacks: u64,
    /// Dirty frontier rows summed over the incremental updates.
    pub frontier_rows: u64,
    /// Dirty frontier columns summed over the incremental updates.
    pub frontier_cols: u64,
    /// Blocks of the dirty rectangle examined.
    pub blocks_probed: u64,
    /// Probed blocks in which at least one closure entry changed.
    pub blocks_repropagated: u64,
    /// Blocks a full re-closure would have rewritten for the same updates
    /// (`⌈n/block⌉²` per incremental update) — the ratio denominator.
    pub blocks_total: u64,
}

impl UpdateStats {
    /// Blocks actually rewritten as a fraction of what full re-closure would
    /// have rewritten; 0 when nothing ran incrementally.
    pub fn repropagated_ratio(&self) -> f64 {
        if self.blocks_total == 0 {
            0.0
        } else {
            self.blocks_repropagated as f64 / self.blocks_total as f64
        }
    }

    /// Field-wise sum — how a caller totals the batches it applied.
    pub fn merge(self, other: UpdateStats) -> UpdateStats {
        UpdateStats {
            updates: self.updates + other.updates,
            incremental: self.incremental + other.incremental,
            full: self.full + other.full,
            full_fallbacks: self.full_fallbacks + other.full_fallbacks,
            frontier_rows: self.frontier_rows + other.frontier_rows,
            frontier_cols: self.frontier_cols + other.frontier_cols,
            blocks_probed: self.blocks_probed + other.blocks_probed,
            blocks_repropagated: self.blocks_repropagated + other.blocks_repropagated,
            blocks_total: self.blocks_total + other.blocks_total,
        }
    }
}

/// The dirty frontier of one eligible update, grouped by accounting block.
struct Frontier<S> {
    l: Vec<S>,
    r: Vec<S>,
    rows_by_block: Vec<Vec<usize>>,
    cols_by_block: Vec<Vec<usize>>,
    frontier_rows: u64,
    frontier_cols: u64,
    blocks_probed: u64,
}

/// An adjacency matrix kept together with its closure, able to fold in
/// [`EdgeUpdate`] batches without re-closing from scratch.
///
/// Invariant (checked bit-for-bit by the `tests/incr.rs` proptests):
/// `closed == fw_seq(&adj)` after every construction and every batch.
///
/// A batch whose first effective update has no incremental form can also be
/// re-closed *outside* the state, on a parallel plan: [`Self::reclose_start`]
/// classifies it, [`Self::reclose_input`] hands out the adjacency to close,
/// and [`Self::commit`] installs the closure — but only if no other batch
/// landed in between, which the [`Self::version`] counter detects.
#[derive(Debug, Clone)]
pub struct ClosedState<S: IdempotentSemiring> {
    adj: Matrix<S>,
    closed: Matrix<S>,
    /// Bumped by every [`Self::apply_batch`] and [`Self::commit`].
    version: u64,
}

impl<S: IdempotentSemiring> ClosedState<S> {
    /// Close `adj` from scratch (the handle-materialization path).
    pub fn close(adj: Matrix<S>, fw_base: usize) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "closure needs a square adjacency");
        let closed = fw_seq(&adj, fw_base);
        Self {
            adj,
            closed,
            version: 0,
        }
    }

    /// Adopt an already-computed closure (e.g. one produced by the parallel
    /// PACO plan); the caller asserts `closed` really is the closure of `adj`.
    pub fn from_parts(adj: Matrix<S>, closed: Matrix<S>) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "closure needs a square adjacency");
        assert_eq!(adj.rows(), closed.rows(), "adjacency/closure side mismatch");
        assert_eq!(closed.rows(), closed.cols(), "closure must be square");
        Self {
            adj,
            closed,
            version: 0,
        }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.adj.rows()
    }

    /// The current adjacency (reflects every applied update).
    pub fn adjacency(&self) -> &Matrix<S> {
        &self.adj
    }

    /// The current closure of [`Self::adjacency`].
    pub fn closed(&self) -> &Matrix<S> {
        &self.closed
    }

    /// A counter bumped by every batch and every commit: a re-closure
    /// computed from [`Self::reclose_input`] may be committed only while it
    /// still reads the same.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the batch's first *effective* update (one whose weight
    /// differs from the adjacency) has no incremental form — it is not
    /// improving, or its cycle is unsafe — so [`Self::apply_batch`] would
    /// re-close everything from there on.  Returns that update's index.
    ///
    /// `None` when the batch starts incrementally, is all no-ops, or names
    /// an out-of-bounds edge (which `apply_batch` then reports).  Reads
    /// `O(1)` entries per update of the no-op prefix.
    pub fn reclose_start(&self, updates: &[EdgeUpdate<S>]) -> Option<usize> {
        let n = self.n();
        let in_bounds = |up: &EdgeUpdate<S>| up.from < n && up.to < n;
        for (idx, up) in updates.iter().enumerate() {
            if !in_bounds(up) {
                return None;
            }
            if up.weight == self.adj[(up.from, up.to)] {
                continue;
            }
            let recloses = !self.incremental_form(up.from, up.to, up.weight)
                && updates[idx..].iter().all(in_bounds);
            return recloses.then_some(idx);
        }
        None
    }

    /// The [`UpdateStats`] that [`Self::apply_batch`] returns for a batch of
    /// `len` updates re-closing from `start` (see [`Self::reclose_start`]):
    /// the no-op prefix counts as incremental, the rest as one fallback.
    pub fn reclose_stats(&self, len: usize, start: usize, block: usize) -> UpdateStats {
        let nb = self.n().div_ceil(block.max(1)) as u64;
        UpdateStats {
            updates: len as u64,
            incremental: start as u64,
            full: (len - start) as u64,
            full_fallbacks: 1,
            blocks_total: start as u64 * nb * nb,
            ..UpdateStats::default()
        }
    }

    /// The adjacency with `rest` written in: what a re-closure starting at
    /// [`Self::reclose_start`] closes.  The one `n²` copy the re-closure
    /// makes.
    pub fn reclose_input(&self, rest: &[EdgeUpdate<S>]) -> Matrix<S> {
        let mut adj = self.adj.clone();
        write_updates(&mut adj, rest);
        adj
    }

    /// Install `closed`, the closure of [`Self::reclose_input`]`(rest)`
    /// taken at `version`: write `rest` into the adjacency and adopt
    /// `closed`'s allocation, no copy.  Returns `false` and changes nothing
    /// when another batch landed since `version` — the caller then applies
    /// its batch afresh with [`Self::apply_batch`].
    pub fn commit(&mut self, version: u64, rest: &[EdgeUpdate<S>], closed: Matrix<S>) -> bool {
        if version != self.version {
            return false;
        }
        assert_eq!(closed.rows(), self.n(), "adjacency/closure side mismatch");
        write_updates(&mut self.adj, rest);
        self.closed = closed;
        self.version += 1;
        true
    }

    /// The two eligibility conditions of the module docs: an improving
    /// assignment (≡ a join), whose best cycle is absorbed by 1.
    fn incremental_form(&self, u: usize, v: usize, w: S) -> bool {
        let improving = w.add(self.adj[(u, v)]) == w;
        let d_vu = if v == u {
            S::one().add(self.closed[(v, u)])
        } else {
            self.closed[(v, u)]
        };
        improving && S::one().add(w.mul(d_vu)) == S::one()
    }

    /// Apply a batch of edge assignments in order, keeping the closure exact.
    ///
    /// Each update is served incrementally when eligible and its dirty
    /// rectangle probes at most `fallback_percent` percent of the
    /// `⌈n/block⌉ × ⌈n/block⌉` accounting grid; an ineligible update or a
    /// too-dense frontier writes the remaining tail of the batch into the
    /// adjacency and absorbs it with a single full re-closure.  Either way
    /// `closed()` ends bit-identical to a from-scratch closure of the final
    /// adjacency.
    pub fn apply_batch(
        &mut self,
        updates: &[EdgeUpdate<S>],
        block: usize,
        fallback_percent: usize,
        fw_base: usize,
    ) -> UpdateStats {
        let n = self.n();
        let block = block.max(1);
        let nb = n.div_ceil(block);
        let grid = (nb * nb) as u64;
        let mut stats = UpdateStats {
            updates: updates.len() as u64,
            ..UpdateStats::default()
        };
        self.version += 1;

        for (idx, up) in updates.iter().enumerate() {
            let (u, v, w) = (up.from, up.to, up.weight);
            assert!(u < n && v < n, "edge ({u}, {v}) out of bounds for n = {n}");

            if w == self.adj[(u, v)] {
                // Assigning the weight already there: closure unchanged.
                stats.incremental += 1;
                stats.blocks_total += grid;
                continue;
            }

            if !self.incremental_form(u, v, w) {
                // Worsening assignment or unsafe cycle: no incremental form.
                self.full_fallback(&updates[idx..], fw_base, &mut stats);
                break;
            }

            let frontier = self.frontier(u, v, w, block, nb);
            if frontier.blocks_probed * 100 > fallback_percent as u64 * grid {
                // Frontier denser than the threshold: probing work is
                // discarded and the rest of the batch re-closes in bulk.
                self.full_fallback(&updates[idx..], fw_base, &mut stats);
                break;
            }

            self.adj[(u, v)] = w;
            let repropagated = self.sweep(&frontier);
            stats.incremental += 1;
            stats.blocks_total += grid;
            stats.frontier_rows += frontier.frontier_rows;
            stats.frontier_cols += frontier.frontier_cols;
            stats.blocks_probed += frontier.blocks_probed;
            stats.blocks_repropagated += repropagated;
        }

        stats
    }

    /// Write `rest` into the adjacency and re-close from scratch once.
    fn full_fallback(&mut self, rest: &[EdgeUpdate<S>], fw_base: usize, stats: &mut UpdateStats) {
        write_updates(&mut self.adj, rest);
        self.closed = fw_seq(&self.adj, fw_base);
        stats.full += rest.len() as u64;
        stats.full_fallbacks += 1;
    }

    /// Compute the dirty frontier of the eligible assignment `(u, v) ← w`
    /// against the current closure, without mutating anything.
    fn frontier(&self, u: usize, v: usize, w: S, block: usize, nb: usize) -> Frontier<S> {
        let n = self.n();
        let d = &self.closed;

        // L[i] = (δᵢᵤ·1 ⊕ D[i][u]) ⊗ w,  R[j] = δⱼᵥ·1 ⊕ D[v][j].
        let l: Vec<S> = (0..n)
            .map(|i| {
                let reach = if i == u {
                    S::one().add(d[(i, u)])
                } else {
                    d[(i, u)]
                };
                reach.mul(w)
            })
            .collect();
        let r: Vec<S> = (0..n)
            .map(|j| {
                if j == v {
                    S::one().add(d[(v, j)])
                } else {
                    d[(v, j)]
                }
            })
            .collect();

        let mut rows_by_block: Vec<Vec<usize>> = vec![Vec::new(); nb];
        let mut cols_by_block: Vec<Vec<usize>> = vec![Vec::new(); nb];
        let mut frontier_rows = 0u64;
        let mut frontier_cols = 0u64;
        for i in 0..n {
            if d[(i, v)].add(l[i].mul(r[v])) != d[(i, v)] {
                rows_by_block[i / block].push(i);
                frontier_rows += 1;
            }
        }
        for j in 0..n {
            if d[(u, j)].add(l[u].mul(r[j])) != d[(u, j)] {
                cols_by_block[j / block].push(j);
                frontier_cols += 1;
            }
        }
        let row_blocks = rows_by_block.iter().filter(|b| !b.is_empty()).count() as u64;
        let col_blocks = cols_by_block.iter().filter(|b| !b.is_empty()).count() as u64;

        Frontier {
            l,
            r,
            rows_by_block,
            cols_by_block,
            frontier_rows,
            frontier_cols,
            blocks_probed: row_blocks * col_blocks,
        }
    }

    /// Join `L ⊗ R` into the closure over the dirty rectangle; returns the
    /// number of probed blocks in which at least one entry changed.
    fn sweep(&mut self, f: &Frontier<S>) -> u64 {
        let d = &mut self.closed;
        let mut repropagated = 0u64;
        for rows in f.rows_by_block.iter().filter(|b| !b.is_empty()) {
            for cols in f.cols_by_block.iter().filter(|b| !b.is_empty()) {
                let mut changed = false;
                for &i in rows {
                    for &j in cols {
                        let joined = d[(i, j)].add(f.l[i].mul(f.r[j]));
                        if joined != d[(i, j)] {
                            d[(i, j)] = joined;
                            changed = true;
                        }
                    }
                }
                if changed {
                    repropagated += 1;
                }
            }
        }
        repropagated
    }
}

/// Assign every update of `rest` into `adj`, in order.
fn write_updates<S: Copy>(adj: &mut Matrix<S>, rest: &[EdgeUpdate<S>]) {
    let n = adj.rows();
    for up in rest {
        let (u, v) = (up.from, up.to);
        assert!(u < n && v < n, "edge ({u}, {v}) out of bounds for n = {n}");
        adj[(u, v)] = up.weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_core::semiring::{BoolSemiring, Bottleneck, MinPlus, Semiring};
    use paco_core::workload::{random_adjacency, random_digraph};
    use paco_graph::kernel::fw_reference;

    fn assert_in_sync<S: IdempotentSemiring>(state: &ClosedState<S>) {
        assert_eq!(state.closed(), &fw_reference(state.adjacency()));
    }

    #[test]
    fn improving_single_edge_is_incremental_and_exact() {
        let adj = random_digraph(37, 0.15, 60, 7); // non-power-of-two side
        let mut state = ClosedState::close(adj, 8);
        let stats = state.apply_batch(&[EdgeUpdate::new(3, 30, MinPlus(1.0))], 8, 100, 8);
        assert_in_sync(&state);
        assert_eq!(
            (stats.incremental, stats.full, stats.full_fallbacks),
            (1, 0, 0)
        );
        assert!(stats.blocks_probed <= stats.blocks_total);
        assert!(stats.blocks_repropagated <= stats.blocks_probed);
        // Weight-1 edge into a digraph with weights in 1..=60 must shorten
        // something, so the sweep did real work.
        assert!(stats.blocks_repropagated >= 1);
    }

    #[test]
    fn worsening_update_takes_the_full_fallback() {
        let adj = random_digraph(24, 0.3, 20, 9);
        let mut state = ClosedState::close(adj, 8);
        // Make (0, 1) excellent, then retract it: the retraction cannot be
        // expressed as a join and must re-close.
        state.apply_batch(&[EdgeUpdate::new(0, 1, MinPlus(1.0))], 8, 100, 8);
        let stats = state.apply_batch(&[EdgeUpdate::new(0, 1, MinPlus(500.0))], 8, 100, 8);
        assert_in_sync(&state);
        assert_eq!(
            (stats.incremental, stats.full, stats.full_fallbacks),
            (0, 1, 1)
        );
    }

    #[test]
    fn fallback_percent_zero_always_recloses_and_stays_exact() {
        let adj = random_adjacency(19, 0.1, 3);
        let mut state = ClosedState::close(adj, 4);
        let batch = [
            EdgeUpdate::new(2, 17, BoolSemiring(true)),
            EdgeUpdate::new(17, 5, BoolSemiring(true)),
        ];
        let stats = state.apply_batch(&batch, 4, 0, 4);
        assert_in_sync(&state);
        // At 0% any update with a non-empty frontier re-closes in bulk;
        // updates whose frontier turns out empty still count as incremental.
        assert!(stats.full_fallbacks <= 1);
        assert_eq!(stats.incremental + stats.full, 2);
        assert_eq!(stats.blocks_repropagated, 0);
    }

    #[test]
    fn mixed_batch_with_retraction_matches_scratch_closure() {
        let adj = random_digraph(33, 0.2, 40, 11);
        let mut state = ClosedState::close(adj.clone(), 8);
        let batch = [
            EdgeUpdate::new(1, 20, MinPlus(2.0)),
            EdgeUpdate::new(20, 32, MinPlus(1.0)),
            EdgeUpdate::new(1, 20, MinPlus::zero()), // delete it again
            EdgeUpdate::new(5, 6, MinPlus(3.0)),
        ];
        let stats = state.apply_batch(&batch, 8, 100, 8);
        assert_in_sync(&state);
        assert_eq!(stats.updates, 4);
        assert_eq!(stats.incremental + stats.full, 4);
        assert_eq!(stats.full_fallbacks, 1); // the deletion forces one re-closure
    }

    #[test]
    fn bottleneck_updates_stay_exact() {
        let n = 21;
        let adj: Matrix<Bottleneck> = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                Bottleneck::one()
            } else if (i * 7 + j * 3) % 5 == 0 {
                Bottleneck(((i + 2 * j) % 9) as f64)
            } else {
                Bottleneck::zero()
            }
        });
        let mut state = ClosedState::close(adj, 4);
        let stats = state.apply_batch(&[EdgeUpdate::new(0, 13, Bottleneck(100.0))], 4, 100, 4);
        assert_in_sync(&state);
        assert_eq!(stats.incremental, 1);
    }

    fn finite_edge(state: &ClosedState<MinPlus>) -> (usize, usize) {
        let n = state.n();
        (0..n * n)
            .map(|c| (c / n, c % n))
            .find(|&(u, v)| u != v && state.adjacency()[(u, v)].0.is_finite())
            .expect("a finite edge")
    }

    #[test]
    fn reclosing_outside_matches_apply_batch_after_a_noop_prefix() {
        let adj = random_digraph(29, 0.2, 30, 17);
        let state = ClosedState::close(adj, 8);
        let noop = EdgeUpdate::new(3, 4, state.adjacency()[(3, 4)]);
        let (u, v) = finite_edge(&state);
        let worse = EdgeUpdate::new(u, v, MinPlus(state.adjacency()[(u, v)].0 + 5.0));
        let batch = [noop, worse, EdgeUpdate::new(7, 20, MinPlus(1.0))];
        assert_eq!(state.reclose_start(&batch), Some(1));

        let mut inline = state.clone();
        let expect = inline.apply_batch(&batch, 8, 100, 8);
        let mut outside = state.clone();
        let closed = fw_seq(&outside.reclose_input(&batch[1..]), 8);
        assert!(outside.commit(state.version(), &batch[1..], closed));
        assert_eq!(outside.reclose_stats(batch.len(), 1, 8), expect);
        assert_eq!(outside.adjacency(), inline.adjacency());
        assert_eq!(outside.closed(), inline.closed());
        assert_in_sync(&outside);
    }

    #[test]
    fn a_commit_after_another_batch_changes_nothing() {
        let adj = random_digraph(20, 0.25, 20, 19);
        let mut state = ClosedState::close(adj, 8);
        let version = state.version();
        let closed = fw_seq(&state.reclose_input(&[]), 8);
        state.apply_batch(&[EdgeUpdate::new(2, 9, MinPlus(1.0))], 8, 100, 8);
        let before = state.clone();
        assert!(!state.commit(version, &[], closed));
        assert_eq!(state.version(), before.version());
        assert_eq!(state.adjacency(), before.adjacency());
        assert_eq!(state.closed(), before.closed());
    }

    #[test]
    fn only_an_ineligible_first_effective_update_recloses() {
        let adj = random_digraph(16, 0.3, 10, 23);
        let state = ClosedState::close(adj, 8);
        let (u, v) = finite_edge(&state);
        let same = EdgeUpdate::new(u, v, state.adjacency()[(u, v)]);
        let deletion = EdgeUpdate::new(u, v, MinPlus::zero());
        let improving = EdgeUpdate::new(5, 6, MinPlus(0.5));
        assert_eq!(state.reclose_start(&[]), None);
        assert_eq!(state.reclose_start(&[same, same]), None);
        assert_eq!(state.reclose_start(&[improving, deletion]), None);
        assert_eq!(state.reclose_start(&[same, deletion, improving]), Some(1));
        // Out-of-bounds edges stay on the step path, where the batch panics.
        assert_eq!(
            state.reclose_start(&[EdgeUpdate::new(16, 0, MinPlus(1.0))]),
            None
        );
        assert_eq!(
            state.reclose_start(&[deletion, EdgeUpdate::new(0, 99, MinPlus(1.0))]),
            None
        );
    }

    #[test]
    fn noop_and_empty_batches_cost_nothing() {
        let adj = random_digraph(16, 0.2, 10, 13);
        let mut state = ClosedState::close(adj, 8);
        let before = state.closed().clone();
        let weight = state.adjacency()[(4, 9)];
        let stats = state.apply_batch(&[EdgeUpdate::new(4, 9, weight)], 8, 100, 8);
        assert_eq!(state.closed(), &before);
        assert_eq!((stats.incremental, stats.blocks_probed), (1, 0));
        let empty = state.apply_batch(&[], 8, 100, 8);
        assert_eq!(empty, UpdateStats::default());
    }
}
