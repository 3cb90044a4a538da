//! Sequential cache-oblivious Floyd–Warshall: the A/B/C/D recursion.
//!
//! The Gaussian-elimination-style divide-and-conquer of Chowdhury &
//! Ramachandran (the "GEP" recursion, also known from R-Kleene): split the
//! vertex range `r` into halves `r₁, r₂` and the matrix into the corresponding
//! quadrants `X₁₁, X₁₂, X₂₁, X₂₂`.  Closing first through the via-vertices
//! `r₁` and then through `r₂` yields four function roles, each with its own
//! recursion:
//!
//! ```text
//! A(r)           — self-closure of the diagonal block r × r (via = r)
//! B(v, cols)     — closure of the row-aligned block v × cols (via = v = its rows)
//! C(v, rows)     — closure of the column-aligned block rows × v (via = v = its cols)
//! D(rows, cols, v) — disjoint accumulate rows × cols ⊕= (rows × v) ⊗ (v × cols)
//! ```
//!
//! and the A recursion reads
//!
//! ```text
//! A(r):  A(r₁); B(r₁, r₂); C(r₁, r₂); D(r₂, r₂, r₁);
//!        A(r₂); B(r₂, r₁); C(r₂, r₁); D(r₁, r₁, r₂)
//! ```
//!
//! Every role bottoms out in the single generalized [`relax`] kernel, so the
//! sequential, PO and PACO variants execute identical leaf code — the paper's
//! methodology for fair comparisons.  The recursion incurs the classic
//! `O(n³/(L√Z))` cache misses without knowing `Z` or `L`.
//!
//! Within B, the column halves of a `v × cols` block are independent (each
//! column is relaxed only against the already-closed diagonal block `v × v`
//! and its own column), and dually for the row halves within C and the
//! row/column halves within D; those are exactly the forks the parallel
//! variants exploit.

use crate::kernel::{relax, FwAddr, FwTable};
use paco_cache_sim::{CacheParams, DistCacheSim, NullTracker, SimTracker, Tracker};
use paco_core::matrix::Matrix;
use paco_core::semiring::IdempotentSemiring;
use std::ops::Range;

/// Split a range at its midpoint.
#[inline]
pub(crate) fn halves(r: &Range<usize>) -> (Range<usize>, Range<usize>) {
    let mid = r.start + r.len() / 2;
    (r.start..mid, mid..r.end)
}

/// The A role: close the diagonal block `r × r` through its own via-vertices.
pub fn a_co<S: IdempotentSemiring, T: Tracker + ?Sized>(
    table: &FwTable<S>,
    r: Range<usize>,
    base: usize,
    tracker: &mut T,
    addr: &FwAddr,
) {
    debug_assert!(base >= 1);
    if r.is_empty() {
        return;
    }
    if r.len() <= base {
        relax(table, r.clone(), r.clone(), r, tracker, addr);
        return;
    }
    let (r1, r2) = halves(&r);
    // Phase 1: via ∈ r1.
    a_co(table, r1.clone(), base, tracker, addr);
    b_co(table, r1.clone(), r2.clone(), base, tracker, addr);
    c_co(table, r1.clone(), r2.clone(), base, tracker, addr);
    d_co(
        table,
        r2.clone(),
        r2.clone(),
        r1.clone(),
        base,
        tracker,
        addr,
    );
    // Phase 2: via ∈ r2.
    a_co(table, r2.clone(), base, tracker, addr);
    b_co(table, r2.clone(), r1.clone(), base, tracker, addr);
    c_co(table, r2.clone(), r1.clone(), base, tracker, addr);
    d_co(table, r1.clone(), r1.clone(), r2, base, tracker, addr);
}

/// The B role: close the row-aligned block `v × cols` (its rows are the
/// via-vertices `v`, whose diagonal block is already closed).
pub fn b_co<S: IdempotentSemiring, T: Tracker + ?Sized>(
    table: &FwTable<S>,
    v: Range<usize>,
    cols: Range<usize>,
    base: usize,
    tracker: &mut T,
    addr: &FwAddr,
) {
    if v.is_empty() || cols.is_empty() {
        return;
    }
    if v.len() <= base && cols.len() <= base {
        relax(table, v.clone(), cols, v, tracker, addr);
        return;
    }
    if v.len() <= base {
        // Only the columns are long: the halves are independent.
        let (c1, c2) = halves(&cols);
        b_co(table, v.clone(), c1, base, tracker, addr);
        b_co(table, v, c2, base, tracker, addr);
        return;
    }
    let (v1, v2) = halves(&v);
    if cols.len() <= base {
        // Only the via range is long: two sequential phases over the full cols.
        b_co(table, v1.clone(), cols.clone(), base, tracker, addr);
        d_co(
            table,
            v2.clone(),
            cols.clone(),
            v1.clone(),
            base,
            tracker,
            addr,
        );
        b_co(table, v2.clone(), cols.clone(), base, tracker, addr);
        d_co(table, v1, cols, v2, base, tracker, addr);
        return;
    }
    let (c1, c2) = halves(&cols);
    // Phase 1: via ∈ v1 — close the top halves, push into the bottom halves.
    b_co(table, v1.clone(), c1.clone(), base, tracker, addr);
    b_co(table, v1.clone(), c2.clone(), base, tracker, addr);
    d_co(
        table,
        v2.clone(),
        c1.clone(),
        v1.clone(),
        base,
        tracker,
        addr,
    );
    d_co(
        table,
        v2.clone(),
        c2.clone(),
        v1.clone(),
        base,
        tracker,
        addr,
    );
    // Phase 2: via ∈ v2.
    b_co(table, v2.clone(), c1.clone(), base, tracker, addr);
    b_co(table, v2.clone(), c2.clone(), base, tracker, addr);
    d_co(table, v1.clone(), c1, v2.clone(), base, tracker, addr);
    d_co(table, v1, c2, v2, base, tracker, addr);
}

/// The C role: close the column-aligned block `rows × v` (its columns are the
/// via-vertices `v`, whose diagonal block is already closed).
pub fn c_co<S: IdempotentSemiring, T: Tracker + ?Sized>(
    table: &FwTable<S>,
    v: Range<usize>,
    rows: Range<usize>,
    base: usize,
    tracker: &mut T,
    addr: &FwAddr,
) {
    if v.is_empty() || rows.is_empty() {
        return;
    }
    if v.len() <= base && rows.len() <= base {
        relax(table, rows, v.clone(), v, tracker, addr);
        return;
    }
    if v.len() <= base {
        // Only the rows are long: the halves are independent.
        let (r1, r2) = halves(&rows);
        c_co(table, v.clone(), r1, base, tracker, addr);
        c_co(table, v, r2, base, tracker, addr);
        return;
    }
    let (v1, v2) = halves(&v);
    if rows.len() <= base {
        c_co(table, v1.clone(), rows.clone(), base, tracker, addr);
        d_co(
            table,
            rows.clone(),
            v2.clone(),
            v1.clone(),
            base,
            tracker,
            addr,
        );
        c_co(table, v2.clone(), rows.clone(), base, tracker, addr);
        d_co(table, rows, v1, v2, base, tracker, addr);
        return;
    }
    let (r1, r2) = halves(&rows);
    // Phase 1: via ∈ v1 — close the left halves, push into the right halves.
    c_co(table, v1.clone(), r1.clone(), base, tracker, addr);
    c_co(table, v1.clone(), r2.clone(), base, tracker, addr);
    d_co(
        table,
        r1.clone(),
        v2.clone(),
        v1.clone(),
        base,
        tracker,
        addr,
    );
    d_co(
        table,
        r2.clone(),
        v2.clone(),
        v1.clone(),
        base,
        tracker,
        addr,
    );
    // Phase 2: via ∈ v2.
    c_co(table, v2.clone(), r1.clone(), base, tracker, addr);
    c_co(table, v2.clone(), r2.clone(), base, tracker, addr);
    d_co(table, r1, v1.clone(), v2.clone(), base, tracker, addr);
    d_co(table, r2, v1, v2, base, tracker, addr);
}

/// The D role: `rows × cols ⊕= (rows × via) ⊗ (via × cols)` where the three
/// blocks are pairwise disjoint — a semiring matmul-accumulate, recursed
/// cache-obliviously on the longest dimension.
pub fn d_co<S: IdempotentSemiring, T: Tracker + ?Sized>(
    table: &FwTable<S>,
    rows: Range<usize>,
    cols: Range<usize>,
    via: Range<usize>,
    base: usize,
    tracker: &mut T,
    addr: &FwAddr,
) {
    if rows.is_empty() || cols.is_empty() || via.is_empty() {
        return;
    }
    if rows.len() <= base && cols.len() <= base && via.len() <= base {
        relax(table, rows, cols, via, tracker, addr);
        return;
    }
    if rows.len() >= cols.len() && rows.len() >= via.len() {
        let (r1, r2) = halves(&rows);
        d_co(table, r1, cols.clone(), via.clone(), base, tracker, addr);
        d_co(table, r2, cols, via, base, tracker, addr);
    } else if cols.len() >= via.len() {
        let (c1, c2) = halves(&cols);
        d_co(table, rows.clone(), c1, via.clone(), base, tracker, addr);
        d_co(table, rows, c2, via, base, tracker, addr);
    } else {
        // A via cut accumulates into the same cells: the halves are ordered.
        let (v1, v2) = halves(&via);
        d_co(table, rows.clone(), cols.clone(), v1, base, tracker, addr);
        d_co(table, rows, cols, v2, base, tracker, addr);
    }
}

/// Sequential cache-oblivious Floyd–Warshall: the full A recursion over a
/// square semiring matrix.  Returns the closed matrix.
pub fn fw_seq<S: IdempotentSemiring>(adj: &Matrix<S>, base: usize) -> Matrix<S> {
    let table = FwTable::from_matrix(adj);
    let addr = FwAddr::new(table.n());
    a_co(&table, 0..table.n(), base, &mut NullTracker, &addr);
    table.into_matrix()
}

/// Sequential cache-oblivious Floyd–Warshall replayed through the ideal cache
/// simulator: returns the closed matrix and the simulator holding `Q₁` (all
/// accesses charged to processor 0).
pub fn fw_seq_traced<S: IdempotentSemiring>(
    adj: &Matrix<S>,
    base: usize,
    params: CacheParams,
) -> (Matrix<S>, DistCacheSim) {
    let table = FwTable::from_matrix(adj);
    let addr = FwAddr::new(table.n());
    let mut tracker = SimTracker::new(1, params);
    a_co(&table, 0..table.n(), base, &mut tracker, &addr);
    (table.to_matrix(), tracker.into_sim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::fw_reference;
    use paco_core::workload::{random_adjacency, random_digraph};

    #[test]
    fn matches_reference_across_sizes_and_bases() {
        for &(n, base) in &[
            (1usize, 1usize),
            (2, 1),
            (7, 2),
            (33, 4),
            (64, 16),
            (100, 8),
            (129, 32),
        ] {
            let adj = random_digraph(n, 0.2, 100, n as u64);
            assert_eq!(
                fw_seq(&adj, base),
                fw_reference(&adj),
                "min-plus n={n} base={base}"
            );
            let bool_adj = random_adjacency(n, 0.1, n as u64 + 1);
            assert_eq!(
                fw_seq(&bool_adj, base),
                fw_reference(&bool_adj),
                "bool n={n} base={base}"
            );
        }
    }

    #[test]
    fn base_larger_than_input_degenerates_to_one_relax() {
        let adj = random_digraph(40, 0.3, 10, 5);
        assert_eq!(fw_seq(&adj, 1024), fw_reference(&adj));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty: Matrix<paco_core::semiring::MinPlus> =
            Matrix::from_fn(0, 0, |_, _| unreachable!());
        assert_eq!(fw_seq(&empty, 4).rows(), 0);
        let single = random_digraph(1, 0.5, 3, 1);
        assert_eq!(fw_seq(&single, 4), fw_reference(&single));
    }

    #[test]
    fn traced_matches_and_counts_misses() {
        let n = 128;
        let adj = random_digraph(n, 0.2, 50, 11);
        let params = CacheParams::new(512, 8);
        let (closed, sim) = fw_seq_traced(&adj, 16, params);
        assert_eq!(closed, fw_reference(&adj));
        let q1 = sim.q_sum();
        assert!(q1 > 0);
        // The matrix is 128² = 16384 words = 2048 lines; every line is touched,
        // so at least the compulsory misses show up ...
        assert!(q1 >= 2048, "q1 = {q1}");
        // ... and far fewer than one miss per access.
        assert!(q1 < sim.accesses().total() / 4, "q1 = {q1}");
    }

    #[test]
    fn co_recursion_beats_the_naive_sweep_on_a_small_cache() {
        // The naive k-outer triple loop streams the whole matrix once per k;
        // the recursion re-uses blocks and must incur noticeably fewer misses.
        let n = 128;
        let adj = random_digraph(n, 0.25, 30, 13);
        let params = CacheParams::new(256, 8); // 32 lines: far smaller than the matrix
        let (_, sim_co) = fw_seq_traced(&adj, 8, params);

        let table = FwTable::from_matrix(&adj);
        let fw_addr = FwAddr::new(n);
        let mut tracker = SimTracker::new(1, params);
        relax(&table, 0..n, 0..n, 0..n, &mut tracker, &fw_addr);
        let sim_naive = tracker.into_sim();
        assert_eq!(table.to_matrix(), fw_reference(&adj));

        assert!(
            (sim_co.q_sum() as f64) < 0.7 * sim_naive.q_sum() as f64,
            "CO {} vs naive {}",
            sim_co.q_sum(),
            sim_naive.q_sum()
        );
    }
}
