//! Processor-oblivious Floyd–Warshall baseline.
//!
//! The same A/B/C/D recursion as [`crate::seq`], with the independent halves
//! of each phase handed to a randomized work stealer (`rayon::join`, standing
//! in for Cilk).  The algorithm knows neither the processor count nor the
//! cache parameters — exactly the "PO" competitor class of the paper — and
//! bottoms out in the identical sequential [`relax`](crate::kernel::relax)
//! leaves as the other variants.

use crate::kernel::{FwAddr, FwTable};
use crate::seq::{a_co, b_co, c_co, d_co, halves};
use paco_cache_sim::NullTracker;
use paco_core::matrix::Matrix;
use paco_core::semiring::IdempotentSemiring;
use std::ops::Range;

/// Processor-oblivious parallel Floyd–Warshall: rayon-scheduled A/B/C/D
/// recursion with base-case side `base`.  Returns the closed matrix.
pub fn fw_po<S: IdempotentSemiring>(adj: &Matrix<S>, base: usize) -> Matrix<S> {
    assert!(base >= 1);
    let table = FwTable::from_matrix(adj);
    let addr = FwAddr::new(table.n());
    a_po(&table, 0..table.n(), base, &addr);
    table.into_matrix()
}

fn a_po<S: IdempotentSemiring>(table: &FwTable<S>, r: Range<usize>, base: usize, addr: &FwAddr) {
    if r.is_empty() {
        return;
    }
    if r.len() <= base {
        a_co(table, r, base, &mut NullTracker, addr);
        return;
    }
    let (r1, r2) = halves(&r);
    // Phase 1: via ∈ r1.  B and C write disjoint off-diagonal blocks.
    a_po(table, r1.clone(), base, addr);
    rayon::join(
        || b_po(table, r1.clone(), r2.clone(), base, addr),
        || c_po(table, r1.clone(), r2.clone(), base, addr),
    );
    d_po(table, r2.clone(), r2.clone(), r1.clone(), base, addr);
    // Phase 2: via ∈ r2.
    a_po(table, r2.clone(), base, addr);
    rayon::join(
        || b_po(table, r2.clone(), r1.clone(), base, addr),
        || c_po(table, r2.clone(), r1.clone(), base, addr),
    );
    d_po(table, r1.clone(), r1.clone(), r2, base, addr);
}

fn b_po<S: IdempotentSemiring>(
    table: &FwTable<S>,
    v: Range<usize>,
    cols: Range<usize>,
    base: usize,
    addr: &FwAddr,
) {
    if v.is_empty() || cols.is_empty() {
        return;
    }
    if v.len() <= base && cols.len() <= base {
        b_co(table, v, cols, base, &mut NullTracker, addr);
        return;
    }
    if v.len() <= base {
        let (c1, c2) = halves(&cols);
        rayon::join(
            || b_po(table, v.clone(), c1, base, addr),
            || b_po(table, v.clone(), c2, base, addr),
        );
        return;
    }
    let (v1, v2) = halves(&v);
    if cols.len() <= base {
        b_po(table, v1.clone(), cols.clone(), base, addr);
        d_po(table, v2.clone(), cols.clone(), v1.clone(), base, addr);
        b_po(table, v2.clone(), cols.clone(), base, addr);
        d_po(table, v1, cols, v2, base, addr);
        return;
    }
    let (c1, c2) = halves(&cols);
    // Phase 1: via ∈ v1.
    rayon::join(
        || b_po(table, v1.clone(), c1.clone(), base, addr),
        || b_po(table, v1.clone(), c2.clone(), base, addr),
    );
    rayon::join(
        || d_po(table, v2.clone(), c1.clone(), v1.clone(), base, addr),
        || d_po(table, v2.clone(), c2.clone(), v1.clone(), base, addr),
    );
    // Phase 2: via ∈ v2.
    rayon::join(
        || b_po(table, v2.clone(), c1.clone(), base, addr),
        || b_po(table, v2.clone(), c2.clone(), base, addr),
    );
    rayon::join(
        || d_po(table, v1.clone(), c1.clone(), v2.clone(), base, addr),
        || d_po(table, v1.clone(), c2.clone(), v2.clone(), base, addr),
    );
}

fn c_po<S: IdempotentSemiring>(
    table: &FwTable<S>,
    v: Range<usize>,
    rows: Range<usize>,
    base: usize,
    addr: &FwAddr,
) {
    if v.is_empty() || rows.is_empty() {
        return;
    }
    if v.len() <= base && rows.len() <= base {
        c_co(table, v, rows, base, &mut NullTracker, addr);
        return;
    }
    if v.len() <= base {
        let (r1, r2) = halves(&rows);
        rayon::join(
            || c_po(table, v.clone(), r1, base, addr),
            || c_po(table, v.clone(), r2, base, addr),
        );
        return;
    }
    let (v1, v2) = halves(&v);
    if rows.len() <= base {
        c_po(table, v1.clone(), rows.clone(), base, addr);
        d_po(table, rows.clone(), v2.clone(), v1.clone(), base, addr);
        c_po(table, v2.clone(), rows.clone(), base, addr);
        d_po(table, rows, v1, v2, base, addr);
        return;
    }
    let (r1, r2) = halves(&rows);
    // Phase 1: via ∈ v1.
    rayon::join(
        || c_po(table, v1.clone(), r1.clone(), base, addr),
        || c_po(table, v1.clone(), r2.clone(), base, addr),
    );
    rayon::join(
        || d_po(table, r1.clone(), v2.clone(), v1.clone(), base, addr),
        || d_po(table, r2.clone(), v2.clone(), v1.clone(), base, addr),
    );
    // Phase 2: via ∈ v2.
    rayon::join(
        || c_po(table, v2.clone(), r1.clone(), base, addr),
        || c_po(table, v2.clone(), r2.clone(), base, addr),
    );
    rayon::join(
        || d_po(table, r1, v1.clone(), v2.clone(), base, addr),
        || d_po(table, r2, v1.clone(), v2.clone(), base, addr),
    );
}

fn d_po<S: IdempotentSemiring>(
    table: &FwTable<S>,
    rows: Range<usize>,
    cols: Range<usize>,
    via: Range<usize>,
    base: usize,
    addr: &FwAddr,
) {
    if rows.is_empty() || cols.is_empty() || via.is_empty() {
        return;
    }
    if rows.len() <= base && cols.len() <= base && via.len() <= base {
        d_co(table, rows, cols, via, base, &mut NullTracker, addr);
        return;
    }
    if rows.len() >= cols.len() && rows.len() >= via.len() {
        let (r1, r2) = halves(&rows);
        rayon::join(
            || d_po(table, r1, cols.clone(), via.clone(), base, addr),
            || d_po(table, r2, cols.clone(), via.clone(), base, addr),
        );
    } else if cols.len() >= via.len() {
        let (c1, c2) = halves(&cols);
        rayon::join(
            || d_po(table, rows.clone(), c1, via.clone(), base, addr),
            || d_po(table, rows.clone(), c2, via.clone(), base, addr),
        );
    } else {
        // A via cut accumulates into the same cells: the halves stay ordered.
        let (v1, v2) = halves(&via);
        d_po(table, rows.clone(), cols.clone(), v1, base, addr);
        d_po(table, rows, cols, v2, base, addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::fw_reference;
    use paco_core::workload::{random_adjacency, random_digraph};

    #[test]
    fn matches_reference_on_random_digraphs() {
        for &(n, base) in &[(1usize, 4usize), (31, 4), (64, 16), (100, 8), (130, 32)] {
            let adj = random_digraph(n, 0.2, 80, 2 * n as u64);
            assert_eq!(fw_po(&adj, base), fw_reference(&adj), "n={n} base={base}");
        }
    }

    #[test]
    fn matches_reference_on_bool_adjacency() {
        for &n in &[17usize, 65, 96] {
            let adj = random_adjacency(n, 0.08, n as u64);
            assert_eq!(fw_po(&adj, 16), fw_reference(&adj), "n={n}");
        }
    }

    #[test]
    fn tiny_base_case_still_correct() {
        let adj = random_digraph(48, 0.3, 12, 77);
        assert_eq!(fw_po(&adj, 1), fw_reference(&adj));
    }
}
