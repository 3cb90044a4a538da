//! Sequential LCS kernels (Lemma 1).
//!
//! The PACO, PA and PO algorithms all delegate the actual cell computation to
//! the same sequential kernel — the paper's experimental methodology requires
//! every competitor to call identical leaf code so that only the partitioning
//! differs.  The kernel computes a rectangular *block* of the LCS dynamic
//! programming table from the recurrence (1):
//!
//! ```text
//! X[i][j] = 0                                  if i = 0 or j = 0
//!         = X[i-1][j-1] + 1                    if a[i-1] == b[j-1]
//!         = max(X[i][j-1], X[i-1][j])          otherwise
//! ```
//!
//! [`co_block`] evaluates a block with the cache-oblivious 2-way
//! divide-and-conquer of Chowdhury & Ramachandran (recursing on the longer
//! dimension until a small base case, then sweeping row-major), which incurs
//! `O(b_r·b_c/(LZ) + (b_r+b_c)/L)` misses per block.  The kernels are generic
//! over [`Tracker`] so the exact same code path can be replayed through the
//! ideal distributed cache simulator.
//!
//! This reproduction stores the full `(n+1)×(m+1)` table (the paper's CO-LCS
//! computes only the length and uses linear space; keeping the table makes the
//! partitioning experiments and the correctness tests much more direct and does
//! not change any of the compared quantities, since every variant pays for the
//! same table).

use paco_cache_sim::layout::{AddressSpace, Layout1D, Layout2D};
use paco_cache_sim::Tracker;
use paco_core::metrics::sched::kernel as kernel_metrics;
use paco_core::shared::SharedGrid;
use std::ops::Range;

/// Default base-case side of the cache-oblivious recursion (an alias of the
/// hoisted workspace default in [`paco_core::tuning`]).
pub const DEFAULT_BASE: usize = paco_core::tuning::LCS_BASE;

/// Simulated-address-space placement of the LCS working set (table + both
/// input sequences); used only when replaying a kernel through the cache
/// simulator.
#[derive(Debug, Clone, Copy)]
pub struct LcsAddr {
    /// The `(n+1) × (m+1)` DP table.
    pub table: Layout2D,
    /// First input sequence (length n).
    pub a: Layout1D,
    /// Second input sequence (length m).
    pub b: Layout1D,
}

impl LcsAddr {
    /// Lay out the working set for sequences of length `n` and `m`.
    pub fn new(n: usize, m: usize) -> Self {
        let mut space = AddressSpace::new();
        let table = space.alloc_2d(n + 1, m + 1);
        let a = space.alloc_1d(n.max(1));
        let b = space.alloc_1d(m.max(1));
        Self { table, a, b }
    }
}

/// The LCS dynamic-programming table: `(n+1) × (m+1)` cells with the zero
/// boundary in row 0 and column 0.
pub struct LcsTable {
    grid: SharedGrid<u32>,
    n: usize,
    m: usize,
}

impl LcsTable {
    /// An all-zero table for sequences of length `n` and `m`.
    pub fn new(n: usize, m: usize) -> Self {
        Self {
            grid: SharedGrid::new(n + 1, m + 1, 0),
            n,
            m,
        }
    }

    /// A table over caller-provided storage (e.g. a pooled buffer); `v` must
    /// hold `(n + 1) * (m + 1)` zeros.
    pub fn with_storage(n: usize, m: usize, v: Vec<u32>) -> Self {
        debug_assert!(v.iter().all(|&x| x == 0), "table storage must be zeroed");
        Self {
            grid: SharedGrid::from_vec(n + 1, m + 1, v),
            n,
            m,
        }
    }

    /// Consume the table, returning its row-major storage (the inverse of
    /// [`LcsTable::with_storage`]) so it can go back to a pool.
    pub fn into_storage(self) -> Vec<u32> {
        self.grid.into_vec()
    }

    /// Length of the first sequence.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Length of the second sequence.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The shared cell grid.
    pub fn grid(&self) -> &SharedGrid<u32> {
        &self.grid
    }

    /// The LCS length once the table has been filled.
    pub fn lcs_length(&self) -> u32 {
        self.grid.get(self.n, self.m)
    }
}

/// Reference implementation: the classic two-row iterative DP.
/// `O(n·m)` time, `O(m)` space.  Ground truth for every other variant.
pub fn lcs_reference(a: &[u32], b: &[u32]) -> u32 {
    let m = b.len();
    let mut prev = vec![0u32; m + 1];
    let mut cur = vec![0u32; m + 1];
    for &ai in a {
        for (j, &bj) in b.iter().enumerate() {
            cur[j + 1] = if ai == bj {
                prev[j] + 1
            } else {
                cur[j].max(prev[j + 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Fill the table cells in `rows × cols` (1-based table coordinates) with a
/// plain row-major sweep.  Requires row `rows.start - 1` and column
/// `cols.start - 1` to be final.
///
/// When nothing observes the per-cell accesses (`T::TRACKING` is false, i.e.
/// the production `NullTracker`), the sweep runs `base_block_fast` — a
/// row-sliced, branch-free form of the same recurrence with bit-identical
/// results (see its docs for the argument).
#[inline]
pub fn base_block<T: Tracker>(
    table: &LcsTable,
    a: &[u32],
    b: &[u32],
    rows: Range<usize>,
    cols: Range<usize>,
    tracker: &mut T,
    addr: &LcsAddr,
) {
    if !T::TRACKING && !rows.is_empty() && !cols.is_empty() {
        base_block_fast(table, a, b, rows, cols);
        kernel_metrics::record_lcs_leaf(true);
        return;
    }
    let grid = &table.grid;
    for i in rows {
        let ai = a[i - 1];
        tracker.read(addr.a.addr(i - 1));
        for j in cols.clone() {
            tracker.read(addr.b.addr(j - 1));
            let val = if ai == b[j - 1] {
                tracker.read(addr.table.addr(i - 1, j - 1));
                grid.get(i - 1, j - 1) + 1
            } else {
                tracker.read(addr.table.addr(i - 1, j));
                tracker.read(addr.table.addr(i, j - 1));
                grid.get(i - 1, j).max(grid.get(i, j - 1))
            };
            grid.set(i, j, val);
            tracker.write(addr.table.addr(i, j));
        }
    }
    kernel_metrics::record_lcs_leaf(false);
}

/// Branch-free row-sliced form of the [`base_block`] sweep.
///
/// Per cell it computes `max(up, left, diag + [a_i == b_j])` over row slices
/// instead of branching on the match.  This is *bit-identical* to the branchy
/// recurrence: adjacent LCS table cells differ by at most 1, so
/// `diag <= up <= diag + 1` and `diag <= left <= diag + 1`; on a match the
/// three-way max is exactly `diag + 1`, and on a mismatch the `diag` term can
/// never exceed `max(up, left)`.  (`tests/kernel_agreement.rs` cross-checks
/// against the tracked branchy sweep.)
fn base_block_fast(table: &LcsTable, a: &[u32], b: &[u32], rows: Range<usize>, cols: Range<usize>) {
    let grid = &table.grid;
    let len = cols.len();
    let bs = &b[cols.start - 1..cols.end - 1];
    for i in rows {
        let ai = a[i - 1];
        // SAFETY: rows of the grid are contiguous and both slices are in
        // bounds (`cols.end <= m + 1`); `prev` covers row `i - 1`, which is
        // final by the kernel's contract (the boundary row for
        // `i == rows.start`, the row this loop just wrote otherwise), while
        // `cur` covers the disjoint row `i` this task owns exclusively under
        // the wavefront discipline — the boundary cell `(i, cols.start - 1)`
        // is read into `left` and deliberately left outside the mut slice.
        let prev = unsafe {
            std::slice::from_raw_parts(grid.cell_ptr(i - 1, cols.start - 1).cast_const(), len + 1)
        };
        let cur = unsafe { std::slice::from_raw_parts_mut(grid.cell_ptr(i, cols.start), len) };
        // Two passes so the expensive part vectorizes.  Pass 1 has no
        // loop-carried dependency: `cur[j] = max(up, diag + [a_i == b_j])`
        // is 8 lanes of compare/add/max per AVX2 vector.  Pass 2 folds in
        // the `left` neighbour as a running prefix max — the serial chain —
        // but is down to one `max` and one store per cell.  The composition
        // computes exactly `max(up, left, diag + eq)` cell by cell, because
        // the prefix max over pass-1 values equals the branchy recurrence's
        // `left` (max is associative and every cell's final value is the
        // prefix max of its own pass-1 value and all pass-1 values to its
        // left, seeded with the boundary cell).
        for (jj, (cj, &bj)) in cur.iter_mut().zip(bs).enumerate() {
            *cj = prev[jj + 1].max(prev[jj] + u32::from(ai == bj));
        }
        let mut left = grid.get(i, cols.start - 1);
        for cj in cur.iter_mut() {
            left = left.max(*cj);
            *cj = left;
        }
    }
}

/// Cache-oblivious evaluation of the block `rows × cols` (1-based table
/// coordinates): recursively halve the longer dimension until both sides are at
/// most `base`, then sweep.  The first half of a split is evaluated before the
/// second, which keeps every intra-block dependency satisfied.
#[allow(clippy::too_many_arguments)] // mirrors the paper's COP-LCS signature
pub fn co_block<T: Tracker>(
    table: &LcsTable,
    a: &[u32],
    b: &[u32],
    rows: Range<usize>,
    cols: Range<usize>,
    base: usize,
    tracker: &mut T,
    addr: &LcsAddr,
) {
    let nr = rows.len();
    let nc = cols.len();
    if nr == 0 || nc == 0 {
        return;
    }
    if nr <= base && nc <= base {
        base_block(table, a, b, rows, cols, tracker, addr);
        return;
    }
    if nr >= nc {
        let mid = rows.start + nr / 2;
        co_block(
            table,
            a,
            b,
            rows.start..mid,
            cols.clone(),
            base,
            tracker,
            addr,
        );
        co_block(table, a, b, mid..rows.end, cols, base, tracker, addr);
    } else {
        let mid = cols.start + nc / 2;
        co_block(
            table,
            a,
            b,
            rows.clone(),
            cols.start..mid,
            base,
            tracker,
            addr,
        );
        co_block(table, a, b, rows, mid..cols.end, base, tracker, addr);
    }
}

/// Sequential cache-oblivious LCS (the paper's `CO-LCS`, Lemma 1): evaluates
/// the whole table with [`co_block`] and returns the LCS length.
pub fn lcs_sequential_co(a: &[u32], b: &[u32], base: usize) -> u32 {
    let table = LcsTable::new(a.len(), b.len());
    let addr = LcsAddr::new(a.len(), b.len());
    co_block(
        &table,
        a,
        b,
        1..a.len() + 1,
        1..b.len() + 1,
        base,
        &mut paco_cache_sim::NullTracker,
        &addr,
    );
    table.lcs_length()
}

/// Sequential cache-oblivious LCS replayed through the ideal cache simulator:
/// returns the LCS length and the simulator holding `Q₁` (all accesses are
/// charged to processor 0).
pub fn lcs_sequential_traced(
    a: &[u32],
    b: &[u32],
    base: usize,
    params: paco_core::machine::CacheParams,
) -> (u32, paco_cache_sim::DistCacheSim) {
    let table = LcsTable::new(a.len(), b.len());
    let addr = LcsAddr::new(a.len(), b.len());
    let mut tracker = paco_cache_sim::SimTracker::new(1, params);
    co_block(
        &table,
        a,
        b,
        1..a.len() + 1,
        1..b.len() + 1,
        base,
        &mut tracker,
        &addr,
    );
    (table.lcs_length(), tracker.into_sim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_cache_sim::NullTracker;
    use paco_core::machine::CacheParams;
    use paco_core::workload::{random_sequence, related_sequences};

    #[test]
    fn reference_on_known_instances() {
        // "ABCBDAB" vs "BDCABA" -> LCS "BCBA" of length 4 (CLRS example).
        let a: Vec<u32> = "ABCBDAB".bytes().map(u32::from).collect();
        let b: Vec<u32> = "BDCABA".bytes().map(u32::from).collect();
        assert_eq!(lcs_reference(&a, &b), 4);
        assert_eq!(lcs_reference(&[], &[1, 2, 3]), 0);
        assert_eq!(lcs_reference(&[1, 2, 3], &[]), 0);
        assert_eq!(lcs_reference(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(lcs_reference(&[1, 2, 3], &[4, 5, 6]), 0);
    }

    #[test]
    fn co_kernel_matches_reference_on_random_inputs() {
        for &(n, m, base) in &[
            (1usize, 1usize, 4usize),
            (7, 13, 4),
            (64, 64, 16),
            (100, 57, 8),
            (129, 200, 32),
        ] {
            let a = random_sequence(n, 4, 100 + n as u64);
            let b = random_sequence(m, 4, 200 + m as u64);
            assert_eq!(
                lcs_sequential_co(&a, &b, base),
                lcs_reference(&a, &b),
                "n={n} m={m} base={base}"
            );
        }
    }

    #[test]
    fn co_kernel_on_related_sequences() {
        let (a, b) = related_sequences(300, 4, 0.2, 9);
        assert_eq!(lcs_sequential_co(&a, &b, 32), lcs_reference(&a, &b));
    }

    #[test]
    fn base_block_fills_partial_regions() {
        // Fill the table in two block steps and check against the monolithic run.
        let a = random_sequence(40, 4, 1);
        let b = random_sequence(40, 4, 2);
        let addr = LcsAddr::new(40, 40);
        let t1 = LcsTable::new(40, 40);
        base_block(&t1, &a, &b, 1..41, 1..21, &mut NullTracker, &addr);
        base_block(&t1, &a, &b, 1..41, 21..41, &mut NullTracker, &addr);
        assert_eq!(t1.lcs_length(), lcs_reference(&a, &b));
    }

    #[test]
    fn traced_kernel_matches_and_counts_misses() {
        let a = random_sequence(128, 4, 5);
        let b = random_sequence(128, 4, 6);
        let params = CacheParams::new(512, 8);
        let (len, sim) = lcs_sequential_traced(&a, &b, 16, params);
        assert_eq!(len, lcs_reference(&a, &b));
        let q1 = sim.q_sum();
        assert!(q1 > 0);
        // The table alone is 129*129 ≈ 16.6k words = ~2080 lines; every line must
        // be written at least once, and the cache holds only 64 lines, so the
        // miss count must be at least the compulsory misses.
        assert!(q1 >= 2000, "q1 = {q1}");
        // And it must be far below the naive one-miss-per-access bound.
        assert!(q1 < sim.accesses().total() / 2, "q1 = {q1}");
    }

    #[test]
    fn co_recursion_is_cache_friendlier_than_row_major_when_rows_are_long() {
        // For a tall-and-wide table with a tiny cache, the cache-oblivious
        // recursion should not be (much) worse than the straight row-major sweep
        // and is typically better; check it is within a small factor.
        let n = 256;
        let a = random_sequence(n, 4, 11);
        let b = random_sequence(n, 4, 12);
        let params = CacheParams::new(256, 8);

        let (_, sim_co) = lcs_sequential_traced(&a, &b, 16, params);

        // Row-major sweep = a single huge "base block".
        let table = LcsTable::new(n, n);
        let addr = LcsAddr::new(n, n);
        let mut tracker = paco_cache_sim::SimTracker::new(1, params);
        base_block(&table, &a, &b, 1..n + 1, 1..n + 1, &mut tracker, &addr);
        let sim_row = tracker.into_sim();

        assert_eq!(table.lcs_length(), lcs_reference(&a, &b));
        assert!(
            (sim_co.q_sum() as f64) < 1.5 * sim_row.q_sum() as f64,
            "CO {} vs row-major {}",
            sim_co.q_sum(),
            sim_row.q_sum()
        );
    }
}
