//! Sequential Floyd–Warshall kernels over a closed semiring.
//!
//! All-pairs path closure is the canonical "Gaussian-elimination paradigm"
//! problem: given an `n × n` matrix `D` over a closed semiring, compute
//!
//! ```text
//! D[i][j] ← D[i][j] ⊕ (D[i][k] ⊗ D[k][j])      for k, then i, then j
//! ```
//!
//! Over [`MinPlus`](paco_core::semiring::MinPlus) this is all-pairs shortest
//! paths; over [`BoolSemiring`](paco_core::semiring::BoolSemiring) it is
//! transitive closure.  The update is *in-place*: the same matrix appears on
//! both sides, which is what distinguishes Floyd–Warshall from the semiring
//! matrix multiplication of `paco-matmul` and gives the recursion its
//! A/B/C/D structure (see [`crate::seq`]).
//!
//! Every divide-and-conquer variant in this crate — sequential CO, PO and
//! PACO — bottoms out in the single generalized kernel [`relax`]: a
//! `k`-outermost sweep restricted to a `rows × cols` block with via-vertices
//! `via`.  Because the whole computation lives in one table, the four roles of
//! the recursion (diagonal self-closure, row-aligned, column-aligned and fully
//! disjoint updates) are all instances of `relax` with different index ranges.
//! The kernel is generic over [`Tracker`] so the identical code path can be
//! replayed through the ideal distributed cache simulator.

use paco_cache_sim::layout::{AddressSpace, Layout2D};
use paco_cache_sim::Tracker;
use paco_core::matrix::{MatMut, MatRef, Matrix};
use paco_core::metrics::sched::kernel as kernel_metrics;
use paco_core::semiring::{IdempotentSemiring, Semiring};
use paco_core::shared::SharedGrid;
use std::ops::Range;

/// Default base-case side of the cache-oblivious recursion (an alias of the
/// hoisted workspace default in [`paco_core::tuning`]).
pub const DEFAULT_BASE: usize = paco_core::tuning::FW_BASE;

/// Simulated-address-space placement of the Floyd–Warshall working set (the
/// single `n × n` distance matrix); used only when replaying a kernel through
/// the cache simulator.
#[derive(Debug, Clone, Copy)]
pub struct FwAddr {
    /// The `n × n` distance/closure matrix.
    pub dist: Layout2D,
}

impl FwAddr {
    /// Lay out the working set for an `n`-vertex instance.
    pub fn new(n: usize) -> Self {
        let mut space = AddressSpace::new();
        Self {
            dist: space.alloc_2d(n.max(1), n.max(1)),
        }
    }
}

/// The shared `n × n` distance matrix every task relaxes in place.
///
/// Concurrent tasks follow the [`paco_core::shared`] discipline: within one
/// phase of the recursion each task writes a block no other running task
/// touches, and only reads blocks finished in earlier phases (the diagonal
/// block of the current `k`-range) or owned rows/columns of its own block.
///
/// # Table layout
///
/// Rows are stored [`FwTable::row_stride`] cells apart, by one fixed rule:
/// when a row of `n` cells is a multiple of 2 KiB, one 64-byte line of
/// padding ends each row; otherwise rows are contiguous.  A row that is a
/// multiple of 4 KiB puts every row of a leaf block on the same few sets
/// of a set-associative L1, a conflict the ideal cache of the paper's
/// bounds does not have.  So `MinPlus` tables of 256, 512 and 768 vertices
/// get strides 264, 520 and 776, a `BoolSemiring` table of 2048 vertices
/// 2112, and a `MinPlus` table of 384 (3 KiB rows) stays unpadded.
/// `fw_seq` closed 512 `MinPlus` vertices in 7.7 ms padded against 11.8 ms
/// unpadded (256: 0.97 against 1.57 ms; 768: 22.0 against 26.9 ms; 384:
/// 3.2 ms either way), bit-identical, medians of seven interleaved
/// processes on a two-vCPU AVX-512 Xeon.
///
/// [`FwTable::from_matrix`] and [`FwTable::from_owned`] make the one `n²`
/// pass into the padded layout; [`FwTable::into_matrix`] compacts in the
/// table's own allocation.  The simulated layout of a tracked replay
/// ([`FwAddr`]) stays dense, so cache-simulator counts do not see the
/// padding.
pub struct FwTable<S> {
    grid: SharedGrid<S>,
    n: usize,
}

impl<S: Semiring> FwTable<S> {
    /// The row stride, in cells, of an `n`-vertex table over `S`: `n`, plus
    /// one 64-byte line when `n · size_of::<S>()` is a multiple of 2 KiB.
    pub fn row_stride(n: usize) -> usize {
        let size = std::mem::size_of::<S>();
        if n > 0 && size > 0 && (n * size).is_multiple_of(2048) {
            n + 64usize.div_ceil(size)
        } else {
            n
        }
    }

    /// Copy a square adjacency/distance matrix into a shared table.
    ///
    /// Panics if the matrix is not square.
    pub fn from_matrix(adj: &Matrix<S>) -> Self {
        let n = square_side(adj);
        let stride = Self::row_stride(n);
        if stride == n {
            return Self::from_owned(adj.clone());
        }
        let mut cells = Vec::with_capacity(n * stride);
        for row in adj.data().chunks_exact(n) {
            cells.extend_from_slice(row);
            cells.resize(cells.len() + stride - n, S::zero());
        }
        Self::over(n, stride, cells)
    }

    /// Take a square matrix over as the table, in its own allocation: no
    /// copy when the rows stay contiguous, else the allocation grows to the
    /// padded size and the rows move up to their strided places.
    ///
    /// Panics if the matrix is not square.
    pub fn from_owned(adj: Matrix<S>) -> Self {
        let n = square_side(&adj);
        let stride = Self::row_stride(n);
        let mut cells = adj.into_vec();
        if stride != n {
            cells.reserve_exact(n * (stride - n));
            cells.resize(n * stride, S::zero());
            // Back to front: row `i` moves to `i · stride ≥ i · n`, over
            // cells of rows already moved or of the new tail.
            for i in (1..n).rev() {
                cells.copy_within(i * n..(i + 1) * n, i * stride);
            }
            for row in cells.chunks_exact_mut(stride) {
                row[n..].fill(S::zero());
            }
        }
        Self::over(n, stride, cells)
    }

    fn over(n: usize, stride: usize, cells: Vec<S>) -> Self {
        Self {
            grid: SharedGrid::from_vec_strided(n, n, stride, cells),
            n,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The shared cell grid.
    pub fn grid(&self) -> &SharedGrid<S> {
        &self.grid
    }

    /// Snapshot the table into an owning matrix; only call when no task is
    /// running.
    pub fn to_matrix(&self) -> Matrix<S> {
        Matrix::from_vec(self.n, self.n, self.grid.snapshot())
    }

    /// Consume the table into an owning matrix over the same allocation:
    /// no copy at an unpadded stride, else one in-place pass that moves the
    /// rows down over the padding.
    pub fn into_matrix(self) -> Matrix<S> {
        Matrix::from_vec(self.n, self.n, self.grid.into_vec())
    }
}

/// The side of a square matrix.
fn square_side<S: Copy>(adj: &Matrix<S>) -> usize {
    assert_eq!(
        adj.rows(),
        adj.cols(),
        "Floyd–Warshall needs a square matrix"
    );
    adj.rows()
}

/// Reference implementation: the classic iterative Floyd–Warshall triple loop
/// (`k` outermost), `O(n³)` semiring operations.  Ground truth for every other
/// variant.
pub fn fw_reference<S: IdempotentSemiring>(adj: &Matrix<S>) -> Matrix<S> {
    let n = square_side(adj);
    let mut d = adj.clone();
    for k in 0..n {
        for i in 0..n {
            let d_ik = d.get(i, k);
            for j in 0..n {
                d.set(i, j, d.get(i, j).add(d_ik.mul(d.get(k, j))));
            }
        }
    }
    d
}

/// Whether two index ranges share an index.
fn overlaps(x: &Range<usize>, y: &Range<usize>) -> bool {
    x.start < y.end && y.start < x.end
}

/// The generalized base kernel: relax every cell of the block `rows × cols`
/// through every via-vertex `k ∈ via`, `k` outermost:
///
/// ```text
/// D[i][j] ← D[i][j] ⊕ (D[i][k] ⊗ D[k][j])    for k ∈ via, i ∈ rows, j ∈ cols
/// ```
///
/// The `k`-outermost order is what makes the in-place update correct when the
/// block overlaps row `k` or column `k` of the table (the A/B/C roles of the
/// recursion); for fully disjoint blocks (the D role) it is simply a blocked
/// semiring matmul-accumulate.
pub fn relax<S: IdempotentSemiring, T: Tracker + ?Sized>(
    table: &FwTable<S>,
    rows: Range<usize>,
    cols: Range<usize>,
    via: Range<usize>,
    tracker: &mut T,
    addr: &FwAddr,
) {
    let grid = table.grid();
    // Fast path: when nothing observes the per-element accesses
    // (`T::TRACKING` is false, i.e. the production `NullTracker`), hand the
    // whole block to the semiring's `SpecializedKernel` hooks.  A block
    // whose rows and columns both miss `via` (the D role) is a semiring
    // product of three disjoint windows and goes to `mm_block`; any other
    // block goes to the in-place `relax_block`.  A declined hook falls back
    // to whole rows through the row hooks.  Every path keeps each cell's
    // ascending-`k` order and the hoisted `d_ik`, so results are
    // bit-identical to the generic loop below (`tests/kernel_agreement.rs`
    // runs both and compares).  The `i == k` row aliases source and
    // destination and gets the dedicated aliased hook.
    if !T::TRACKING && !cols.is_empty() {
        let disjoint =
            !rows.is_empty() && !via.is_empty() && !overlaps(&rows, &via) && !overlaps(&cols, &via);
        let handled = if disjoint {
            let ld = grid.stride();
            // SAFETY: the three windows are in bounds and pairwise disjoint
            // (`rows` and `cols` both miss `via`); the wave discipline gives
            // this task exclusive access to `rows × cols`, and the `via`
            // blocks are only read while it runs.
            let (mut c, a, b) = unsafe {
                (
                    MatMut::from_raw_parts(
                        grid.cell_ptr(rows.start, cols.start),
                        rows.len(),
                        cols.len(),
                        ld,
                    ),
                    MatRef::from_raw_parts(
                        grid.cell_ptr(rows.start, via.start).cast_const(),
                        rows.len(),
                        via.len(),
                        ld,
                    ),
                    MatRef::from_raw_parts(
                        grid.cell_ptr(via.start, cols.start).cast_const(),
                        via.len(),
                        cols.len(),
                        ld,
                    ),
                )
            };
            S::mm_block(&mut c, &a, &b)
        } else {
            S::relax_block(grid, rows.clone(), cols.clone(), via.clone())
        };
        if handled {
            kernel_metrics::record_fw_leaf(S::SPECIALIZED);
            return;
        }
        let len = cols.len();
        for k in via {
            for i in rows.clone() {
                let d_ik = grid.get(i, k);
                // SAFETY: `cell_ptr` is in bounds (`cols.end <= n`, checked by
                // the grid's debug asserts), the `len` cells of one row from
                // `cols.start` are contiguous (rows start `grid.stride()`
                // cells apart), and the wavefront discipline of
                // `paco_core::shared` gives this task exclusive write access
                // to its block; the source row `k` is only read concurrently,
                // never written (the aliased `i == k` case never builds
                // `src`).
                let handled = if i == k {
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(grid.cell_ptr(i, cols.start), len)
                    };
                    S::relax_row_aliased(dst, d_ik)
                } else {
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(grid.cell_ptr(i, cols.start), len)
                    };
                    let src = unsafe {
                        std::slice::from_raw_parts(grid.cell_ptr(k, cols.start).cast_const(), len)
                    };
                    S::relax_row(dst, d_ik, src)
                };
                if !handled {
                    for j in cols.clone() {
                        let relaxed = grid.get(i, j).add(d_ik.mul(grid.get(k, j)));
                        grid.set(i, j, relaxed);
                    }
                }
            }
        }
        kernel_metrics::record_fw_leaf(S::SPECIALIZED);
        return;
    }
    for k in via {
        for i in rows.clone() {
            tracker.read(addr.dist.addr(i, k));
            let d_ik = grid.get(i, k);
            for j in cols.clone() {
                tracker.read(addr.dist.addr(k, j));
                tracker.read(addr.dist.addr(i, j));
                let relaxed = grid.get(i, j).add(d_ik.mul(grid.get(k, j)));
                grid.set(i, j, relaxed);
                tracker.write(addr.dist.addr(i, j));
            }
        }
    }
    kernel_metrics::record_fw_leaf(false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_cache_sim::NullTracker;
    use paco_core::semiring::{BoolSemiring, MinPlus};
    use paco_core::workload::{random_adjacency, random_digraph};

    #[test]
    fn reference_on_a_known_instance() {
        // 0 →(3) 1 →(1) 2, plus a direct 0 →(7) 2 edge: shortest 0→2 is 4.
        let inf = MinPlus::zero();
        let one = MinPlus::one();
        let adj = Matrix::from_vec(
            3,
            3,
            vec![
                one,
                MinPlus(3.0),
                MinPlus(7.0),
                inf,
                one,
                MinPlus(1.0),
                inf,
                inf,
                one,
            ],
        );
        let d = fw_reference(&adj);
        assert_eq!(d.get(0, 2), MinPlus(4.0));
        assert_eq!(d.get(0, 1), MinPlus(3.0));
        assert_eq!(d.get(1, 0), inf);
        assert_eq!(d.get(2, 2), one);
    }

    #[test]
    fn reference_transitive_closure_of_a_cycle() {
        // A directed 4-cycle reaches everything.
        let adj = Matrix::from_fn(4, 4, |i, j| BoolSemiring(i == j || (i + 1) % 4 == j));
        let c = fw_reference(&adj);
        for i in 0..4 {
            for j in 0..4 {
                assert!(c.get(i, j).0, "{i} must reach {j}");
            }
        }
    }

    #[test]
    fn full_range_relax_equals_reference() {
        let adj = random_digraph(24, 0.25, 20, 1);
        let table = FwTable::from_matrix(&adj);
        let addr = FwAddr::new(24);
        relax(&table, 0..24, 0..24, 0..24, &mut NullTracker, &addr);
        assert_eq!(table.to_matrix(), fw_reference(&adj));
    }

    #[test]
    fn bool_full_range_relax_equals_reference() {
        let adj = random_adjacency(20, 0.15, 2);
        let table = FwTable::from_matrix(&adj);
        let addr = FwAddr::new(20);
        relax(&table, 0..20, 0..20, 0..20, &mut NullTracker, &addr);
        assert_eq!(table.to_matrix(), fw_reference(&adj));
    }

    #[test]
    #[should_panic]
    fn non_square_input_is_rejected() {
        let adj: Matrix<MinPlus> = Matrix::filled(2, 3, MinPlus::one());
        let _ = FwTable::from_matrix(&adj);
    }

    #[test]
    fn rows_are_padded_off_2_kib_multiples() {
        assert_eq!(FwTable::<MinPlus>::row_stride(256), 264);
        assert_eq!(FwTable::<MinPlus>::row_stride(384), 384);
        assert_eq!(FwTable::<MinPlus>::row_stride(512), 520);
        assert_eq!(FwTable::<MinPlus>::row_stride(768), 776);
        assert_eq!(FwTable::<BoolSemiring>::row_stride(512), 512);
        assert_eq!(FwTable::<BoolSemiring>::row_stride(2048), 2112);
        assert_eq!(FwTable::<MinPlus>::row_stride(0), 0);
        let adj = random_digraph(256, 0.05, 9, 4);
        assert_eq!(FwTable::from_matrix(&adj).grid().stride(), 264);
        assert_eq!(FwTable::from_owned(adj).grid().stride(), 264);
    }

    #[test]
    fn padded_tables_round_trip_in_one_allocation() {
        let adj = random_digraph(256, 0.05, 9, 5);
        for table in [FwTable::from_matrix(&adj), FwTable::from_owned(adj.clone())] {
            assert_eq!(table.to_matrix(), adj);
            let base = table.grid().cell_ptr(0, 0).cast_const();
            let back = table.into_matrix();
            assert_eq!(back.data().as_ptr(), base, "compacted in place");
            assert_eq!(back, adj);
        }
    }

    #[test]
    fn table_round_trip() {
        let adj = random_digraph(8, 0.5, 9, 3);
        let table = FwTable::from_matrix(&adj);
        assert_eq!(table.n(), 8);
        assert_eq!(table.to_matrix(), adj);
    }
}
