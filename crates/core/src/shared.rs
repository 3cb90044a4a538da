//! Shared-memory wrappers for wavefront and in-place table algorithms.
//!
//! Several algorithm families write a single large table from many processors
//! at once: every task owns a *disjoint* region of the table, but it also reads
//! cells outside its region that were produced by tasks in earlier waves or
//! phases (the LCS/1D/GAP wavefronts in `paco-dp`, the Floyd–Warshall phase
//! recursion in `paco-graph`).  Rust's `&mut` slices cannot express "disjoint
//! writes plus reads of already-finished neighbours", so this module provides
//! two small pointer wrappers with explicitly documented safety contracts:
//!
//! * [`SharedGrid`] — a 2D table of `Copy` cells, row-major with a row
//!   stride of at least its column count (see [`SharedGrid::stride`]).
//! * [`SharedSlice`] — a 1D array of `Copy` cells.
//!
//! # Safety contract
//!
//! A `get` may race with nothing; a `set` may race with nothing.  The callers
//! (the wavefront/phase schedulers in the algorithm crates) guarantee it
//! structurally:
//!
//! 1. every task writes only cells inside the region assigned to it, and
//!    regions of concurrently running tasks are disjoint;
//! 2. every cell a task reads outside its own region was written by a task in
//!    an earlier wave or phase, and waves are separated by a barrier (the pool
//!    scope or rayon join), which also provides the necessary happens-before
//!    edge;
//! 3. no cell is read and written concurrently.
//!
//! A grid's rows may be padded: row `i` starts `i · stride` cells into the
//! storage, and `stride ≥ cols`.  A row slice or window built over
//! [`SharedGrid::cell_ptr`] must therefore use [`SharedGrid::stride`] as its
//! leading dimension, never `cols`; the padding cells are in no task's
//! region and no access may touch them.
//!
//! This mirrors the paper's observation (Sect. II) that all algorithms
//! considered are free of data races, so no cache-coherence modelling is
//! needed.

use std::cell::UnsafeCell;
use std::mem::ManuallyDrop;
use std::ops::Range;

/// Reinterpret a `Vec<T>` as `Vec<UnsafeCell<T>>` without copying.
///
/// Sound because `UnsafeCell<T>` is `repr(transparent)` over `T`, so the two
/// vectors have identical layout, alignment and allocation metadata.
fn wrap_cells<T>(v: Vec<T>) -> Vec<UnsafeCell<T>> {
    let mut v = ManuallyDrop::new(v);
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    // SAFETY: same allocation, identical layout (`repr(transparent)`), and the
    // original vector is not dropped.
    unsafe { Vec::from_raw_parts(ptr.cast::<UnsafeCell<T>>(), len, cap) }
}

/// Inverse of [`wrap_cells`]: recover the plain `Vec<T>`.
fn unwrap_cells<T>(v: Vec<UnsafeCell<T>>) -> Vec<T> {
    let mut v = ManuallyDrop::new(v);
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    // SAFETY: as [`wrap_cells`], in reverse.
    unsafe { Vec::from_raw_parts(ptr.cast::<T>(), len, cap) }
}

/// A 2D grid of `Copy` cells that can be shared across worker threads under the
/// wavefront discipline documented at the module level.
///
/// Row `i` starts at cell `i · stride` of the storage.  The stride equals
/// `cols` unless the grid was built by [`SharedGrid::from_vec_strided`];
/// the `stride − cols` padding cells that end each row then belong to no
/// cell of the grid and are never read through it.
pub struct SharedGrid<T> {
    cells: Vec<UnsafeCell<T>>,
    rows: usize,
    cols: usize,
    stride: usize,
}

// SAFETY: see the module-level safety contract; the grid itself adds no
// synchronisation, it only makes the sharing explicit.
unsafe impl<T: Send> Send for SharedGrid<T> {}
unsafe impl<T: Send> Sync for SharedGrid<T> {}

impl<T: Copy> SharedGrid<T> {
    /// A `rows × cols` grid with every cell initialised to `fill`, in one
    /// `vec!` allocation — for an all-zero-bits `fill` (`0`, `0.0`) that is
    /// a zeroed allocation with no per-cell write.
    pub fn new(rows: usize, cols: usize, fill: T) -> Self {
        Self::from_vec(rows, cols, vec![fill; rows * cols])
    }

    /// A `rows × cols` grid over an existing row-major vector (e.g. one
    /// checked out of a [`crate::arena::ScratchArena`]); no copy is made.
    ///
    /// # Panics
    ///
    /// If `v.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, v: Vec<T>) -> Self {
        Self::from_vec_strided(rows, cols, cols, v)
    }

    /// A `rows × cols` grid over a vector whose row `i` starts at
    /// `i · stride`; no copy is made.  The last `stride − cols` cells of
    /// each row are padding.
    ///
    /// # Panics
    ///
    /// If `stride < cols` or `v.len() != rows * stride`.
    pub fn from_vec_strided(rows: usize, cols: usize, stride: usize, v: Vec<T>) -> Self {
        assert!(stride >= cols, "SharedGrid stride below its column count");
        assert_eq!(v.len(), rows * stride, "SharedGrid shape mismatch");
        Self {
            cells: wrap_cells(v),
            rows,
            cols,
            stride,
        }
    }

    /// Consume the grid, returning its cells row-major with no padding, in
    /// the grid's own allocation: a padded grid moves its rows down over
    /// the padding and truncates, so no second buffer is allocated — how
    /// run state returns grid buffers to the arena after a pass.
    pub fn into_vec(self) -> Vec<T> {
        let (rows, cols, stride) = (self.rows, self.cols, self.stride);
        let mut v = unwrap_cells(self.cells);
        if stride != cols {
            // Front to back: row `i` moves to `i · cols ≤ i · stride`, over
            // cells of rows already moved or of padding.
            for i in 1..rows {
                v.copy_within(i * stride..i * stride + cols, i * cols);
            }
            v.truncate(rows * cols);
        }
        v
    }

    /// A `rows × cols` grid initialised from a generator function `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut cells = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                cells.push(UnsafeCell::new(f(i, j)));
            }
        }
        Self {
            cells,
            rows,
            cols,
            stride: cols,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance, in cells, from the start of one row to the start of the
    /// next (`≥ cols`): the leading dimension of any window built over
    /// [`SharedGrid::cell_ptr`].
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Read cell `(i, j)`.
    ///
    /// Caller must uphold the wavefront discipline (no concurrent writer).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols, "SharedGrid read OOB");
        // SAFETY: module-level contract.
        unsafe { *self.cells[i * self.stride + j].get() }
    }

    /// Write cell `(i, j)`.
    ///
    /// Caller must uphold the wavefront discipline (this task owns the cell).
    #[inline]
    pub fn set(&self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols, "SharedGrid write OOB");
        // SAFETY: module-level contract.
        unsafe { *self.cells[i * self.stride + j].get() = v }
    }

    /// Copy the grid into a plain vector (row-major, without padding); only
    /// call when no task is running.
    pub fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            let row = &self.cells[i * self.stride..i * self.stride + self.cols];
            // SAFETY: module-level contract (no task is running).
            out.extend(row.iter().map(|c| unsafe { *c.get() }));
        }
        out
    }

    /// Raw pointer to cell `(i, j)` of the row-major storage (row stride =
    /// [`SharedGrid::stride`], which may exceed [`SharedGrid::cols`]).
    ///
    /// This exists so schedule interpreters can rebuild typed window views
    /// (`MatRef`/`MatMut` via their `from_raw_parts`) over a block of the
    /// grid; all accesses through such views remain subject to the
    /// module-level wavefront contract.  The pointer is derived from the
    /// whole backing buffer, so it carries provenance for the *entire* grid —
    /// a window built from it may stride across rows, with leading
    /// dimension [`SharedGrid::stride`].
    #[inline]
    pub fn cell_ptr(&self, i: usize, j: usize) -> *mut T {
        debug_assert!(i < self.rows && j < self.cols, "SharedGrid ptr OOB");
        // Derive from the buffer base (not from one element's `UnsafeCell`)
        // so the provenance spans the full allocation; `UnsafeCell<T>` is
        // `repr(transparent)`, and writes through the shared reference are
        // permitted because every cell is inside an `UnsafeCell`.
        let base = self.cells.as_ptr() as *mut T;
        // SAFETY: the index is in bounds by the debug_assert / construction.
        unsafe { base.add(i * self.stride + j) }
    }
}

/// A 1D array of `Copy` cells shareable across worker threads under the same
/// discipline as [`SharedGrid`].
pub struct SharedSlice<T> {
    cells: Vec<UnsafeCell<T>>,
}

// SAFETY: see the module-level safety contract.
unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T: Copy> SharedSlice<T> {
    /// An array of `len` cells initialised to `fill`, in one `vec!`
    /// allocation (zeroed, with no per-cell write, for an all-zero `fill`).
    pub fn new(len: usize, fill: T) -> Self {
        Self::from_vec(vec![fill; len])
    }

    /// Build from an existing vector; no copy is made.
    pub fn from_vec(v: Vec<T>) -> Self {
        Self {
            cells: wrap_cells(v),
        }
    }

    /// Consume the array, returning its storage without copying — how run
    /// state returns scratch buffers to a [`crate::arena::ScratchArena`]
    /// (and how the sort run hands its scratch out as the output).
    pub fn into_vec(self) -> Vec<T> {
        unwrap_cells(self.cells)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len(), "SharedSlice read OOB");
        // SAFETY: module-level contract.
        unsafe { *self.cells[i].get() }
    }

    /// Write element `i`.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len(), "SharedSlice write OOB");
        // SAFETY: module-level contract.
        unsafe { *self.cells[i].get() = v }
    }

    /// A mutable slice over `range` of the underlying cells.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that, for as long as the returned slice is
    /// live, no other access (read or write, through this wrapper or another
    /// slice) touches any cell of `range` — i.e. the scheduling discipline of
    /// the module-level contract, strengthened to exclusive access.  Used by
    /// schedule interpreters whose steps own disjoint ranges (e.g. the sort
    /// redistribution and per-destination local sorts).
    #[allow(clippy::mut_from_ref)] // the UnsafeCell storage is the point
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.end <= self.len(), "SharedSlice slice_mut OOB");
        if range.is_empty() {
            return &mut [];
        }
        // Derive the pointer from the buffer base (not from one element's
        // `UnsafeCell::get`) so it carries provenance for the whole
        // allocation, then offset into the range.
        let base = self.cells.as_ptr() as *mut T;
        // SAFETY: `Vec<UnsafeCell<T>>` stores cells contiguously,
        // `UnsafeCell<T>` is `repr(transparent)`, the range is in bounds, and
        // exclusivity is the caller's contract above.
        std::slice::from_raw_parts_mut(base.add(range.start), range.len())
    }

    /// Copy a range into a plain vector; only call when no task is running.
    pub fn snapshot_range(&self, range: Range<usize>) -> Vec<T> {
        range.map(|i| self.get(i)).collect()
    }

    /// Copy the whole array into a plain vector; only call when no task is
    /// running.
    pub fn snapshot(&self) -> Vec<T> {
        self.snapshot_range(0..self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_read_write_round_trip() {
        let g = SharedGrid::new(3, 4, 0i64);
        g.set(2, 3, 42);
        g.set(0, 0, -1);
        assert_eq!(g.get(2, 3), 42);
        assert_eq!(g.get(0, 0), -1);
        assert_eq!(g.get(1, 1), 0);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 4);
        let snap = g.snapshot();
        assert_eq!(snap.len(), 12);
        assert_eq!(snap[2 * 4 + 3], 42);
    }

    #[test]
    fn grid_from_fn_matches_coordinates() {
        let g = SharedGrid::from_fn(3, 5, |i, j| i * 10 + j);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(g.get(i, j), i * 10 + j);
            }
        }
    }

    #[test]
    fn slice_read_write_round_trip() {
        let s = SharedSlice::new(5, f64::INFINITY);
        s.set(3, 1.25);
        assert_eq!(s.get(3), 1.25);
        assert!(s.get(0).is_infinite());
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.snapshot_range(2..4), vec![f64::INFINITY, 1.25]);
    }

    #[test]
    fn from_vec_preserves_contents() {
        let s = SharedSlice::from_vec(vec![1u32, 2, 3]);
        assert_eq!(s.snapshot(), vec![1, 2, 3]);
    }

    #[test]
    fn vec_round_trips_preserve_contents_and_capacity() {
        let mut v = Vec::with_capacity(32);
        v.extend([1u64, 2, 3, 4, 5, 6]);
        let s = SharedSlice::from_vec(v);
        s.set(0, 9);
        let back = s.into_vec();
        assert_eq!(back, vec![9, 2, 3, 4, 5, 6]);
        assert_eq!(back.capacity(), 32);

        let g = SharedGrid::from_vec(2, 3, back);
        assert_eq!(g.get(0, 0), 9);
        g.set(1, 2, 77);
        let back = g.into_vec();
        assert_eq!(back, vec![9, 2, 3, 4, 5, 77]);
        assert_eq!(back.capacity(), 32);
    }

    #[test]
    fn strided_grid_addresses_rows_at_its_stride() {
        // 3 × 4 cells in rows of 6: storage index = i · 6 + j.
        let g = SharedGrid::from_vec_strided(3, 4, 6, (0..18u32).collect());
        assert_eq!((g.rows(), g.cols(), g.stride()), (3, 4, 6));
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(g.get(i, j), (i * 6 + j) as u32);
                let offset = (g.cell_ptr(i, j) as usize - g.cell_ptr(0, 0) as usize) / 4;
                assert_eq!(offset, i * 6 + j);
            }
        }
        g.set(2, 3, 99);
        // SAFETY: no other access to the grid is live.
        assert_eq!(unsafe { *g.cell_ptr(2, 3) }, 99);
        assert_eq!(
            g.snapshot(),
            vec![0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 99],
            "the snapshot skips the padding"
        );
    }

    #[test]
    fn strided_into_vec_compacts_in_the_same_allocation() {
        let mut v = Vec::with_capacity(40);
        v.extend(0..24u64);
        let g = SharedGrid::from_vec_strided(4, 5, 6, v);
        g.set(3, 4, 1000);
        let base = g.cell_ptr(0, 0).cast_const();
        let back = g.into_vec();
        assert_eq!(back.as_ptr(), base, "no second allocation");
        assert_eq!(back.capacity(), 40);
        let mut want: Vec<u64> = (0..4)
            .flat_map(|i| (0..5).map(move |j| i * 6 + j))
            .collect();
        want[19] = 1000;
        assert_eq!(back, want);
    }

    #[test]
    #[should_panic(expected = "stride below")]
    fn grid_rejects_a_stride_below_its_width() {
        let _ = SharedGrid::from_vec_strided(2, 3, 2, vec![0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn grid_from_vec_rejects_wrong_length() {
        let _ = SharedGrid::from_vec(2, 3, vec![0u8; 5]);
    }

    #[test]
    fn disjoint_parallel_writes_are_visible_after_join() {
        let g = SharedGrid::new(4, 100, 0usize);
        std::thread::scope(|scope| {
            for row in 0..4 {
                let g = &g;
                scope.spawn(move || {
                    for j in 0..100 {
                        g.set(row, j, row * 1000 + j);
                    }
                });
            }
        });
        for row in 0..4 {
            for j in 0..100 {
                assert_eq!(g.get(row, j), row * 1000 + j);
            }
        }
    }
}
