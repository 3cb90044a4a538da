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
//! * [`SharedGrid`] — a 2D table of `Copy` cells.
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
pub struct SharedGrid<T> {
    cells: Vec<UnsafeCell<T>>,
    rows: usize,
    cols: usize,
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
        assert_eq!(v.len(), rows * cols, "SharedGrid::from_vec shape mismatch");
        Self {
            cells: wrap_cells(v),
            rows,
            cols,
        }
    }

    /// Consume the grid, returning its row-major storage without copying —
    /// how run state returns grid buffers to the arena after a pass.
    pub fn into_vec(self) -> Vec<T> {
        unwrap_cells(self.cells)
    }

    /// A `rows × cols` grid initialised from a generator function `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut cells = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                cells.push(UnsafeCell::new(f(i, j)));
            }
        }
        Self { cells, rows, cols }
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

    /// Read cell `(i, j)`.
    ///
    /// Caller must uphold the wavefront discipline (no concurrent writer).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols, "SharedGrid read OOB");
        // SAFETY: module-level contract.
        unsafe { *self.cells[i * self.cols + j].get() }
    }

    /// Write cell `(i, j)`.
    ///
    /// Caller must uphold the wavefront discipline (this task owns the cell).
    #[inline]
    pub fn set(&self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols, "SharedGrid write OOB");
        // SAFETY: module-level contract.
        unsafe { *self.cells[i * self.cols + j].get() = v }
    }

    /// Copy the grid into a plain vector (row-major); only call when no task is
    /// running.
    pub fn snapshot(&self) -> Vec<T> {
        (0..self.rows * self.cols)
            .map(|idx| unsafe { *self.cells[idx].get() })
            .collect()
    }

    /// Raw pointer to cell `(i, j)` of the row-major storage (row stride =
    /// [`SharedGrid::cols`]).
    ///
    /// This exists so schedule interpreters can rebuild typed window views
    /// (`MatRef`/`MatMut` via their `from_raw_parts`) over a block of the
    /// grid; all accesses through such views remain subject to the
    /// module-level wavefront contract.  The pointer is derived from the
    /// whole backing buffer, so it carries provenance for the *entire* grid —
    /// a window built from it may stride across rows.
    #[inline]
    pub fn cell_ptr(&self, i: usize, j: usize) -> *mut T {
        debug_assert!(i < self.rows && j < self.cols, "SharedGrid ptr OOB");
        // Derive from the buffer base (not from one element's `UnsafeCell`)
        // so the provenance spans the full allocation; `UnsafeCell<T>` is
        // `repr(transparent)`, and writes through the shared reference are
        // permitted because every cell is inside an `UnsafeCell`.
        let base = self.cells.as_ptr() as *mut T;
        // SAFETY: the index is in bounds by the debug_assert / construction.
        unsafe { base.add(i * self.cols + j) }
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
