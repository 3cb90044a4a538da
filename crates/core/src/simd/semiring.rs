//! AVX-512 leaves for the two closure semirings: [`MinPlus`] and
//! [`BoolSemiring`].
//!
//! Floyd–Warshall (and `MatMul` over these semirings) bottoms out in two
//! leaf shapes, and each gets a kernel here:
//!
//! * **Disjoint accumulate** `C ⊕= A ⊗ B` — the D role of the closure
//!   recursion and every semiring `MatMul` leaf.  [`minplus_mm`] holds an
//!   up-to 8 × 24 tile of `C` in `__m512d` registers; [`bool_mm`] an up-to
//!   8 × 64 tile of bytes in `__m512i`.  Both stream `l` over the reduction.
//! * **In-place block relax** over one shared table — the A/B/C roles,
//!   where the block overlaps row `k` or column `k`.  [`minplus_fw_block`]
//!   and [`bool_fw_block`] keep row `k` in registers while they sweep the
//!   block's rows, with masked lanes for widths that are not a multiple of
//!   the vector.  The aliased `i == k` row is updated in memory first and
//!   row `k` is then reloaded, so later rows see it, as the scalar loop does.
//!
//! Every `MinPlus` element still takes its candidates in ascending `k` (or
//! `l`) order through the compare-select `d = if c < d { c } else { d }`,
//! which is exactly `vminpd(c, d)`.  So the results are bit-identical to
//! the row-sliced loops in [`crate::kernel`] that they replace.  The
//! boolean semiring is exact in any order.
//!
//! Each entry point returns `true` when a vector kernel ran.  It returns
//! `false` when the process did not dispatch to `avx512f` (see
//! [`super::simd_mode`], and `PACO_SIMD=off`), for the `BoolSemiring`
//! leaves when the CPU also lacks avx512bw, or when a block is wider than
//! the register-held row allows.  The caller then runs its row loop, so
//! tracked replays and the portable mode keep exactly today's code.

use super::assert_mm_shapes;
#[cfg(target_arch = "x86_64")]
use super::{bool_leaves, mode, Mode};
use crate::matrix::{MatMut, MatRef};
use crate::semiring::{BoolSemiring, MinPlus};
use crate::shared::SharedGrid;
use std::ops::Range;

/// Widest `MinPlus` block, in `__m512d` vectors, whose row `k` the in-place
/// relax keeps in registers (64 columns).
#[cfg(target_arch = "x86_64")]
const MINPLUS_ROW_VECS: usize = 8;
/// Widest `BoolSemiring` block, in `__m512i` vectors (128 columns).
#[cfg(target_arch = "x86_64")]
const BOOL_ROW_VECS: usize = 2;

fn assert_block<T: Copy>(
    grid: &SharedGrid<T>,
    rows: &Range<usize>,
    cols: &Range<usize>,
    via: &Range<usize>,
) {
    assert!(
        rows.end <= grid.rows()
            && cols.end <= grid.cols()
            && via.end <= grid.rows().min(grid.cols()),
        "semiring leaf: block outside the table"
    );
}

/// `C = C ⊕ (A ⊗ B)` over `MinPlus` windows (`c`: `m×n`, `a`: `m×k`,
/// `b`: `k×n`), which must not overlap `c`.  Returns `false` without
/// touching `c` unless the process dispatched to `avx512f`.
pub fn minplus_mm(
    c: &mut MatMut<'_, MinPlus>,
    a: &MatRef<'_, MinPlus>,
    b: &MatRef<'_, MinPlus>,
) -> bool {
    assert_mm_shapes(c, a, b);
    #[cfg(target_arch = "x86_64")]
    if mode() == Mode::Avx512 {
        // SAFETY: `Avx512` is only selected by `detect` after
        // `is_x86_feature_detected!` confirmed avx512f.
        unsafe { minplus_mm_avx512(c, a, b) };
        return true;
    }
    false
}

/// `C = C ∨ (A ∧ B)` over `BoolSemiring` windows; same contract as
/// [`minplus_mm`], except that the CPU must also have avx512bw.
pub fn bool_mm(
    c: &mut MatMut<'_, BoolSemiring>,
    a: &MatRef<'_, BoolSemiring>,
    b: &MatRef<'_, BoolSemiring>,
) -> bool {
    assert_mm_shapes(c, a, b);
    #[cfg(target_arch = "x86_64")]
    if bool_leaves() {
        // SAFETY: `bool_leaves` is only set by `detect` after
        // `is_x86_feature_detected!` confirmed avx512f and avx512bw.
        unsafe { bool_mm_avx512(c, a, b) };
        return true;
    }
    false
}

/// In-place Floyd–Warshall block relax over a `MinPlus` table:
/// `D[i][j] ← min(D[i][j], D[i][k] + D[k][j])` for `k ∈ via`, then
/// `i ∈ rows`, then `j ∈ cols`, with `D[i][k]` read once per `(k, i)`.
///
/// Returns `false` without touching the table unless the process
/// dispatched to `avx512f` and `cols` spans at most 64 columns.  The caller
/// must own `rows × cols` under the [`crate::shared`] wave discipline.
pub fn minplus_fw_block(
    grid: &SharedGrid<MinPlus>,
    rows: Range<usize>,
    cols: Range<usize>,
    via: Range<usize>,
) -> bool {
    assert_block(grid, &rows, &cols, &via);
    #[cfg(target_arch = "x86_64")]
    if mode() == Mode::Avx512 && cols.len().div_ceil(8) <= MINPLUS_ROW_VECS {
        if cols.is_empty() {
            return true;
        }
        let tail = mask8(cols.len() - 8 * (cols.len().div_ceil(8) - 1));
        // SAFETY: avx512f was detected (see `minplus_mm`); the block is
        // inside the table (asserted above) and the caller owns it.
        unsafe {
            match cols.len().div_ceil(8) {
                1 => minplus_fw_rows::<1>(grid, rows, cols, via, tail),
                2 => minplus_fw_rows::<2>(grid, rows, cols, via, tail),
                3 => minplus_fw_rows::<3>(grid, rows, cols, via, tail),
                4 => minplus_fw_rows::<4>(grid, rows, cols, via, tail),
                5 => minplus_fw_rows::<5>(grid, rows, cols, via, tail),
                6 => minplus_fw_rows::<6>(grid, rows, cols, via, tail),
                7 => minplus_fw_rows::<7>(grid, rows, cols, via, tail),
                _ => minplus_fw_rows::<8>(grid, rows, cols, via, tail),
            }
        }
        return true;
    }
    false
}

/// In-place block relax over a `BoolSemiring` table:
/// `D[i][j] ← D[i][j] ∨ (D[i][k] ∧ D[k][j])`, same order and contract as
/// [`minplus_fw_block`], for blocks of at most 128 columns on a CPU that
/// also has avx512bw.
pub fn bool_fw_block(
    grid: &SharedGrid<BoolSemiring>,
    rows: Range<usize>,
    cols: Range<usize>,
    via: Range<usize>,
) -> bool {
    assert_block(grid, &rows, &cols, &via);
    #[cfg(target_arch = "x86_64")]
    if bool_leaves() && cols.len().div_ceil(64) <= BOOL_ROW_VECS {
        if cols.is_empty() {
            return true;
        }
        let tail = mask64(cols.len() - 64 * (cols.len().div_ceil(64) - 1));
        // SAFETY: avx512f and avx512bw were detected (see `bool_mm`); the
        // block is inside the table (asserted above) and the caller owns it.
        unsafe {
            match cols.len().div_ceil(64) {
                1 => bool_fw_rows::<1>(grid, rows, cols, via, tail),
                _ => bool_fw_rows::<2>(grid, rows, cols, via, tail),
            }
        }
        return true;
    }
    false
}

/// The low `k` lanes of an 8-lane mask, `1 ≤ k ≤ 8`.
#[cfg(target_arch = "x86_64")]
fn mask8(k: usize) -> u8 {
    debug_assert!((1..=8).contains(&k));
    (u16::MAX >> (16 - k)) as u8
}

/// The low `k` lanes of a 64-lane mask, `1 ≤ k ≤ 64`.
#[cfg(target_arch = "x86_64")]
fn mask64(k: usize) -> u64 {
    debug_assert!((1..=64).contains(&k));
    u64::MAX >> (64 - k)
}

/// Rows of the next register tile: 8, then 4, 2 and 1 for the remainder.
#[cfg(target_arch = "x86_64")]
fn tile_rows(left: usize) -> usize {
    match left {
        8.. => 8,
        4..=7 => 4,
        2 | 3 => 2,
        _ => 1,
    }
}

/// # Safety
///
/// The CPU must support AVX-512F; the shapes must agree (`assert_shapes`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn minplus_mm_avx512(
    c: &mut MatMut<'_, MinPlus>,
    a: &MatRef<'_, MinPlus>,
    b: &MatRef<'_, MinPlus>,
) {
    let (m, n) = (c.rows(), c.cols());
    let mut i = 0;
    while i < m {
        let mr = tile_rows(m - i);
        let mut j = 0;
        while j < n {
            // Up to three vectors (24 columns) per tile; the last is masked.
            let width = (n - j).min(24);
            let nv = width.div_ceil(8);
            let t = mask8(width - 8 * (nv - 1));
            match (mr, nv) {
                (8, 1) => minplus_tile::<8, 1>(c, a, b, i, j, t),
                (8, 2) => minplus_tile::<8, 2>(c, a, b, i, j, t),
                (8, _) => minplus_tile::<8, 3>(c, a, b, i, j, t),
                (4, 1) => minplus_tile::<4, 1>(c, a, b, i, j, t),
                (4, 2) => minplus_tile::<4, 2>(c, a, b, i, j, t),
                (4, _) => minplus_tile::<4, 3>(c, a, b, i, j, t),
                (2, 1) => minplus_tile::<2, 1>(c, a, b, i, j, t),
                (2, 2) => minplus_tile::<2, 2>(c, a, b, i, j, t),
                (2, _) => minplus_tile::<2, 3>(c, a, b, i, j, t),
                (_, 1) => minplus_tile::<1, 1>(c, a, b, i, j, t),
                (_, 2) => minplus_tile::<1, 2>(c, a, b, i, j, t),
                (_, _) => minplus_tile::<1, 3>(c, a, b, i, j, t),
            }
            j += width;
        }
        i += mr;
    }
}

/// One `MR × (8·NV)` tile of `C` at `(i, j)`, accumulated in registers over
/// the whole reduction.  Lane `l` of the last vector is live iff bit `l` of
/// `tail` is set; masked loads never fault, so the tail may end the
/// allocation.
///
/// # Safety
///
/// As [`minplus_mm_avx512`]; the tile lies inside `c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn minplus_tile<const MR: usize, const NV: usize>(
    c: &mut MatMut<'_, MinPlus>,
    a: &MatRef<'_, MinPlus>,
    b: &MatRef<'_, MinPlus>,
    i: usize,
    j: usize,
    tail: u8,
) {
    use std::arch::x86_64::*;
    let mut lanes = [0xFFu8; NV];
    lanes[NV - 1] = tail;
    // `MinPlus` is `repr(transparent)` over `f64`: rows cast in place.
    let mut ar = [std::ptr::null::<f64>(); MR];
    for (r, row) in ar.iter_mut().enumerate() {
        *row = a.row(i + r).as_ptr().cast::<f64>();
    }
    let mut acc = [[_mm512_setzero_pd(); NV]; MR];
    for (r, tile) in acc.iter_mut().enumerate() {
        let row = c.row(i + r).as_ptr().cast::<f64>().add(j);
        for (v, x) in tile.iter_mut().enumerate() {
            *x = _mm512_maskz_loadu_pd(lanes[v], row.add(8 * v));
        }
    }
    let mut bv = [_mm512_setzero_pd(); NV];
    for l in 0..a.cols() {
        // A column of +∞ (no edge out of any of these rows through `l`)
        // never wins a compare: skip it, as the row hook skips one row.
        if ar.iter().all(|&arow| *arow.add(l) == f64::INFINITY) {
            continue;
        }
        let br = b.row(l).as_ptr().cast::<f64>().add(j);
        for (v, x) in bv.iter_mut().enumerate() {
            *x = _mm512_maskz_loadu_pd(lanes[v], br.add(8 * v));
        }
        for (tile, &arow) in acc.iter_mut().zip(&ar) {
            let av = _mm512_set1_pd(*arow.add(l));
            for (x, &bx) in tile.iter_mut().zip(&bv) {
                // vminpd(s, d) = if s < d { s } else { d }: the scalar hook.
                *x = _mm512_min_pd(_mm512_add_pd(av, bx), *x);
            }
        }
    }
    for (r, tile) in acc.iter().enumerate() {
        let row = c.row_mut(i + r).as_mut_ptr().cast::<f64>().add(j);
        for (v, &x) in tile.iter().enumerate() {
            _mm512_mask_storeu_pd(row.add(8 * v), lanes[v], x);
        }
    }
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW; the shapes must agree.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn bool_mm_avx512(
    c: &mut MatMut<'_, BoolSemiring>,
    a: &MatRef<'_, BoolSemiring>,
    b: &MatRef<'_, BoolSemiring>,
) {
    let (m, n) = (c.rows(), c.cols());
    let mut i = 0;
    while i < m {
        let mr = tile_rows(m - i);
        let mut j = 0;
        while j < n {
            // One 64-byte vector per row; the last is masked.
            let width = (n - j).min(64);
            let t = mask64(width);
            match mr {
                8 => bool_tile::<8>(c, a, b, i, j, t),
                4 => bool_tile::<4>(c, a, b, i, j, t),
                2 => bool_tile::<2>(c, a, b, i, j, t),
                _ => bool_tile::<1>(c, a, b, i, j, t),
            }
            j += width;
        }
        i += mr;
    }
}

/// One `MR`-row by up-to-64-column tile of a boolean `C` at `(i, j)`.
///
/// # Safety
///
/// As [`bool_mm_avx512`]; the tile lies inside `c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn bool_tile<const MR: usize>(
    c: &mut MatMut<'_, BoolSemiring>,
    a: &MatRef<'_, BoolSemiring>,
    b: &MatRef<'_, BoolSemiring>,
    i: usize,
    j: usize,
    tail: u64,
) {
    use std::arch::x86_64::*;
    // `BoolSemiring` is `repr(transparent)` over `bool`: bytes 0 and 1.
    // AND and OR of such bytes stay 0 or 1, so every store is a valid bool.
    let mut ar = [std::ptr::null::<u8>(); MR];
    for (r, row) in ar.iter_mut().enumerate() {
        *row = a.row(i + r).as_ptr().cast::<u8>();
    }
    let mut acc = [_mm512_setzero_si512(); MR];
    for (r, x) in acc.iter_mut().enumerate() {
        let row = c.row(i + r).as_ptr().cast::<i8>().add(j);
        *x = _mm512_maskz_loadu_epi8(tail, row);
    }
    for l in 0..a.cols() {
        // All-false `A` entries contribute nothing: skip the row of `B`.
        if ar.iter().all(|&arow| *arow.add(l) == 0) {
            continue;
        }
        let bx = _mm512_maskz_loadu_epi8(tail, b.row(l).as_ptr().cast::<i8>().add(j));
        for (x, &arow) in acc.iter_mut().zip(&ar) {
            let av = _mm512_set1_epi8(*arow.add(l) as i8);
            *x = _mm512_or_si512(*x, _mm512_and_si512(av, bx));
        }
    }
    for (r, &x) in acc.iter().enumerate() {
        let row = c.row_mut(i + r).as_mut_ptr().cast::<i8>().add(j);
        _mm512_mask_storeu_epi8(row, tail, x);
    }
}

/// The in-place `MinPlus` relax with row `k` held in `NV` registers.
///
/// # Safety
///
/// The CPU must support AVX-512F; `rows × cols` and `via` lie inside the
/// table (`assert_block`), `cols` spans `8·(NV−1) < len ≤ 8·NV` columns
/// with `tail` masking the last vector, and the caller owns the block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn minplus_fw_rows<const NV: usize>(
    grid: &SharedGrid<MinPlus>,
    rows: Range<usize>,
    cols: Range<usize>,
    via: Range<usize>,
    tail: u8,
) {
    use std::arch::x86_64::*;
    let mut lanes = [0xFFu8; NV];
    lanes[NV - 1] = tail;
    let at = |i: usize, j: usize| grid.cell_ptr(i, j).cast::<f64>();
    let mut kv = [_mm512_setzero_pd(); NV];
    for k in via {
        let rk = at(k, cols.start);
        for (v, x) in kv.iter_mut().enumerate() {
            *x = _mm512_maskz_loadu_pd(lanes[v], rk.add(8 * v));
        }
        for i in rows.clone() {
            let w = *at(i, k);
            let ri = at(i, cols.start);
            if i == k {
                // d ← min(d, w + d) changes nothing unless w < 0 (rounding
                // is monotone, and w = NaN or +∞ never wins the compare).
                if w < 0.0 {
                    let wv = _mm512_set1_pd(w);
                    for (v, x) in kv.iter_mut().enumerate() {
                        let d = _mm512_maskz_loadu_pd(lanes[v], ri.add(8 * v));
                        let d = _mm512_min_pd(_mm512_add_pd(wv, d), d);
                        _mm512_mask_storeu_pd(ri.add(8 * v), lanes[v], d);
                        // Row k changed: later rows must read the new values.
                        *x = d;
                    }
                }
                continue;
            }
            if w == f64::INFINITY {
                // The annihilator: ∞ + s never wins the compare.
                continue;
            }
            let wv = _mm512_set1_pd(w);
            for (v, &x) in kv.iter().enumerate() {
                let d = _mm512_maskz_loadu_pd(lanes[v], ri.add(8 * v));
                let d = _mm512_min_pd(_mm512_add_pd(wv, x), d);
                _mm512_mask_storeu_pd(ri.add(8 * v), lanes[v], d);
            }
        }
    }
}

/// The in-place boolean relax with row `k` held in `NV` registers.  The
/// aliased `i == k` row is a no-op (`d ∨ (w ∧ d) = d`), so row `k` never
/// changes under it.
///
/// # Safety
///
/// As [`minplus_fw_rows`], with AVX-512BW and 64-byte vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn bool_fw_rows<const NV: usize>(
    grid: &SharedGrid<BoolSemiring>,
    rows: Range<usize>,
    cols: Range<usize>,
    via: Range<usize>,
    tail: u64,
) {
    use std::arch::x86_64::*;
    let mut lanes = [u64::MAX; NV];
    lanes[NV - 1] = tail;
    let at = |i: usize, j: usize| grid.cell_ptr(i, j).cast::<i8>();
    let mut kv = [_mm512_setzero_si512(); NV];
    for k in via {
        let rk = at(k, cols.start);
        for (v, x) in kv.iter_mut().enumerate() {
            *x = _mm512_maskz_loadu_epi8(lanes[v], rk.add(64 * v));
        }
        for i in rows.clone() {
            if i == k || *at(i, k) == 0 {
                continue;
            }
            let ri = at(i, cols.start);
            for (v, &x) in kv.iter().enumerate() {
                let d = _mm512_maskz_loadu_epi8(lanes[v], ri.add(64 * v));
                _mm512_mask_storeu_epi8(ri.add(64 * v), lanes[v], _mm512_or_si512(d, x));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SpecializedKernel;
    use crate::matrix::Matrix;
    use crate::workload::random_matrix_f64;

    fn avx512() -> bool {
        super::super::simd_mode() == "avx512f"
    }

    /// Today's row loop for `C ⊕= A ⊗ B`: `i`, then `l`, then the row hook.
    fn mm_rows<S: SpecializedKernel + Copy>(c: &mut Matrix<S>, a: &Matrix<S>, b: &Matrix<S>) {
        let n = c.cols();
        for i in 0..c.rows() {
            for l in 0..a.cols() {
                let w = a.get(i, l);
                let row = &mut c.data_mut()[i * n..(i + 1) * n];
                assert!(S::relax_row(row, w, b.as_ref().row(l)));
            }
        }
    }

    /// Today's in-place row loop over a whole table.
    fn fw_rows<S: SpecializedKernel + Copy>(
        d: &mut Matrix<S>,
        rows: Range<usize>,
        cols: Range<usize>,
        via: Range<usize>,
    ) {
        let n = d.cols();
        for k in via {
            for i in rows.clone() {
                let w = d.get(i, k);
                if i == k {
                    let row = &mut d.data_mut()[i * n + cols.start..i * n + cols.end];
                    assert!(S::relax_row_aliased(row, w));
                } else {
                    let src = d.data()[k * n + cols.start..k * n + cols.end].to_vec();
                    let row = &mut d.data_mut()[i * n + cols.start..i * n + cols.end];
                    assert!(S::relax_row(row, w, &src));
                }
            }
        }
    }

    /// Non-integer weights with some `+∞` (no edge) and negative entries.
    fn weights(rows: usize, cols: usize, seed: u64) -> Matrix<MinPlus> {
        let r = random_matrix_f64(rows, cols, seed);
        Matrix::from_fn(rows, cols, |i, j| {
            let x = r.get(i, j);
            if x > 0.8 {
                MinPlus(f64::INFINITY)
            } else {
                MinPlus(x * 7.3 - 0.4)
            }
        })
    }

    fn bools(rows: usize, cols: usize, seed: u64) -> Matrix<BoolSemiring> {
        let r = random_matrix_f64(rows, cols, seed);
        Matrix::from_fn(rows, cols, |i, j| BoolSemiring(r.get(i, j) > 0.85))
    }

    fn bits(m: &Matrix<MinPlus>) -> Vec<u64> {
        m.data().iter().map(|v| v.0.to_bits()).collect()
    }

    const SHAPES: [(usize, usize, usize); 10] = [
        (1, 1, 1),
        (8, 8, 8),
        (8, 5, 24),
        (9, 3, 25),
        (24, 24, 24),
        (7, 11, 13),
        (16, 2, 70),
        (3, 0, 9),
        (33, 17, 65),
        (5, 6, 130),
    ];

    #[test]
    fn minplus_mm_matches_the_row_loop_bit_for_bit() {
        for (idx, &(m, k, n)) in SHAPES.iter().enumerate() {
            let seed = 7 * idx as u64;
            let (a, b, c) = (
                weights(m, k, seed),
                weights(k, n, seed + 1),
                weights(m, n, seed + 2),
            );
            let mut expect = c.clone();
            mm_rows(&mut expect, &a, &b);
            let mut got = c.clone();
            let ran = minplus_mm(&mut got.as_mut(), &a.as_ref(), &b.as_ref());
            assert_eq!(ran, avx512(), "{m}x{k}x{n}: dispatch");
            if ran {
                assert!(bits(&got) == bits(&expect), "{m}x{k}x{n}: tile disagrees");
            } else {
                assert!(bits(&got) == bits(&c), "{m}x{k}x{n}: declined but wrote");
            }
        }
    }

    #[test]
    fn bool_mm_matches_the_row_loop() {
        for (idx, &(m, k, n)) in SHAPES.iter().enumerate() {
            let seed = 11 * idx as u64;
            let (a, b, c) = (
                bools(m, k, seed),
                bools(k, n, seed + 1),
                bools(m, n, seed + 2),
            );
            let mut expect = c.clone();
            mm_rows(&mut expect, &a, &b);
            let mut got = c.clone();
            if bool_mm(&mut got.as_mut(), &a.as_ref(), &b.as_ref()) {
                assert_eq!(got, expect, "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn windows_inside_a_larger_table_leave_the_rest_alone() {
        // A 13×21 window at (5, 3) of a 40-wide table: masked stores must
        // not spill into the neighbouring columns.
        let big = weights(40, 40, 3);
        let a = weights(13, 9, 4);
        let b = weights(9, 21, 5);
        let mut expect = big.clone();
        let mut win = big.as_ref().submatrix(5, 3, 13, 21).to_matrix();
        mm_rows(&mut win, &a, &b);
        for i in 0..13 {
            for j in 0..21 {
                expect.set(5 + i, 3 + j, win.get(i, j));
            }
        }
        let mut got = big.clone();
        if minplus_mm(
            &mut got.as_mut().submatrix_mut(5, 3, 13, 21),
            &a.as_ref(),
            &b.as_ref(),
        ) {
            assert!(bits(&got) == bits(&expect));
        }
    }

    #[test]
    fn in_place_blocks_match_the_row_loop_bit_for_bit() {
        // Whole tables (the A role: rows = cols = via) with a negative
        // cycle, plus B-, C- and D-shaped blocks of a larger one, at widths
        // around every mask boundary.
        for n in [1usize, 5, 8, 9, 23, 24, 25, 33, 64] {
            let mut d = weights(n, n, n as u64);
            // A negative cycle 0 → 1 → 0 when n ≥ 2.
            if n >= 2 {
                d.set(0, 1, MinPlus(-1.5));
                d.set(1, 0, MinPlus(0.25));
            }
            let mut expect = d.clone();
            fw_rows(&mut expect, 0..n, 0..n, 0..n);
            let grid = SharedGrid::from_vec(n, n, d.data().to_vec());
            if minplus_fw_block(&grid, 0..n, 0..n, 0..n) {
                assert!(
                    bits(&Matrix::from_vec(n, n, grid.snapshot())) == bits(&expect),
                    "n={n}"
                );
            }
        }
        let n = 100;
        for (rows, cols, via) in [
            (10..20, 40..73, 10..20),
            (40..73, 10..20, 10..20),
            (0..9, 50..74, 30..47),
            (60..100, 60..100, 60..100),
        ] {
            let d = weights(n, n, 99);
            let mut expect = d.clone();
            fw_rows(&mut expect, rows.clone(), cols.clone(), via.clone());
            let grid = SharedGrid::from_vec(n, n, d.data().to_vec());
            if minplus_fw_block(&grid, rows.clone(), cols.clone(), via.clone()) {
                assert!(
                    bits(&Matrix::from_vec(n, n, grid.snapshot())) == bits(&expect),
                    "{rows:?} x {cols:?} via {via:?}"
                );
            }
        }
    }

    #[test]
    fn bool_in_place_blocks_match_the_row_loop() {
        for n in [1usize, 7, 24, 63, 64, 65, 100, 128] {
            let d = bools(n, n, n as u64 + 5);
            let mut expect = d.clone();
            fw_rows(&mut expect, 0..n, 0..n, 0..n);
            let grid = SharedGrid::from_vec(n, n, d.data().to_vec());
            if bool_fw_block(&grid, 0..n, 0..n, 0..n) {
                assert_eq!(grid.snapshot(), expect.data().to_vec(), "n={n}");
            }
        }
    }

    #[test]
    fn wide_blocks_are_declined() {
        let grid = SharedGrid::new(130, 130, MinPlus(1.0));
        assert!(!minplus_fw_block(&grid, 0..130, 0..65, 0..130));
        let grid = SharedGrid::new(130, 130, BoolSemiring(true));
        assert!(!bool_fw_block(&grid, 0..130, 0..129, 0..130));
    }
}
