//! Runtime-dispatched leaf microkernels: the `f64` matrix-multiply leaf,
//! and the `MinPlus`/`BoolSemiring` closure leaves ([`minplus_mm`] and its
//! three siblings, in `simd/semiring.rs`).
//!
//! The generic `mm_base` loop calls [`Semiring::mul_add`] per element, which
//! for `f64` is `f64::mul_add` — and *outside* an FMA-enabled function that
//! lowers to a libm call, not an instruction, because the baseline `x86_64`
//! target does not assume FMA hardware.  This module fixes that without any
//! external SIMD crate (the offline shims rule them out) and without
//! changing results:
//!
//! * [`mm_f64`] dispatches **once per process** ([`std::sync::OnceLock`])
//!   between three modes, named by [`simd_mode`]:
//!   - `"avx512f"` — an 8×16 register tile (sixteen `__m512d` accumulators)
//!     over the `⌊m/8⌋·8 × ⌊n/16⌋·16` interior of the window; the right
//!     strip and bottom band go to the AVX2 kernel on sub-windows.  Taken
//!     when `is_x86_feature_detected!` confirms avx512f, avx2 and fma —
//!     probed once here, never per call.  This mode also turns on the
//!     `MinPlus` semiring leaves ([`minplus_mm`], [`minplus_fw_block`]),
//!     and the `BoolSemiring` ones ([`bool_mm`], [`bool_fw_block`]) when
//!     avx512bw is present too (their byte lanes need it; probed in the
//!     same once-per-process `detect`).  The other two modes leave those
//!     to the row loops of [`crate::kernel`].
//!   - `"avx2+fma"` — a 4×8 register tile (eight `__m256d` accumulators)
//!     with scalar FMA edges.  Taken when avx2 and fma are present but
//!     avx512f is not.
//!   - `"portable"` — a row-sliced loop; everywhere else, and whenever
//!     [`PACO_SIMD=off`](crate::tuning::SIMD_ENV_VAR) is set (the bench
//!     ablation dial, and the only switch).
//! * Every path — both vector tiles, the scalar edges, and the portable
//!   fallback — accumulates each output element over `l` in the same
//!   ascending order with a fused multiply-add (`vfmaddpd` is IEEE-754
//!   fused, exactly `f64::mul_add`), so all of them produce **bit-identical**
//!   results, and identical to the generic `Semiring` loop they replace.
//!   `tests/kernel_agreement.rs` holds them to that.
//!
//! [`Semiring::mul_add`]: crate::semiring::Semiring::mul_add

use crate::matrix::{MatMut, MatRef};
use std::sync::OnceLock;

mod semiring;
pub use semiring::{bool_fw_block, bool_mm, minplus_fw_block, minplus_mm};

/// Which microkernel [`mm_f64`] resolved to for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// AVX-512F 8×16 interior tile with AVX2 edges, plus the semiring
    /// leaves (x86-64 with avx512f, avx2 and fma; the `BoolSemiring`
    /// leaves also need avx512bw, see [`Dispatch`]).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx512,
    /// AVX2 + FMA register-blocked kernel (x86-64 with both features).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2Fma,
    /// Portable row-sliced `f64::mul_add` loop.
    Portable,
}

/// What [`detect`] found, once per process.
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    mode: Mode,
    /// Whether the `BoolSemiring` leaves run: [`Mode::Avx512`] and
    /// avx512bw (their byte compares and masked byte moves).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    bool_leaves: bool,
}

fn dispatch() -> Dispatch {
    static DISPATCH: OnceLock<Dispatch> = OnceLock::new();
    *DISPATCH.get_or_init(detect)
}

fn mode() -> Mode {
    dispatch().mode
}

#[cfg(target_arch = "x86_64")]
fn bool_leaves() -> bool {
    dispatch().bool_leaves
}

fn detect() -> Dispatch {
    let portable = Dispatch {
        mode: Mode::Portable,
        bool_leaves: false,
    };
    if std::env::var(crate::tuning::SIMD_ENV_VAR)
        .map(|v| v.trim().eq_ignore_ascii_case("off"))
        .unwrap_or(false)
    {
        return portable;
    }
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") && has!("fma") {
            if has!("avx512f") {
                return Dispatch {
                    mode: Mode::Avx512,
                    bool_leaves: has!("avx512bw"),
                };
            }
            return Dispatch {
                mode: Mode::Avx2Fma,
                bool_leaves: false,
            };
        }
    }
    portable
}

/// Panics unless `C ⊕= A ⊗ B` is well shaped (`c`: `m×n`, `a`: `m×k`,
/// `b`: `k×n`): the vector kernels index rows unchecked.
fn assert_mm_shapes<T: Copy>(c: &MatMut<'_, T>, a: &MatRef<'_, T>, b: &MatRef<'_, T>) {
    assert_eq!(c.rows(), a.rows(), "leaf mm: C and A row counts differ");
    assert_eq!(c.cols(), b.cols(), "leaf mm: C and B column counts differ");
    assert_eq!(a.cols(), b.rows(), "leaf mm: inner dimensions differ");
}

/// The microkernel this process dispatched to: `"avx512f"`, `"avx2+fma"`
/// or `"portable"`.  Resolved once on first use; exposed for gauges and
/// tests.
pub fn simd_mode() -> &'static str {
    match mode() {
        Mode::Avx512 => "avx512f",
        Mode::Avx2Fma => "avx2+fma",
        Mode::Portable => "portable",
    }
}

/// Leaf multiply-accumulate `C += A · B` over row-major `f64` windows
/// (`c`: `m×n`, `a`: `m×k`, `b`: `k×n`), through the per-process dispatch.
///
/// Bit-identical to the generic `Semiring::mul_add` triple loop in `i-l-j`
/// order regardless of which path is taken.
pub fn mm_f64(c: &mut MatMut<'_, f64>, a: &MatRef<'_, f64>, b: &MatRef<'_, f64>) {
    assert_mm_shapes(c, a, b);
    match mode() {
        Mode::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx512` is only ever selected by `detect` after
            // `is_x86_feature_detected!` confirmed avx512f, avx2 and fma.
            unsafe {
                mm_f64_avx512(c, a, b);
            }
            #[cfg(not(target_arch = "x86_64"))]
            mm_f64_portable(c, a, b);
        }
        Mode::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2Fma` is only ever selected by `detect` after
            // `is_x86_feature_detected!` confirmed avx2 and fma.
            unsafe {
                mm_f64_avx2(c, a, b);
            }
            #[cfg(not(target_arch = "x86_64"))]
            mm_f64_portable(c, a, b);
        }
        Mode::Portable => mm_f64_portable(c, a, b),
    }
}

/// The portable microkernel: row-sliced `i-l-j` loop with `f64::mul_add`.
///
/// Public so the agreement tests can compare it against whatever [`mm_f64`]
/// dispatched to in this process.
pub fn mm_f64_portable(c: &mut MatMut<'_, f64>, a: &MatRef<'_, f64>, b: &MatRef<'_, f64>) {
    let m = c.rows();
    let kk = a.cols();
    for i in 0..m {
        let ar = a.row(i);
        for (l, &ail) in ar.iter().enumerate().take(kk) {
            let br = b.row(l);
            let cr = c.row_mut(i);
            for (cj, &bj) in cr.iter_mut().zip(br) {
                *cj = ail.mul_add(bj, *cj);
            }
        }
    }
}

/// Register-blocked AVX-512F kernel: 8-row × 16-column accumulator tiles
/// (sixteen `__m512d` registers), two B loads and eight broadcast-FMAs per
/// `l`, over the `⌊m/8⌋·8 × ⌊n/16⌋·16` interior.  The right strip and the
/// bottom band run [`mm_f64_avx2`] on sub-windows, so the edges reuse its
/// 4×8 tile and scalar remainder.
///
/// # Safety
///
/// The caller must have verified that the running CPU supports AVX-512F,
/// AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn mm_f64_avx512(c: &mut MatMut<'_, f64>, a: &MatRef<'_, f64>, b: &MatRef<'_, f64>) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NR: usize = 16;
    let m = c.rows();
    let n = c.cols();
    let kk = a.cols();
    let full_m = m - m % MR;
    let full_n = n - n % NR;

    // Bounds: `mm_f64` asserted that the shapes agree, so A rows hold `kk`
    // elements and B/C rows `n`; `i + MR <= full_m <= m`, `l < kk` and
    // `j + NR <= full_n <= n` keep every load and store inside its row.
    let mut i = 0;
    while i < full_m {
        // The eight A rows of this row band, hoisted as shared slices.
        let ar: [&[f64]; MR] = std::array::from_fn(|r| a.row(i + r));
        let mut j = 0;
        while j < full_n {
            // Load the 8×16 C tile, one row borrow at a time.
            let mut acc = [[_mm512_setzero_pd(); 2]; MR];
            for (r, tile) in acc.iter_mut().enumerate() {
                let row = c.row(i + r).as_ptr().add(j);
                tile[0] = _mm512_loadu_pd(row);
                tile[1] = _mm512_loadu_pd(row.add(8));
            }
            for l in 0..kk {
                let br = b.row(l).as_ptr().add(j);
                let b0 = _mm512_loadu_pd(br);
                let b1 = _mm512_loadu_pd(br.add(8));
                for (tile, arow) in acc.iter_mut().zip(&ar) {
                    let av = _mm512_set1_pd(*arow.get_unchecked(l));
                    tile[0] = _mm512_fmadd_pd(av, b0, tile[0]);
                    tile[1] = _mm512_fmadd_pd(av, b1, tile[1]);
                }
            }
            for (r, tile) in acc.iter().enumerate() {
                let row = c.row_mut(i + r).as_mut_ptr().add(j);
                _mm512_storeu_pd(row, tile[0]);
                _mm512_storeu_pd(row.add(8), tile[1]);
            }
            j += NR;
        }
        i += MR;
    }
    // Right strip of the interior rows, then the full-width bottom band.
    if full_m > 0 && full_n < n {
        mm_f64_avx2(
            &mut c.rb().submatrix_mut(0, full_n, full_m, n - full_n),
            &a.submatrix(0, 0, full_m, kk),
            &b.submatrix(0, full_n, kk, n - full_n),
        );
    }
    if full_m < m {
        mm_f64_avx2(
            &mut c.rb().submatrix_mut(full_m, 0, m - full_m, n),
            &a.submatrix(full_m, 0, m - full_m, kk),
            b,
        );
    }
}

/// Register-blocked AVX2+FMA kernel: 4-row × 8-column accumulator tiles
/// (eight `__m256d` registers), one broadcast-FMA per `(row, l)` pair, with
/// scalar `f64::mul_add` edges compiled under the same target features (so
/// the remainder also lowers to `vfmadd`, not libm).
///
/// # Safety
///
/// The caller must have verified that the running CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mm_f64_avx2(c: &mut MatMut<'_, f64>, a: &MatRef<'_, f64>, b: &MatRef<'_, f64>) {
    use std::arch::x86_64::*;
    const MR: usize = 4;
    const NR: usize = 8;
    let m = c.rows();
    let n = c.cols();
    let kk = a.cols();
    let full_m = m - m % MR;
    let full_n = n - n % NR;

    let mut i = 0;
    while i < full_m {
        // The four A rows of this row band, hoisted as shared slices.
        let a0 = a.row(i);
        let a1 = a.row(i + 1);
        let a2 = a.row(i + 2);
        let a3 = a.row(i + 3);
        let mut j = 0;
        while j < full_n {
            // Load the 4×8 C tile into registers, one row at a time.
            let (mut c00, mut c01);
            let (mut c10, mut c11);
            let (mut c20, mut c21);
            let (mut c30, mut c31);
            {
                let r = c.row(i);
                c00 = _mm256_loadu_pd(r.as_ptr().add(j));
                c01 = _mm256_loadu_pd(r.as_ptr().add(j + 4));
                let r = c.row(i + 1);
                c10 = _mm256_loadu_pd(r.as_ptr().add(j));
                c11 = _mm256_loadu_pd(r.as_ptr().add(j + 4));
                let r = c.row(i + 2);
                c20 = _mm256_loadu_pd(r.as_ptr().add(j));
                c21 = _mm256_loadu_pd(r.as_ptr().add(j + 4));
                let r = c.row(i + 3);
                c30 = _mm256_loadu_pd(r.as_ptr().add(j));
                c31 = _mm256_loadu_pd(r.as_ptr().add(j + 4));
            }
            for l in 0..kk {
                let br = b.row(l);
                let b0 = _mm256_loadu_pd(br.as_ptr().add(j));
                let b1 = _mm256_loadu_pd(br.as_ptr().add(j + 4));
                let av = _mm256_set1_pd(*a0.get_unchecked(l));
                c00 = _mm256_fmadd_pd(av, b0, c00);
                c01 = _mm256_fmadd_pd(av, b1, c01);
                let av = _mm256_set1_pd(*a1.get_unchecked(l));
                c10 = _mm256_fmadd_pd(av, b0, c10);
                c11 = _mm256_fmadd_pd(av, b1, c11);
                let av = _mm256_set1_pd(*a2.get_unchecked(l));
                c20 = _mm256_fmadd_pd(av, b0, c20);
                c21 = _mm256_fmadd_pd(av, b1, c21);
                let av = _mm256_set1_pd(*a3.get_unchecked(l));
                c30 = _mm256_fmadd_pd(av, b0, c30);
                c31 = _mm256_fmadd_pd(av, b1, c31);
            }
            // Store the tile back, again one row borrow at a time.
            let r = c.row_mut(i);
            _mm256_storeu_pd(r.as_mut_ptr().add(j), c00);
            _mm256_storeu_pd(r.as_mut_ptr().add(j + 4), c01);
            let r = c.row_mut(i + 1);
            _mm256_storeu_pd(r.as_mut_ptr().add(j), c10);
            _mm256_storeu_pd(r.as_mut_ptr().add(j + 4), c11);
            let r = c.row_mut(i + 2);
            _mm256_storeu_pd(r.as_mut_ptr().add(j), c20);
            _mm256_storeu_pd(r.as_mut_ptr().add(j + 4), c21);
            let r = c.row_mut(i + 3);
            _mm256_storeu_pd(r.as_mut_ptr().add(j), c30);
            _mm256_storeu_pd(r.as_mut_ptr().add(j + 4), c31);
            j += NR;
        }
        // Column remainder of this row band (scalar, still under FMA).
        if full_n < n {
            for r in i..i + MR {
                scalar_edge(c, a, b, r, full_n, n, kk);
            }
        }
        i += MR;
    }
    // Row remainder: full-width scalar rows.
    for r in full_m..m {
        scalar_edge(c, a, b, r, 0, n, kk);
    }
}

/// Scalar edge of the AVX2 kernel: row `i`, columns `j0..j1`, compiled under
/// the same `avx2,fma` features so `f64::mul_add` stays a single `vfmadd`.
///
/// # Safety
///
/// Same contract as [`mm_f64_avx2`] (caller verified the target features).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn scalar_edge(
    c: &mut MatMut<'_, f64>,
    a: &MatRef<'_, f64>,
    b: &MatRef<'_, f64>,
    i: usize,
    j0: usize,
    j1: usize,
    kk: usize,
) {
    let ar = a.row(i);
    for j in j0..j1 {
        let mut acc = c.at(i, j);
        for (l, &ail) in ar.iter().enumerate().take(kk) {
            acc = ail.mul_add(b.at(l, j), acc);
        }
        c.set(i, j, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::workload::random_matrix_f64;

    type Kernel = fn(&mut MatMut<'_, f64>, &MatRef<'_, f64>, &MatRef<'_, f64>);

    #[cfg(target_arch = "x86_64")]
    fn avx2(c: &mut MatMut<'_, f64>, a: &MatRef<'_, f64>, b: &MatRef<'_, f64>) {
        // SAFETY: only listed by `kernels` after avx2 and fma were detected.
        unsafe { mm_f64_avx2(c, a, b) }
    }

    #[cfg(target_arch = "x86_64")]
    fn avx512(c: &mut MatMut<'_, f64>, a: &MatRef<'_, f64>, b: &MatRef<'_, f64>) {
        // SAFETY: only listed by `kernels` after avx512f, avx2 and fma were
        // detected.
        unsafe { mm_f64_avx512(c, a, b) }
    }

    /// Every kernel this CPU can run.  The vector kernels are called
    /// directly, so each is covered whatever [`mm_f64`] dispatched to —
    /// also under `PACO_SIMD=off`.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut out: Vec<(&'static str, Kernel)> =
            vec![("dispatched", mm_f64), ("portable", mm_f64_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                out.push(("avx2+fma", avx2));
                if has!("avx512f") {
                    out.push(("avx512f", avx512));
                }
            }
        }
        out
    }

    /// The generic `i-l-j` loop with one fused multiply-add per element,
    /// over the `a.rows() × b.cols()` window of `c` at `(r0, c0)`.
    fn generic_reference(
        c: &mut Matrix<f64>,
        r0: usize,
        c0: usize,
        a: &Matrix<f64>,
        b: &Matrix<f64>,
    ) {
        for i in 0..a.rows() {
            for l in 0..a.cols() {
                let ail = a.get(i, l);
                for j in 0..b.cols() {
                    let cur = c.get(r0 + i, c0 + j);
                    c.set(r0 + i, c0 + j, ail.mul_add(b.get(l, j), cur));
                }
            }
        }
    }

    fn bits(m: &Matrix<f64>) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    fn inputs(m: usize, k: usize, n: usize) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        let seed = (m * 10_000 + k * 100 + n) as u64;
        (
            random_matrix_f64(m, k, seed),
            random_matrix_f64(k, n, seed ^ 0x9e37),
            random_matrix_f64(m, n, seed ^ 0x79b9),
        )
    }

    #[test]
    fn dispatched_kernel_is_bit_identical_to_portable_and_generic() {
        // Shapes exercising full 8×16 and 4×8 tiles, the AVX-512 right strip
        // and bottom band, the AVX2 scalar edges, and an empty reduction.
        for &(m, k, n) in &[
            (8usize, 8usize, 16usize),
            (8, 0, 16),
            (9, 5, 17),
            (16, 3, 31),
            (7, 4, 16),
            (24, 48, 40),
            (13, 1, 33),
            (4, 3, 8),
            (5, 7, 9),
            (3, 5, 6),
            (13, 1, 17),
            (1, 4, 1),
            (6, 0, 6),
        ] {
            let (a, b, seed) = inputs(m, k, n);
            let mut generic = seed.clone();
            generic_reference(&mut generic, 0, 0, &a, &b);
            for (name, kernel) in kernels() {
                let mut got = seed.clone();
                kernel(&mut got.as_mut(), &a.as_ref(), &b.as_ref());
                assert!(
                    bits(&got) == bits(&generic),
                    "{m}x{k}x{n}: {name} disagrees with the generic loop (mode {})",
                    simd_mode()
                );
            }
        }
    }

    #[test]
    fn dispatch_mode_is_stable_and_named() {
        let mode = simd_mode();
        assert!(
            ["avx512f", "avx2+fma", "portable"].contains(&mode),
            "unknown mode {mode}"
        );
        assert_eq!(simd_mode(), mode, "dispatch must resolve once");
    }

    #[test]
    fn kernel_works_on_strided_windows() {
        // Multiply into a sub-window of a larger matrix: rows are strided,
        // which is exactly how the recursive splits hand leaves down.
        let (a, b, _) = inputs(4, 4, 4);
        let mut big = Matrix::filled(8, 8, 1.0f64);
        let mut expect = big.clone();
        mm_f64(
            &mut big.as_mut().submatrix_mut(2, 3, 4, 4),
            &a.as_ref(),
            &b.as_ref(),
        );
        generic_reference(&mut expect, 2, 3, &a, &b);
        assert_eq!(big, expect);
    }

    #[test]
    fn leaves_inside_768_wide_matrices_are_bit_identical() {
        // A 48³ and a 64³ leaf addressed the way the CO recursion hands them
        // down at 768³: every operand a window with a 768-element row stride.
        const W: usize = 768;
        let big_a = random_matrix_f64(W, W, 1);
        let big_b = random_matrix_f64(W, W, 2);
        let big_c = random_matrix_f64(W, W, 3);
        for s in [48usize, 64] {
            let (r0, c0, l0) = (5 * s, 3 * s, 7 * s);
            let a = big_a.as_ref().submatrix(r0, l0, s, s);
            let b = big_b.as_ref().submatrix(l0, c0, s, s);
            let mut generic = big_c.clone();
            generic_reference(&mut generic, r0, c0, &a.to_matrix(), &b.to_matrix());
            for (name, kernel) in kernels() {
                let mut got = big_c.clone();
                kernel(&mut got.as_mut().submatrix_mut(r0, c0, s, s), &a, &b);
                assert!(
                    bits(&got) == bits(&generic),
                    "{s}³ leaf in a {W}-wide matrix: {name} disagrees"
                );
            }
        }
    }
}
