//! Semiring-specialized leaf kernels: the sealed [`SpecializedKernel`] hook.
//!
//! The generic leaf loops (`mm_base` in `paco-matmul`, the Floyd–Warshall
//! `relax` in `paco-graph`) are written over [`Semiring`](crate::semiring)
//! trait calls.  That is the right *generic* shape, but for the handful of
//! concrete instances the service actually runs hot — `f64` classic MM,
//! `MinPlus`/`BoolSemiring` path relaxation — a branch-free, row-sliced
//! inner loop beats the per-element `at`/`set` + trait-dispatch form.  This
//! module is the hook those leaf kernels consult:
//!
//! * every hook returns a `bool` — **`true` means "handled, the generic loop
//!   must not run"**, `false` (the default every instance inherits) means
//!   "not specialized, fall back to the generic loop".  The bool-flag shape
//!   exists because `SpecializedKernel` is a *supertrait* of `Semiring`, so
//!   its defaults cannot call semiring ops without a cycle;
//! * the trait is **sealed**: `Semiring` itself is only implementable inside
//!   `paco-core`, so a specialized kernel is added next to the semiring it
//!   serves (see the README's "Leaf kernels" section for the recipe);
//! * every specialization is **bit-identical** to the generic loop it
//!   replaces — the same reduction order, the same fused operations — which
//!   `tests/kernel_agreement.rs` proves property-by-property.  The tropical
//!   fast paths additionally skip annihilator weights (`w = 0̄` contributes
//!   `0̄ ⊗ x = 0̄`, the `⊕`-identity) and run compare-select `min`/`max` —
//!   the exact x86 `minpd`/`maxpd` semantics, so the rows vectorize — which
//!   equals `f64::min`/`max` for all non-NaN inputs (`±0.0` ties may differ
//!   in sign bit but compare `==`; NaN distances are outside the kernels'
//!   contract, as they are for `f64::min`/`max` themselves);
//! * `MinPlus` and `BoolSemiring` answer the two block hooks
//!   ([`mm_block`](SpecializedKernel::mm_block) and
//!   [`relax_block`](SpecializedKernel::relax_block)) with the AVX-512
//!   leaves of [`crate::simd`] when the process dispatched to them, and
//!   decline otherwise, so their row hooks run exactly as before.

use crate::matrix::{MatMut, MatRef};
use crate::semiring::{
    BoolSemiring, Bottleneck, CountMod, MaxPlus, MinPlus, Viterbi, WrappingRing,
};
use crate::shared::SharedGrid;
use std::ops::Range;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
    impl Sealed for crate::semiring::WrappingRing {}
    impl Sealed for crate::semiring::MinPlus {}
    impl Sealed for crate::semiring::MaxPlus {}
    impl Sealed for crate::semiring::BoolSemiring {}
    impl Sealed for crate::semiring::Viterbi {}
    impl Sealed for crate::semiring::Bottleneck {}
    impl<const M: u64> Sealed for crate::semiring::CountMod<M> {}
}

/// Per-instance fast-path hooks the leaf kernels consult before running
/// their generic loops.  Sealed; see the module docs for the contract.
pub trait SpecializedKernel: sealed::Sealed + Sized {
    /// Whether this instance overrides at least one hook — what the
    /// `sched::kernel` dispatch counters report as "specialized".
    const SPECIALIZED: bool = false;

    /// Row relaxation `dst[j] = dst[j] ⊕ (w ⊗ src[j])` over disjoint rows.
    ///
    /// Return `true` if handled; the caller guarantees
    /// `dst.len() == src.len()` and that `dst` and `src` do not overlap.
    #[inline]
    fn relax_row(_dst: &mut [Self], _w: Self, _src: &[Self]) -> bool {
        false
    }

    /// Self-relaxation `dst[j] = dst[j] ⊕ (w ⊗ dst[j])` — the `i == k` row
    /// of a Floyd–Warshall phase, where source and destination alias.
    ///
    /// Return `true` if handled.
    #[inline]
    fn relax_row_aliased(_dst: &mut [Self], _w: Self) -> bool {
        false
    }

    /// Leaf matrix multiply-accumulate `C = C ⊕ (A ⊗ B)` over row-major
    /// windows (`c`: `m×n`, `a`: `m×k`, `b`: `k×n`).
    ///
    /// Return `true` if handled.
    #[inline]
    fn mm_block(_c: &mut MatMut<'_, Self>, _a: &MatRef<'_, Self>, _b: &MatRef<'_, Self>) -> bool {
        false
    }

    /// In-place Floyd–Warshall block relax over one shared table:
    /// `D[i][j] = D[i][j] ⊕ (D[i][k] ⊗ D[k][j])` for `k ∈ via`, then
    /// `i ∈ rows`, then `j ∈ cols`, reading `D[i][k]` once per `(k, i)` —
    /// the block may overlap row `k` and column `k` (the A/B/C roles).
    ///
    /// Return `true` if handled; the caller owns `rows × cols` under the
    /// [`crate::shared`] wave discipline.
    #[inline]
    fn relax_block(
        _grid: &SharedGrid<Self>,
        _rows: Range<usize>,
        _cols: Range<usize>,
        _via: Range<usize>,
    ) -> bool {
        false
    }
}

impl SpecializedKernel for f64 {
    const SPECIALIZED: bool = true;

    // The FW relax hooks stay at their generic defaults: `f64` is not an
    // idempotent semiring, so no in-place closure kernel can instantiate it.
    #[inline]
    fn mm_block(c: &mut MatMut<'_, Self>, a: &MatRef<'_, Self>, b: &MatRef<'_, Self>) -> bool {
        crate::simd::mm_f64(c, a, b);
        true
    }
}

impl SpecializedKernel for f32 {}

impl SpecializedKernel for WrappingRing {}

impl SpecializedKernel for MinPlus {
    const SPECIALIZED: bool = true;

    #[inline]
    fn relax_row(dst: &mut [MinPlus], w: MinPlus, src: &[MinPlus]) -> bool {
        debug_assert_eq!(dst.len(), src.len());
        if w.0 == f64::INFINITY {
            // w is the annihilator: w ⊗ s = 0̄ and d ⊕ 0̄ = d, a no-op row.
            return true;
        }
        for (d, s) in dst.iter_mut().zip(src) {
            // Compare-select rather than `f64::min`: this is exactly x86
            // `minpd` (second operand on NaN), so the loop vectorizes to one
            // `vaddpd` + `vminpd` per lane instead of minnum's compare/blend
            // expansion.  Equal to `min` for every non-NaN input (and `==` to
            // it even across a ±0.0 tie).
            let c = w.0 + s.0;
            d.0 = if c < d.0 { c } else { d.0 };
        }
        true
    }

    #[inline]
    fn relax_row_aliased(dst: &mut [MinPlus], w: MinPlus) -> bool {
        if w.0 == f64::INFINITY {
            return true;
        }
        for d in dst.iter_mut() {
            let c = w.0 + d.0;
            d.0 = if c < d.0 { c } else { d.0 };
        }
        true
    }

    #[inline]
    fn mm_block(c: &mut MatMut<'_, Self>, a: &MatRef<'_, Self>, b: &MatRef<'_, Self>) -> bool {
        crate::simd::minplus_mm(c, a, b)
    }

    #[inline]
    fn relax_block(
        grid: &SharedGrid<Self>,
        rows: Range<usize>,
        cols: Range<usize>,
        via: Range<usize>,
    ) -> bool {
        crate::simd::minplus_fw_block(grid, rows, cols, via)
    }
}

impl SpecializedKernel for MaxPlus {
    const SPECIALIZED: bool = true;

    #[inline]
    fn relax_row(dst: &mut [MaxPlus], w: MaxPlus, src: &[MaxPlus]) -> bool {
        debug_assert_eq!(dst.len(), src.len());
        if w.0 == f64::NEG_INFINITY {
            return true;
        }
        for (d, s) in dst.iter_mut().zip(src) {
            // Compare-select = x86 `maxpd`; see the `MinPlus` hook.
            let c = w.0 + s.0;
            d.0 = if c > d.0 { c } else { d.0 };
        }
        true
    }

    #[inline]
    fn relax_row_aliased(dst: &mut [MaxPlus], w: MaxPlus) -> bool {
        if w.0 == f64::NEG_INFINITY {
            return true;
        }
        for d in dst.iter_mut() {
            let c = w.0 + d.0;
            d.0 = if c > d.0 { c } else { d.0 };
        }
        true
    }
}

impl SpecializedKernel for BoolSemiring {
    const SPECIALIZED: bool = true;

    #[inline]
    fn relax_row(dst: &mut [BoolSemiring], w: BoolSemiring, src: &[BoolSemiring]) -> bool {
        debug_assert_eq!(dst.len(), src.len());
        if !w.0 {
            // w = false annihilates: d ∨ (false ∧ s) = d.
            return true;
        }
        for (d, s) in dst.iter_mut().zip(src) {
            d.0 |= s.0;
        }
        true
    }

    #[inline]
    fn relax_row_aliased(_dst: &mut [BoolSemiring], _w: BoolSemiring) -> bool {
        // d ∨ (w ∧ d) = d for every w: the aliased row is always a no-op.
        true
    }

    #[inline]
    fn mm_block(c: &mut MatMut<'_, Self>, a: &MatRef<'_, Self>, b: &MatRef<'_, Self>) -> bool {
        crate::simd::bool_mm(c, a, b)
    }

    #[inline]
    fn relax_block(
        grid: &SharedGrid<Self>,
        rows: Range<usize>,
        cols: Range<usize>,
        via: Range<usize>,
    ) -> bool {
        crate::simd::bool_fw_block(grid, rows, cols, via)
    }
}

impl SpecializedKernel for Viterbi {
    const SPECIALIZED: bool = true;

    #[inline]
    fn relax_row(dst: &mut [Viterbi], w: Viterbi, src: &[Viterbi]) -> bool {
        debug_assert_eq!(dst.len(), src.len());
        if w.0 == 0.0 {
            // w is the annihilator (likelihoods are non-negative, so
            // d ⊕ (0 ⊗ s) = max(d, 0) = d): a no-op row.
            return true;
        }
        for (d, s) in dst.iter_mut().zip(src) {
            // Compare-select = x86 `maxpd`; see the `MinPlus` hook.
            let c = w.0 * s.0;
            d.0 = if c > d.0 { c } else { d.0 };
        }
        true
    }

    #[inline]
    fn relax_row_aliased(dst: &mut [Viterbi], w: Viterbi) -> bool {
        if w.0 == 0.0 {
            return true;
        }
        for d in dst.iter_mut() {
            let c = w.0 * d.0;
            d.0 = if c > d.0 { c } else { d.0 };
        }
        true
    }
}

impl SpecializedKernel for Bottleneck {
    const SPECIALIZED: bool = true;

    #[inline]
    fn relax_row(dst: &mut [Bottleneck], w: Bottleneck, src: &[Bottleneck]) -> bool {
        debug_assert_eq!(dst.len(), src.len());
        if w.0 == f64::NEG_INFINITY {
            // min(−∞, s) = −∞ and d ⊕ −∞ = d: a no-op row.
            return true;
        }
        for (d, s) in dst.iter_mut().zip(src) {
            // min then max compare-select (`minpd` + `maxpd`).
            let c = if w.0 < s.0 { w.0 } else { s.0 };
            d.0 = if c > d.0 { c } else { d.0 };
        }
        true
    }

    #[inline]
    fn relax_row_aliased(_dst: &mut [Bottleneck], _w: Bottleneck) -> bool {
        // max(d, min(w, d)) = d for every w: the aliased row is always a
        // no-op, like the boolean semiring's.
        true
    }
}

// `CountMod` keeps the generic defaults: modular reduction in the inner loop
// has no branch-free compare-select form, and the closure paths reject it
// anyway (not idempotent).
impl<const M: u64> SpecializedKernel for CountMod<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::Semiring;

    /// The generic loop each hook replaces, for direct agreement checks
    /// (the cross-crate proptests live in `tests/kernel_agreement.rs`).
    fn generic_relax<S: Semiring>(dst: &mut [S], w: S, src: &[S]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = d.mul_add(w, *s);
        }
    }

    #[test]
    fn min_plus_relax_matches_generic_including_annihilator() {
        let src: Vec<MinPlus> = [1.0, 0.5, f64::INFINITY, -2.0, 7.25]
            .iter()
            .map(|&v| MinPlus(v))
            .collect();
        for w in [MinPlus(0.0), MinPlus(2.5), MinPlus(f64::INFINITY)] {
            let mut spec: Vec<MinPlus> = [3.0, f64::INFINITY, 0.0, 1.0, -1.0]
                .iter()
                .map(|&v| MinPlus(v))
                .collect();
            let mut gen = spec.clone();
            assert!(MinPlus::relax_row(&mut spec, w, &src));
            generic_relax(&mut gen, w, &src);
            assert_eq!(spec, gen, "w = {w:?}");
        }
    }

    #[test]
    fn bool_aliased_relax_is_a_no_op() {
        let mut row = vec![BoolSemiring(true), BoolSemiring(false)];
        let before = row.clone();
        assert!(BoolSemiring::relax_row_aliased(
            &mut row,
            BoolSemiring(true)
        ));
        assert_eq!(row, before);
        // And the generic loop agrees that it *should* be a no-op.
        let mut gen = before.clone();
        for d in gen.iter_mut() {
            *d = d.mul_add(BoolSemiring(true), *d);
        }
        assert_eq!(gen, before);
    }

    #[test]
    fn viterbi_and_bottleneck_relax_match_generic() {
        let v_src: Vec<Viterbi> = [0.5, 1.0, 0.0, 0.25].iter().map(|&v| Viterbi(v)).collect();
        for w in [Viterbi(0.0), Viterbi(0.5), Viterbi(1.0)] {
            let mut spec: Vec<Viterbi> =
                [0.125, 0.0, 1.0, 0.5].iter().map(|&v| Viterbi(v)).collect();
            let mut gen = spec.clone();
            assert!(Viterbi::relax_row(&mut spec, w, &v_src));
            generic_relax(&mut gen, w, &v_src);
            assert_eq!(spec, gen, "w = {w:?}");
        }

        let b_src: Vec<Bottleneck> = [3.0, f64::INFINITY, -1.0, f64::NEG_INFINITY]
            .iter()
            .map(|&v| Bottleneck(v))
            .collect();
        for w in [
            Bottleneck(f64::NEG_INFINITY),
            Bottleneck(2.0),
            Bottleneck(f64::INFINITY),
        ] {
            let mut spec: Vec<Bottleneck> = [0.0, -5.0, 4.0, f64::NEG_INFINITY]
                .iter()
                .map(|&v| Bottleneck(v))
                .collect();
            let mut gen = spec.clone();
            assert!(Bottleneck::relax_row(&mut spec, w, &b_src));
            generic_relax(&mut gen, w, &b_src);
            assert_eq!(spec, gen, "w = {w:?}");
            // The aliased row must be the no-op the hook claims it is.
            let before = spec.clone();
            assert!(Bottleneck::relax_row_aliased(&mut spec, w));
            assert_eq!(spec, before);
        }
    }

    #[test]
    fn unspecialized_instances_report_defaults() {
        // Dispatch counters must report these as generic (compile-time
        // constants, checked via the runtime hooks below to keep clippy's
        // constant-assertion lint quiet).
        assert_eq!(
            [
                f32::SPECIALIZED,
                WrappingRing::SPECIALIZED,
                CountMod::<7>::SPECIALIZED
            ],
            [false; 3]
        );
        let mut dst = [WrappingRing(1), WrappingRing(2)];
        let src = [WrappingRing(3), WrappingRing(4)];
        assert!(!WrappingRing::relax_row(&mut dst, WrappingRing(5), &src));
        assert!(!WrappingRing::relax_row_aliased(&mut dst, WrappingRing(5)));
    }
}
