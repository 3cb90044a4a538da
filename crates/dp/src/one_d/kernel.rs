//! Sequential 1D kernels: the self-updating triangle and the external-updating
//! square (Lemma 5 of the paper).

use paco_core::shared::SharedSlice;
use std::ops::Range;

/// Default base-case length of the recursive decomposition (an alias of the
/// hoisted workspace default in [`paco_core::tuning`]).
pub const DEFAULT_BASE_1D: usize = paco_core::tuning::ONE_D_BASE;

/// The 1D weight function: `w(i, j)` must be computable in O(1) time with no
/// memory accesses (the problem statement's requirement).
pub trait Weight: Sync {
    /// Weight of the transition from breakpoint `i` to breakpoint `j` (`i < j`).
    fn w(&self, i: usize, j: usize) -> f64;
}

impl Weight for paco_core::workload::ParagraphWeight {
    #[inline]
    fn w(&self, i: usize, j: usize) -> f64 {
        paco_core::workload::ParagraphWeight::w(self, i, j)
    }
}

/// Any `Fn(i, j) -> f64` closure usable as a weight function.
#[derive(Clone, Copy, Debug)]
pub struct FnWeight<F>(pub F);

impl<F: Fn(usize, usize) -> f64 + Sync> Weight for FnWeight<F> {
    #[inline]
    fn w(&self, i: usize, j: usize) -> f64 {
        (self.0)(i, j)
    }
}

/// Reference implementation: the plain double loop.  `O(n²)` time.
pub fn one_d_reference<W: Weight>(n: usize, w: &W, d0: f64) -> Vec<f64> {
    let mut d = vec![f64::INFINITY; n + 1];
    d[0] = d0;
    for j in 1..=n {
        for i in 0..j {
            let cand = d[i] + w.w(i, j);
            if cand < d[j] {
                d[j] = cand;
            }
        }
    }
    d
}

/// External update of the output range `out` from the *disjoint, already final*
/// input range `inp` (`inp` entirely precedes `out`): for every `j ∈ out`,
/// `dst[j] = min(dst[j], src[i] + w(i, j))` over all `i ∈ inp`.
///
/// `src` and `dst` may alias (the usual in-place case) or differ (the PACO
/// y-cut accumulates into a temporary).  The recursion halves the longer
/// dimension of the `inp × out` rectangle until the base case, giving the
/// cache-oblivious `O(|inp|·|out|/(LZ) + (|inp|+|out|)/L)` miss bound of
/// Lemma 5; `dst_off` translates output indices into `dst` (used when `dst` is
/// a temporary that only covers `out`).
pub fn square_update<W: Weight>(
    src: &SharedSlice<f64>,
    dst: &SharedSlice<f64>,
    dst_off: usize,
    inp: Range<usize>,
    out: Range<usize>,
    w: &W,
    base: usize,
) {
    let ni = inp.len();
    let no = out.len();
    if ni == 0 || no == 0 {
        return;
    }
    if ni <= base && no <= base {
        for j in out {
            let mut best = dst.get(j - dst_off);
            for i in inp.clone() {
                let cand = src.get(i) + w.w(i, j);
                if cand < best {
                    best = cand;
                }
            }
            dst.set(j - dst_off, best);
        }
        return;
    }
    if ni >= no {
        let mid = inp.start + ni / 2;
        square_update(src, dst, dst_off, inp.start..mid, out.clone(), w, base);
        square_update(src, dst, dst_off, mid..inp.end, out, w, base);
    } else {
        let mid = out.start + no / 2;
        square_update(src, dst, dst_off, inp.clone(), out.start..mid, w, base);
        square_update(src, dst, dst_off, inp, mid..out.end, w, base);
    }
}

/// Self-updating triangle over the index range `range`: on entry, `d[range.start]`
/// is final and every other `d[j]`, `j ∈ range`, already reflects all
/// contributions from indices `< range.start`; on exit all of them are final.
///
/// The recursion is the paper's `CO-1D△`: solve the left half, apply the
/// external update of the right half from the left half, solve the right half.
pub fn triangle_co<W: Weight>(d: &SharedSlice<f64>, range: Range<usize>, w: &W, base: usize) {
    let len = range.len();
    if len <= 1 {
        return;
    }
    if len <= base {
        for j in range.start + 1..range.end {
            let mut best = d.get(j);
            for i in range.start..j {
                let cand = d.get(i) + w.w(i, j);
                if cand < best {
                    best = cand;
                }
            }
            d.set(j, best);
        }
        return;
    }
    let mid = range.start + len / 2;
    triangle_co(d, range.start..mid, w, base);
    square_update(d, d, 0, range.start..mid, mid..range.end, w, base);
    triangle_co(d, mid..range.end, w, base);
}

/// Sequential cache-oblivious 1D algorithm (the paper's `CO-1D`): returns the
/// full `D[0..=n]` array.
pub fn one_d_sequential_co<W: Weight>(n: usize, w: &W, d0: f64, base: usize) -> Vec<f64> {
    let d = SharedSlice::new(n + 1, f64::INFINITY);
    d.set(0, d0);
    triangle_co(&d, 0..n + 1, w, base.max(2));
    d.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_core::workload::ParagraphWeight;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn reference_tiny_cases() {
        let w = FnWeight(|i: usize, j: usize| (j - i) as f64);
        // D[j] = min over i of D[i] + (j - i) = D[0] + j (any path has equal cost).
        let d = one_d_reference(5, &w, 1.0);
        assert!(close(&d, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        // n = 0: only the initial value.
        let d = one_d_reference(0, &w, 3.5);
        assert!(close(&d, &[3.5]));
    }

    #[test]
    fn convex_weight_prefers_ideal_gap() {
        let w = ParagraphWeight { ideal: 3.0 };
        let d = one_d_reference(9, &w, 0.0);
        // Breaking every 3 positions costs 0.
        assert!(d[9].abs() < 1e-9);
        assert!(d[8] > 0.0);
    }

    #[test]
    fn co_matches_reference_across_sizes_and_bases() {
        let w = ParagraphWeight { ideal: 7.0 };
        for &n in &[1usize, 2, 5, 17, 64, 100, 257] {
            let expect = one_d_reference(n, &w, 0.0);
            for &base in &[2usize, 8, 32, 1024] {
                let got = one_d_sequential_co(n, &w, 0.0, base);
                assert!(close(&expect, &got), "n={n} base={base}");
            }
        }
    }

    #[test]
    fn square_update_with_offset_temporary() {
        // Accumulate the contribution of inputs 0..4 to outputs 4..8 into a
        // temporary that only covers the output range, then compare with the
        // in-place result.
        let w = ParagraphWeight { ideal: 2.0 };
        let n = 8;
        let d = SharedSlice::new(n, 0.0f64);
        for i in 0..n {
            d.set(i, i as f64);
        }
        let tmp = SharedSlice::new(4, f64::INFINITY);
        square_update(&d, &tmp, 4, 0..4, 4..8, &w, 2);
        for j in 4..8 {
            let mut best = f64::INFINITY;
            for i in 0..4 {
                best = f64::min(best, i as f64 + w.w(i, j));
            }
            assert!((tmp.get(j - 4) - best).abs() < 1e-9, "j={j}");
        }
    }

    #[test]
    fn closure_weights_work() {
        let w = FnWeight(|i: usize, j: usize| ((j * 7 + i * 3) % 13) as f64);
        let expect = one_d_reference(120, &w, 0.0);
        let got = one_d_sequential_co(120, &w, 0.0, 8);
        assert!(close(&expect, &got));
    }
}
