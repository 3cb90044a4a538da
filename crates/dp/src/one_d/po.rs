//! Processor-oblivious 1D baseline.
//!
//! Identical recursive structure to the sequential algorithm, but the
//! external-updating squares are parallelised by recursively halving the
//! *output* range with `rayon::join` (two halves read the same inputs and write
//! disjoint outputs, so no temporary is needed).  The triangle spine remains
//! sequential, giving the `O(n²/p + n)` running time of the PO row in Table I.
//! Scheduling is left entirely to rayon's randomized work stealing, i.e. the
//! algorithm uses no knowledge of `p` — that is what makes it the PO
//! competitor.

use super::kernel::{square_update, Weight};
use paco_core::shared::SharedSlice;
use std::ops::Range;

/// Processor-oblivious parallel 1D: returns the full `D[0..=n]` array.
pub fn one_d_po<W: Weight>(n: usize, w: &W, d0: f64, base: usize) -> Vec<f64> {
    let base = base.max(2);
    let d = SharedSlice::new(n + 1, f64::INFINITY);
    d.set(0, d0);
    triangle_po(&d, 0..n + 1, w, base);
    d.snapshot()
}

fn triangle_po<W: Weight>(d: &SharedSlice<f64>, range: Range<usize>, w: &W, base: usize) {
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
    triangle_po(d, range.start..mid, w, base);
    square_po(d, range.start..mid, mid..range.end, w, base);
    triangle_po(d, mid..range.end, w, base);
}

/// Parallel external update: split the output range until it reaches the base
/// size; the two output halves are independent because they only *read* the
/// input range.
fn square_po<W: Weight>(
    d: &SharedSlice<f64>,
    inp: Range<usize>,
    out: Range<usize>,
    w: &W,
    base: usize,
) {
    if out.len() <= base {
        square_update(d, d, 0, inp, out, w, base);
        return;
    }
    let mid = out.start + out.len() / 2;
    rayon::join(
        || square_po(d, inp.clone(), out.start..mid, w, base),
        || square_po(d, inp.clone(), mid..out.end, w, base),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_d::kernel::one_d_reference;
    use paco_core::workload::ParagraphWeight;

    #[test]
    fn matches_reference() {
        let w = ParagraphWeight { ideal: 9.0 };
        for &n in &[1usize, 10, 63, 128, 300, 511] {
            let expect = one_d_reference(n, &w, 0.0);
            let got = one_d_po(n, &w, 0.0, 16);
            for j in 0..=n {
                assert!((expect[j] - got[j]).abs() < 1e-9, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn nonzero_initial_value_propagates() {
        let w = ParagraphWeight { ideal: 4.0 };
        let expect = one_d_reference(100, &w, 2.5);
        let got = one_d_po(100, &w, 2.5, 8);
        assert!((expect[100] - got[100]).abs() < 1e-9);
    }
}
