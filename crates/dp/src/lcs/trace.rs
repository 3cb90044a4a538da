//! Hirschberg-style linear-space LCS traceback: edit scripts, not lengths.
//!
//! Every LCS variant in this crate answers *how long* the common subsequence
//! is; the service's incremental/compositional workloads (ROADMAP item 5)
//! also need *which* edits turn one sequence into the other — a diff.  The
//! classic way to recover the alignment without materializing the `n × m`
//! traceback table is Hirschberg's divide-and-conquer: compute the last DP
//! row forward over the left half of `a` and backward over the right half,
//! split `b` at the column maximizing `forward[k] + backward[m-k]`, and
//! recurse on the two sub-problems.  Linear space, and at most twice the DP
//! cells of the plain length computation (each level evaluates every cell of
//! its sub-rectangle once per direction, and the rectangles halve).
//!
//! The recovered script is a sequence of [`EditOp`]s that replays `a` into
//! `b`; its `Keep` count is exactly the LCS length (asserted bit-for-bit
//! against [`lcs_reference`](crate::lcs::lcs_reference) by the `tests/incr.rs`
//! proptests).

/// One step of an edit script transforming sequence `a` into sequence `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// The symbol is common to both sequences (part of the LCS).
    Keep(u32),
    /// The symbol occurs in `a` only and is deleted.
    Delete(u32),
    /// The symbol occurs in `b` only and is inserted.
    Insert(u32),
}

/// Number of `Keep` ops — the LCS length the script certifies.
pub fn lcs_of_script(script: &[EditOp]) -> u32 {
    script
        .iter()
        .filter(|op| matches!(op, EditOp::Keep(_)))
        .count() as u32
}

/// Replay a script against `a`, producing the sequence it encodes (`b` for a
/// valid script).  Panics if the script's `Keep`/`Delete` ops do not match
/// `a` symbol-for-symbol — the replay is a validity check, not just a decode.
pub fn replay(script: &[EditOp], a: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut ai = a.iter();
    for op in script {
        match *op {
            EditOp::Keep(c) => {
                assert_eq!(ai.next(), Some(&c), "Keep op disagrees with `a`");
                out.push(c);
            }
            EditOp::Delete(c) => {
                assert_eq!(ai.next(), Some(&c), "Delete op disagrees with `a`");
            }
            EditOp::Insert(c) => out.push(c),
        }
    }
    assert!(
        ai.next().is_none(),
        "script leaves a tail of `a` unconsumed"
    );
    out
}

/// Last row of the LCS DP table of `a` vs `b` (forward orientation), i.e.
/// `row[j] = LCS(a, b[..j])`.  Two-row iterative sweep, `|a|·|b|` cells.
fn last_row(a: &[u32], b: &[u32], cells: &mut u64) -> Vec<u32> {
    let m = b.len();
    let mut prev = vec![0u32; m + 1];
    let mut cur = vec![0u32; m + 1];
    for &ac in a {
        for j in 1..=m {
            cur[j] = if ac == b[j - 1] {
                prev[j - 1] + 1
            } else {
                cur[j - 1].max(prev[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
        cur[0] = 0;
    }
    *cells += (a.len() * m) as u64;
    prev
}

fn hirschberg_rec(a: &[u32], b: &[u32], script: &mut Vec<EditOp>, cells: &mut u64) {
    if a.is_empty() {
        script.extend(b.iter().map(|&c| EditOp::Insert(c)));
        return;
    }
    if b.is_empty() {
        script.extend(a.iter().map(|&c| EditOp::Delete(c)));
        return;
    }
    if a.len() == 1 {
        // One row: keep the first match of a[0] in b, insert everything else.
        let c = a[0];
        match b.iter().position(|&x| x == c) {
            Some(k) => {
                script.extend(b[..k].iter().map(|&x| EditOp::Insert(x)));
                script.push(EditOp::Keep(c));
                script.extend(b[k + 1..].iter().map(|&x| EditOp::Insert(x)));
            }
            None => {
                script.push(EditOp::Delete(c));
                script.extend(b.iter().map(|&x| EditOp::Insert(x)));
            }
        }
        *cells += b.len() as u64;
        return;
    }

    let mid = a.len() / 2;
    let fwd = last_row(&a[..mid], b, cells);
    let rev_a: Vec<u32> = a[mid..].iter().rev().copied().collect();
    let rev_b: Vec<u32> = b.iter().rev().copied().collect();
    let bwd = last_row(&rev_a, &rev_b, cells);
    // Split b where forward + mirrored-backward is maximal.
    let m = b.len();
    let split = (0..=m).max_by_key(|&k| fwd[k] + bwd[m - k]).unwrap_or(0);
    hirschberg_rec(&a[..mid], &b[..split], script, cells);
    hirschberg_rec(&a[mid..], &b[split..], script, cells);
}

/// Recover an LCS edit script of `a` vs `b` in linear space.
///
/// The returned script [`replay`]s `a` into `b` and its [`lcs_of_script`]
/// equals the exact LCS length.
pub fn hirschberg(a: &[u32], b: &[u32]) -> Vec<EditOp> {
    let mut script = Vec::with_capacity(a.len().max(b.len()));
    hirschberg_rec(a, b, &mut script, &mut 0);
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::lcs_reference;
    use paco_core::workload::{random_sequence, related_sequences};

    fn check(a: &[u32], b: &[u32]) {
        let script = hirschberg(a, b);
        assert_eq!(replay(&script, a), b, "script must replay a into b");
        assert_eq!(
            lcs_of_script(&script),
            lcs_reference(a, b),
            "Keep count must equal the exact LCS length"
        );
    }

    #[test]
    fn related_and_independent_sequences_roundtrip() {
        let (a, b) = related_sequences(257, 4, 0.3, 21); // non-power-of-two
        check(&a, &b);
        let a = random_sequence(100, 6, 1);
        let b = random_sequence(83, 6, 2);
        check(&a, &b);
    }

    #[test]
    fn degenerate_shapes() {
        check(&[], &[]);
        check(&[1, 2, 3], &[]);
        check(&[], &[4, 5]);
        check(&[7], &[7]);
        check(&[7], &[8]);
        check(&[1, 2, 3], &[1, 2, 3]); // identical
        check(&[1, 1, 1], &[1, 1]); // repeated symbols
    }

    #[test]
    fn traceback_costs_at_most_twice_the_plain_dp() {
        let (a, b) = related_sequences(300, 4, 0.2, 5);
        let mut script = Vec::new();
        let mut cells = 0u64;
        hirschberg_rec(&a, &b, &mut script, &mut cells);
        assert_eq!(script, hirschberg(&a, &b));
        let plain = (a.len() * b.len()) as u64;
        assert!(
            cells <= 2 * plain + (a.len() + b.len()) as u64,
            "cells {cells} vs plain {plain}"
        );
        assert!(std::mem::size_of_val(script.as_slice()) > 0);
    }
}
