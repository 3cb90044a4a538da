//! Agreement suite for the leaf-kernel fast paths (PR 8).
//!
//! The SIMD microkernel, the semiring-specialized Floyd–Warshall rows, the
//! branch-free LCS base block and the arena-pooled binds are all *pure
//! optimisations*: every one must produce **bit-identical** output to the
//! generic loop it replaces.  This file holds them to that:
//!
//! * `mm_base` over `f64` (which dispatches to the runtime-selected
//!   [`paco_core::simd`] microkernel) against a hand-written per-element
//!   reference in the same `i`-`l`-`j` fused-accumulation order, and the
//!   dispatched kernel against the portable one — on random shapes, on the
//!   tile-edge shapes of the 8×16 and 4×8 tiles, and on 48³/64³ leaves
//!   addressed inside 768-wide matrices.
//! * `Session` `MatMul<f64>` at 768³ against `co_mm_alloc`, bit for bit,
//!   for processor counts with and without height-cut temporaries.
//! * `mm_base` over [`WrappingRing`] — exact integer arithmetic, so the
//!   row-sliced refactor of the generic loop is checked with no tolerance.
//! * The Floyd–Warshall [`relax`] kernel over `MinPlus` and `BoolSemiring`:
//!   the `NullTracker` run takes the dispatched block leaves (AVX-512 where
//!   the process dispatched to it, the row hooks otherwise), the
//!   `SimTracker` run (tracking enabled) takes the historical generic loop —
//!   both in one process, compared cell by cell.
//! * Whole closures the same way: the dispatched sequential recursion and
//!   a multi-wave PACO plan on a pool, against the portable replay of the
//!   same recursion or plan through a tracker that only turns the fast
//!   paths off — bit for bit, for sizes and bases that put every mask
//!   width in some leaf, on non-integer weights with unreachable rows,
//!   negative edges and a negative cycle, and on `BoolSemiring`; and at
//!   n = 256, where the table's rows are padded.
//! * `mm_base` and `Session` `MatMul` over `MinPlus` and `BoolSemiring`
//!   (the semiring `mm_block` leaves) against the generic loop.
//! * The LCS [`base_block`] the same way: `NullTracker` runs the branch-free
//!   sweep, `SimTracker` the generic one.
//! * Arena reuse: warm same-shaped passes through one [`Session`] must
//!   return identical outputs while `arena_stats` reports a strictly
//!   positive reuse ratio.

use paco_cache_sim::{NullTracker, SimTracker, Tracker};
use paco_core::machine::CacheParams;
use paco_core::matrix::{MatMut, MatRef, Matrix};
use paco_core::semiring::{BoolSemiring, IdempotentSemiring, MinPlus, Semiring};
use paco_core::simd::{mm_f64, mm_f64_portable, simd_mode};
use paco_core::workload::{
    random_adjacency, random_digraph, random_keys, random_matrix_f64, random_matrix_wrapping,
    related_sequences,
};
use paco_dp::lcs::kernel::{base_block, lcs_reference, LcsAddr, LcsTable};
use paco_graph::seq::a_co;
use paco_graph::{fw_reference, fw_seq, relax, FwAddr, FwRun, FwTable};
use paco_matmul::co_mm::co_mm_alloc;
use paco_matmul::kernel::mm_base;
use paco_runtime::WorkerPool;
use paco_service::{Lcs, MatMul, Session, Sort};
use proptest::prelude::*;

/// The per-element generic loop `mm_base` historically ran: same
/// `i`-`l`-`j` order, same fused [`Semiring::mul_add`] per element.
fn mm_generic_reference<S: Semiring>(c: &mut Matrix<S>, a: &Matrix<S>, b: &Matrix<S>) {
    for i in 0..c.rows() {
        for l in 0..a.cols() {
            let ail = a.get(i, l);
            for j in 0..c.cols() {
                c.set(i, j, c.get(i, j).mul_add(ail, b.get(l, j)));
            }
        }
    }
}

/// An `f64` leaf kernel `C += A · B` over windows.
type F64Kernel = fn(&mut MatMut<'_, f64>, &MatRef<'_, f64>, &MatRef<'_, f64>);

fn bits(m: &Matrix<f64>) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// `C += A · B` through `mm_f64`, `mm_f64_portable` and `mm_base` on a
/// window of `c` at `(r0, c0)`, with `a` and `b` windows too; each must
/// match the generic loop bit for bit.
fn assert_f64_leaves_agree(
    c: &Matrix<f64>,
    r0: usize,
    c0: usize,
    a: MatRef<'_, f64>,
    b: MatRef<'_, f64>,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut window = c.as_ref().submatrix(r0, c0, m, n).to_matrix();
    mm_generic_reference(&mut window, &a.to_matrix(), &b.to_matrix());
    let mut generic = c.clone();
    generic
        .as_mut()
        .submatrix_mut(r0, c0, m, n)
        .copy_from(&window.as_ref());
    let runs: [(&str, F64Kernel); 3] = [
        ("mm_f64", mm_f64),
        ("mm_f64_portable", mm_f64_portable),
        ("mm_base", mm_base),
    ];
    for (name, kernel) in runs {
        let mut got = c.clone();
        kernel(&mut got.as_mut().submatrix_mut(r0, c0, m, n), &a, &b);
        assert!(
            bits(&got) == bits(&generic),
            "{m}x{k}x{n} at ({r0}, {c0}) of {}x{}: {name} disagrees under mode {}",
            c.rows(),
            c.cols(),
            simd_mode()
        );
    }
}

fn sim_tracker() -> SimTracker {
    SimTracker::new(1, CacheParams::new(1 << 14, 8))
}

/// A tracker that records nothing but still reports `TRACKING`, so every
/// leaf runs the portable per-element loop: the same recursion or plan as
/// the dispatched run, with no fast path.
struct Portable;
impl Tracker for Portable {}

fn minplus_bits(m: &Matrix<MinPlus>) -> Vec<u64> {
    m.data().iter().map(|v| v.0.to_bits()).collect()
}

/// Weighted inputs for the closure agreement checks: non-integer weights,
/// every fifth row without out-edges (all `+∞` but the diagonal), and
/// either no negative edge, negative edges on forward pairs only, or one
/// negative cycle `0 → 1 → 2 → 0` on top of the forward negatives.
fn hard_digraphs(n: usize, seed: u64) -> Vec<(&'static str, Matrix<MinPlus>)> {
    let r = random_matrix_f64(n, n, seed);
    let weight = |i: usize, j: usize, negatives: bool| {
        let x = r.get(i, j);
        if i == j {
            MinPlus(0.0)
        } else if i % 5 == 3 || x > 0.3 {
            MinPlus(f64::INFINITY)
        } else if negatives && i < j && x < -0.85 {
            MinPlus(x * 0.37 + 0.3)
        } else {
            MinPlus(x * 3.7 + 5.2)
        }
    };
    let positive = Matrix::from_fn(n, n, |i, j| weight(i, j, false));
    let negative = Matrix::from_fn(n, n, |i, j| weight(i, j, true));
    let mut cycle = negative.clone();
    if n >= 3 {
        cycle.set(0, 1, MinPlus(-2.25));
        cycle.set(1, 2, MinPlus(0.5));
        cycle.set(2, 0, MinPlus(0.625));
    }
    vec![
        ("positive", positive),
        ("negative edges", negative),
        ("negative cycle", cycle),
    ]
}

/// Close `adj` with the sequential recursion twice in one process —
/// dispatched leaves and the portable replay — and return both tables.
fn seq_both<S: IdempotentSemiring>(adj: &Matrix<S>, base: usize) -> (Matrix<S>, Matrix<S>) {
    let portable = FwTable::from_matrix(adj);
    let addr = FwAddr::new(adj.rows());
    a_co(&portable, 0..adj.rows(), base, &mut Portable, &addr);
    (fw_seq(adj, base), portable.to_matrix())
}

/// The same with a `p`-processor PACO plan: executed on a pool (one scope,
/// a barrier per wave), and replayed step by step through `Portable`.
fn plan_both<S: IdempotentSemiring>(
    adj: &Matrix<S>,
    p: usize,
    base: usize,
    pool: &WorkerPool,
) -> (Matrix<S>, Matrix<S>) {
    let run = FwRun::prepare(adj, p, base);
    run.plan().execute(pool, |proc, call| run.step(proc, call));
    let portable = FwTable::from_matrix(adj);
    let addr = FwAddr::new(adj.rows());
    run.plan()
        .for_each(|_, _, call| call.run(&portable, base, &mut Portable, &addr));
    (run.finish(), portable.to_matrix())
}

/// Sizes and bases that put every `MinPlus` mask width (1–8 live lanes)
/// and both boolean widths into some leaf.
const FW_SIZES: [usize; 9] = [1, 7, 23, 24, 25, 33, 48, 100, 129];
const FW_BASES: [usize; 4] = [8, 16, 24, 32];

#[test]
fn dispatched_closures_match_the_portable_replay_bit_for_bit() {
    for n in FW_SIZES {
        let graphs = hard_digraphs(n, 1000 + n as u64);
        let edges = random_adjacency(n, 0.08, 2000 + n as u64);
        for base in FW_BASES {
            for (kind, adj) in &graphs {
                let (fast, portable) = seq_both(adj, base);
                assert!(
                    minplus_bits(&fast) == minplus_bits(&portable),
                    "MinPlus {kind}, n = {n}, base = {base}, mode {}",
                    simd_mode()
                );
            }
            let (fast, portable) = seq_both(&edges, base);
            assert_eq!(fast, portable, "Bool n = {n}, base = {base}");
        }
    }
}

#[test]
fn dispatched_plans_match_the_portable_replay_bit_for_bit() {
    for p in [2usize, 3] {
        let pool = WorkerPool::new(p);
        for n in [25usize, 48, 100, 129] {
            let graphs = hard_digraphs(n, 3000 + n as u64);
            let edges = random_adjacency(n, 0.05, 4000 + n as u64);
            for base in [8usize, 24] {
                for (kind, adj) in &graphs {
                    let (fast, portable) = plan_both(adj, p, base, &pool);
                    assert!(
                        minplus_bits(&fast) == minplus_bits(&portable),
                        "MinPlus {kind}, n = {n}, p = {p}, base = {base}, mode {}",
                        simd_mode()
                    );
                }
                let (fast, portable) = plan_both(&edges, p, base, &pool);
                assert_eq!(fast, portable, "Bool n = {n}, p = {p}, base = {base}");
            }
        }
    }
}

/// At n = 256 a `MinPlus` row is 2 KiB, so the table's rows are padded to
/// a stride of 264: the dispatched leaves build their windows at that
/// stride, the portable replay addresses cells one by one.
#[test]
fn dispatched_closures_match_the_portable_replay_at_a_padded_n() {
    let n = 256;
    assert_eq!(FwTable::<MinPlus>::row_stride(n), n + 8);
    let pool = WorkerPool::new(2);
    for (kind, adj) in &hard_digraphs(n, 5000) {
        let (fast, portable) = seq_both(adj, 32);
        assert!(
            minplus_bits(&fast) == minplus_bits(&portable),
            "seq MinPlus {kind}, mode {}",
            simd_mode()
        );
        let (fast, portable) = plan_both(adj, 2, 32, &pool);
        assert!(
            minplus_bits(&fast) == minplus_bits(&portable),
            "p = 2 MinPlus {kind}, mode {}",
            simd_mode()
        );
    }
}

/// `Session` `MatMul` over the closure semirings (the `mm_block` leaves
/// under the MM-1-PIECE plan) against the generic `i-l-j` loop; `min` and
/// `∨` are exact in any order, so this holds bit for bit at every `p`.
#[test]
fn semiring_matmul_matches_the_generic_loop_bit_for_bit() {
    for &(n, k, m) in &[
        (1usize, 1usize, 1usize),
        (7, 9, 23),
        (25, 33, 24),
        (70, 41, 129),
    ] {
        let weights = &hard_digraphs(n.max(k).max(m), (n * k * m) as u64)[1].1;
        let a = weights.as_ref().submatrix(0, 0, n, k).to_matrix();
        let b = weights.as_ref().submatrix(0, 0, k, m).to_matrix();
        let mut expect = Matrix::zeros(n, m);
        mm_generic_reference(&mut expect, &a, &b);
        let ba = Matrix::from_fn(n, k, |i, j| BoolSemiring(a.get(i, j).0 < 4.0));
        let bb = Matrix::from_fn(k, m, |i, j| BoolSemiring(b.get(i, j).0 < 4.0));
        let mut bool_expect = Matrix::zeros(n, m);
        mm_generic_reference(&mut bool_expect, &ba, &bb);
        for p in [1usize, 3] {
            let session = Session::new(p);
            let got = session.run(MatMul {
                a: a.clone(),
                b: b.clone(),
            });
            assert!(
                minplus_bits(&got) == minplus_bits(&expect),
                "MinPlus {n}x{k}x{m}, p = {p}, mode {}",
                simd_mode()
            );
            let got = session.run(MatMul {
                a: ba.clone(),
                b: bb.clone(),
            });
            assert_eq!(got, bool_expect, "Bool {n}x{k}x{m}, p = {p}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// `f64` leaves route through the dispatched microkernel; results must
    /// be bit-identical to the per-element generic loop (both fuse with
    /// `mul_add` in the same accumulation order).
    #[test]
    fn f64_mm_base_is_bit_identical_to_the_generic_loop(
        n in 1usize..33,
        m in 1usize..33,
        k in 1usize..33,
        seed in 0u64..1000,
    ) {
        let a = random_matrix_f64(n, k, seed);
        let b = random_matrix_f64(k, m, seed ^ 0x9e37);
        let seed_c = random_matrix_f64(n, m, seed ^ 0x79b9);
        let mut fast = seed_c.clone();
        mm_base(&mut fast.as_mut(), &a.as_ref(), &b.as_ref());
        let mut generic = seed_c;
        mm_generic_reference(&mut generic, &a, &b);
        for i in 0..n {
            for j in 0..m {
                prop_assert_eq!(
                    fast.get(i, j).to_bits(),
                    generic.get(i, j).to_bits(),
                    "({}, {}) under mode {}", i, j, simd_mode()
                );
            }
        }
    }

    /// The dispatched kernel (AVX2+FMA where detected) agrees bit-for-bit
    /// with the portable kernel it replaces.
    #[test]
    fn dispatched_and_portable_f64_kernels_agree(
        n in 1usize..40,
        m in 1usize..40,
        k in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = random_matrix_f64(n, k, seed);
        let b = random_matrix_f64(k, m, seed ^ 0xabcd);
        let seed_c = random_matrix_f64(n, m, seed ^ 0x1234);
        let mut dispatched = seed_c.clone();
        mm_f64(&mut dispatched.as_mut(), &a.as_ref(), &b.as_ref());
        let mut portable = seed_c;
        mm_f64_portable(&mut portable.as_mut(), &a.as_ref(), &b.as_ref());
        for i in 0..n {
            for j in 0..m {
                prop_assert_eq!(
                    dispatched.get(i, j).to_bits(),
                    portable.get(i, j).to_bits(),
                    "({}, {}) under mode {}", i, j, simd_mode()
                );
            }
        }
    }

    /// Exact integer semiring: the row-sliced generic loop must match the
    /// per-element reference with no tolerance.
    #[test]
    fn wrapping_ring_mm_base_is_exact(
        n in 1usize..24,
        m in 1usize..24,
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        let a = random_matrix_wrapping(n, k, seed);
        let b = random_matrix_wrapping(k, m, seed ^ 0x55);
        let seed_c = random_matrix_wrapping(n, m, seed ^ 0xaa);
        let mut fast = seed_c.clone();
        mm_base(&mut fast.as_mut(), &a.as_ref(), &b.as_ref());
        let mut generic = seed_c;
        mm_generic_reference(&mut generic, &a, &b);
        prop_assert_eq!(fast, generic);
    }

    /// `MinPlus` leaves take the annihilator-skipping row fast path under
    /// `NullTracker`; the `SimTracker` replay runs the generic loop.  Both
    /// must close the graph identically (and match the triple-loop
    /// reference).
    #[test]
    fn min_plus_relax_fast_path_matches_generic(
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let adj = random_digraph(n, 0.2, 50, seed);
        let fast = FwTable::from_matrix(&adj);
        let addr = FwAddr::new(n);
        relax(&fast, 0..n, 0..n, 0..n, &mut NullTracker, &addr);
        let generic = FwTable::from_matrix(&adj);
        relax(&generic, 0..n, 0..n, 0..n, &mut sim_tracker(), &addr);
        prop_assert_eq!(fast.to_matrix(), generic.to_matrix());
        prop_assert_eq!(fast.to_matrix(), fw_reference(&adj));
    }

    /// Same agreement for boolean transitive closure (the `|=`-row fast
    /// path with its always-no-op aliased hook).
    #[test]
    fn bool_relax_fast_path_matches_generic(
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let adj = random_adjacency(n, 0.12, seed);
        let fast = FwTable::from_matrix(&adj);
        let addr = FwAddr::new(n);
        relax(&fast, 0..n, 0..n, 0..n, &mut NullTracker, &addr);
        let generic = FwTable::from_matrix(&adj);
        relax(&generic, 0..n, 0..n, 0..n, &mut sim_tracker(), &addr);
        prop_assert_eq!(fast.to_matrix(), generic.to_matrix());
        prop_assert_eq!(fast.to_matrix(), fw_reference(&adj));
    }

    /// `mm_base` over `MinPlus` and `BoolSemiring` windows of larger
    /// matrices (the semiring `mm_block` leaves, tile edges and masked
    /// tails included) against the per-element generic loop.
    #[test]
    fn semiring_mm_base_windows_match_the_generic_loop(
        n in 1usize..40,
        m in 1usize..70,
        k in 0usize..40,
        seed in 0u64..1000,
    ) {
        let big = &hard_digraphs(80, seed)[2].1;
        let a = big.as_ref().submatrix(3, 5, n, k);
        let b = big.as_ref().submatrix(7, 2, k, m);
        let mut expect = big.clone();
        let mut window = big.as_ref().submatrix(1, 9, n, m).to_matrix();
        mm_generic_reference(&mut window, &a.to_matrix(), &b.to_matrix());
        expect.as_mut().submatrix_mut(1, 9, n, m).copy_from(&window.as_ref());
        let mut got = big.clone();
        mm_base(&mut got.as_mut().submatrix_mut(1, 9, n, m), &a, &b);
        prop_assert!(minplus_bits(&got) == minplus_bits(&expect), "mode {}", simd_mode());

        let bools = Matrix::from_fn(80, 80, |i, j| BoolSemiring(big.get(i, j).0 < 4.0));
        let (a, b) = (bools.as_ref().submatrix(3, 5, n, k), bools.as_ref().submatrix(7, 2, k, m));
        let mut expect = bools.clone();
        let mut window = bools.as_ref().submatrix(1, 9, n, m).to_matrix();
        mm_generic_reference(&mut window, &a.to_matrix(), &b.to_matrix());
        expect.as_mut().submatrix_mut(1, 9, n, m).copy_from(&window.as_ref());
        let mut got = bools.clone();
        mm_base(&mut got.as_mut().submatrix_mut(1, 9, n, m), &a, &b);
        prop_assert_eq!(got, expect);
    }

    /// The branch-free LCS base block (NullTracker) fills the table exactly
    /// like the generic sweep (SimTracker) and the textbook reference.
    #[test]
    fn lcs_base_block_fast_path_matches_generic(
        n in 1usize..60,
        m in 1usize..60,
        seed in 0u64..1000,
    ) {
        let (a, b) = related_sequences(n.max(m), 4, 0.3, seed);
        let (a, b) = (&a[..n], &b[..m]);
        let addr = LcsAddr::new(n, m);
        let fast = LcsTable::new(n, m);
        base_block(&fast, a, b, 1..n + 1, 1..m + 1, &mut NullTracker, &addr);
        let generic = LcsTable::new(n, m);
        base_block(&generic, a, b, 1..n + 1, 1..m + 1, &mut sim_tracker(), &addr);
        prop_assert_eq!(fast.grid().snapshot(), generic.grid().snapshot());
        prop_assert_eq!(fast.lcs_length(), lcs_reference(a, b));
    }
}

/// The shapes around the 8×16 AVX-512 tile and the 4×8 AVX2 tile: full
/// tiles, an empty reduction, one-off right strips and bottom bands.
#[test]
fn f64_tile_edge_shapes_are_bit_identical() {
    for (idx, &(m, k, n)) in [
        (8usize, 8usize, 16usize),
        (8, 0, 16),
        (9, 5, 17),
        (16, 3, 31),
        (7, 4, 16),
        (24, 48, 40),
        (13, 1, 33),
    ]
    .iter()
    .enumerate()
    {
        let seed = 100 + idx as u64;
        let a = random_matrix_f64(m, k, seed);
        let b = random_matrix_f64(k, n, seed ^ 0x9e37);
        let c = random_matrix_f64(m, n, seed ^ 0x79b9);
        assert_f64_leaves_agree(&c, 0, 0, a.as_ref(), b.as_ref());
    }
}

/// 48³ and 64³ leaves addressed inside 768-wide matrices (a 6 KiB row
/// stride), as the cache-oblivious recursion hands them down at 768³.
#[test]
fn f64_leaves_inside_768_wide_matrices_are_bit_identical() {
    const W: usize = 768;
    let big_a = random_matrix_f64(W, W, 41);
    let big_b = random_matrix_f64(W, W, 42);
    let big_c = random_matrix_f64(W, W, 43);
    for s in [48usize, 64] {
        let (r0, c0, l0) = (3 * s, 5 * s, 2 * s);
        let a = big_a.as_ref().submatrix(r0, l0, s, s);
        let b = big_b.as_ref().submatrix(l0, c0, s, s);
        assert_f64_leaves_agree(&big_c, r0, c0, a, b);
    }
}

/// A `Session` `MatMul<f64>` at 768³ returns exactly `co_mm_alloc`'s
/// product.  p = 5 and p = 7 cut the reduction dimension, so their plans
/// also write height-cut temporaries and merge them.  The entries are
/// small integers, so every partial sum is exact and the product is the
/// same bits in any summation order: the check isolates the buffers, the
/// plan and the leaves from rounding.
#[test]
fn session_matmul_f64_768_matches_co_mm_bit_for_bit() {
    const N: usize = 768;
    let small_ints = |seed: u64| {
        let m = random_matrix_f64(N, N, seed);
        Matrix::from_fn(N, N, |i, j| (m.get(i, j) * 8.0).round())
    };
    let a = small_ints(51);
    let b = small_ints(52);
    let expect = bits(&co_mm_alloc(&a, &b));
    for p in [1usize, 2, 3, 5, 7] {
        let session = Session::new(p);
        let got = session.run(MatMul {
            a: a.clone(),
            b: b.clone(),
        });
        assert!(bits(&got) == expect, "p = {p} under mode {}", simd_mode());
    }
}

/// Warm passes through one session recycle their scratch buffers: the
/// outputs stay identical run over run while the arena reports hits.
#[test]
fn arena_reuse_keeps_outputs_identical_across_warm_passes() {
    let session = Session::new(2);
    let (a, b) = related_sequences(600, 4, 0.25, 17);
    let expect = lcs_reference(&a, &b);
    let keys = random_keys(4000, 23);
    let mut sorted = keys.clone();
    sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());

    let cold = session.arena_stats();
    assert_eq!(cold.hits, 0, "fresh session has no pooled buffers");

    for pass in 0..4 {
        let got = session.run(Lcs {
            a: a.clone(),
            b: b.clone(),
        });
        assert_eq!(got, expect, "pass {pass}");
        let got = session.run(Sort { keys: keys.clone() });
        assert_eq!(got, sorted, "pass {pass}");
    }

    let warm = session.arena_stats();
    assert!(
        warm.hits > 0,
        "warm passes must check buffers out of the pool: {warm:?}"
    );
    assert!(
        warm.reuse_ratio() > 0.0,
        "arena reuse ratio must be positive: {warm:?}"
    );
}
