//! Cross-crate integration tests of the Floyd–Warshall workload
//! (`paco-graph`): all three variants — sequential cache-oblivious, PO and
//! PACO — must produce *identical* output to the naive triple-loop reference
//! on random `(min, +)` digraphs and boolean adjacency matrices, for
//! arbitrary processor counts (including primes), and the traced replays must
//! reproduce the native results bit-for-bit.
//!
//! Exactness is by construction: `random_digraph` draws integer-valued `f64`
//! weights, whose sums and minima are exact, so there is no tolerance
//! anywhere in this file.

use paco_core::machine::CacheParams;
use paco_core::matrix::Matrix;
use paco_core::semiring::{Bottleneck, Semiring};
use paco_core::workload::{random_adjacency, random_digraph};
use paco_graph::{fw_paco_traced, fw_po, fw_reference, fw_seq, fw_seq_traced};
use paco_service::{Apsp, Backend, Closure, Session, Tuning};
use proptest::prelude::*;

/// A session whose Floyd–Warshall base-case side is pinned to `base`.
fn fw_session(p: usize, base: usize) -> Session {
    Session::builder()
        .procs(p)
        .tuning(Tuning {
            fw_base: base,
            ..Tuning::default()
        })
        .build()
}

#[test]
fn all_variants_agree_on_min_plus_digraphs() {
    for &(n, base) in &[(1usize, 4usize), (33, 4), (96, 16), (150, 32)] {
        let graph = random_digraph(n, 0.15, 100, n as u64);
        let expect = fw_reference(&graph);
        assert_eq!(fw_seq(&graph, base), expect, "seq n={n} base={base}");
        assert_eq!(fw_po(&graph, base), expect, "po n={n} base={base}");
        for p in [1usize, 2, 3, 4, 5, 7, 8] {
            let session = fw_session(p, base);
            assert_eq!(
                session.run(Apsp { adj: graph.clone() }),
                expect,
                "paco n={n} base={base} p={p}"
            );
        }
    }
}

#[test]
fn all_variants_agree_on_boolean_adjacency() {
    for &n in &[17usize, 64, 130] {
        let adj = random_adjacency(n, 0.06, 3 * n as u64);
        let expect = fw_reference(&adj);
        assert_eq!(fw_seq(&adj, 16), expect, "seq n={n}");
        assert_eq!(fw_po(&adj, 16), expect, "po n={n}");
        for p in [2usize, 5, 11] {
            let session = Session::new(p);
            assert_eq!(
                session.run(Closure { adj: adj.clone() }),
                expect,
                "paco n={n} p={p}"
            );
        }
    }
}

#[test]
fn prime_processor_counts_are_first_class() {
    // The paper's headline claim: the partitioning balances on any p.
    let graph = random_digraph(128, 0.2, 60, 1234);
    let expect = fw_reference(&graph);
    for p in [3usize, 5, 7, 11, 13] {
        let session = Session::new(p);
        assert_eq!(session.run(Apsp { adj: graph.clone() }), expect, "p={p}");
    }
}

#[test]
fn uneven_list_splits_cut_awkward_shapes_bit_identically() {
    // Proportional cuts hand `len · ⌊p/2⌋ / p` of a range to the smaller list
    // half: with fewer vertices than processors, one more than processors,
    // or unit base cases that share rounds to zero and a branch is empty.
    for p in [3usize, 5, 6, 7] {
        for &(n, base) in &[(p - 1, 1usize), (p + 1, 1), (p + 1, 2), (29, 1), (61, 4)] {
            let session = fw_session(p, base);
            let graph = random_digraph(n, 0.3, 40, (31 * n + p) as u64);
            let capacities = Matrix::from_fn(n, n, |i, j| match graph.get(i, j).0 {
                _ if i == j => Bottleneck::one(),
                w if w.is_finite() => Bottleneck(w),
                _ => Bottleneck::zero(),
            });
            let reach = random_adjacency(n, 0.1, (17 * n + p) as u64);
            assert_eq!(
                session.run(Closure {
                    adj: capacities.clone()
                }),
                fw_seq(&capacities, base),
                "bottleneck n={n} base={base} p={p}"
            );
            assert_eq!(
                session.run(Closure { adj: reach.clone() }),
                fw_seq(&reach, base),
                "bool n={n} base={base} p={p}"
            );
            assert_eq!(
                fw_seq(&graph, base),
                session.run(Apsp { adj: graph }),
                "minplus n={n} base={base} p={p}"
            );
        }
    }
}

#[test]
fn distributed_ranks_follow_the_odd_p_owners() {
    // At odd p the proportional cuts move leaves between owners; the
    // distributed backend derives its exchanges from the same plan, so three
    // ranks must still reproduce three local workers bit for bit.
    let graph = random_digraph(100, 0.15, 80, 23);
    let local = fw_session(3, 16);
    let dist = Session::builder()
        .procs(1)
        .backend(Backend::Distributed { ranks: 3 })
        .tuning(Tuning {
            fw_base: 16,
            ..Tuning::default()
        })
        .build();
    let want = local.run(Apsp { adj: graph.clone() });
    assert_eq!(want, fw_reference(&graph));
    assert_eq!(dist.run(Apsp { adj: graph }), want);
}

#[test]
fn traced_replays_reproduce_native_results_exactly() {
    let params = CacheParams::new(1024, 8);
    let graph = random_digraph(100, 0.2, 50, 77);
    let (seq_traced, q1_sim) = fw_seq_traced(&graph, 16, params);
    assert_eq!(seq_traced, fw_seq(&graph, 16));
    assert!(q1_sim.q_sum() > 0);
    for p in [2usize, 5] {
        let session = fw_session(p, 16);
        let (paco_traced, sim) = fw_paco_traced(&graph, p, 16, params);
        assert_eq!(
            paco_traced,
            session.run(Apsp { adj: graph.clone() }),
            "p={p}"
        );
        assert!(sim.q_sum() > 0, "p={p}");
    }
}

#[test]
fn paco_total_misses_stay_near_the_sequential_optimum() {
    // The PACO promise on this workload: Q^Σ_p stays within a small constant
    // factor of Q₁ (never anywhere near p·Q₁), and no single processor's
    // misses explode.
    let params = CacheParams::new(2048, 8);
    let graph = random_digraph(160, 0.15, 40, 5);
    let (_, seq_sim) = fw_seq_traced(&graph, 16, params);
    let q1 = seq_sim.q_sum() as f64;
    for p in [2usize, 4, 7] {
        let (_, sim) = fw_paco_traced(&graph, p, 16, params);
        let q_sum = sim.q_sum() as f64;
        assert!(
            q_sum < 3.0 * q1,
            "p={p}: Q_sum {q_sum} vs Q1 {q1} (p*Q1 = {})",
            p as f64 * q1
        );
        assert!(
            (sim.q_max() as f64) < 1.5 * q1,
            "p={p}: Q_max {} should be well below Q1 {q1}",
            sim.q_max()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn fw_variants_agree_on_random_digraphs(
        n in 1usize..90,
        p in 1usize..7,
        base in 1usize..40,
        density_milli in 0usize..400,
        seed in 0u64..1000,
    ) {
        let graph = random_digraph(n, density_milli as f64 / 1000.0, 64, seed);
        let expect = fw_reference(&graph);
        prop_assert_eq!(fw_seq(&graph, base), expect.clone());
        prop_assert_eq!(fw_po(&graph, base), expect.clone());
        let session = fw_session(p, base);
        prop_assert_eq!(session.run(Apsp { adj: graph }), expect);
    }

    #[test]
    fn fw_variants_agree_on_random_reachability(
        n in 1usize..90,
        p in 1usize..7,
        density_milli in 0usize..200,
        seed in 0u64..1000,
    ) {
        let adj = random_adjacency(n, density_milli as f64 / 1000.0, seed);
        let expect = fw_reference(&adj);
        prop_assert_eq!(fw_seq(&adj, 8), expect.clone());
        prop_assert_eq!(fw_po(&adj, 8), expect.clone());
        let session = fw_session(p, 8);
        prop_assert_eq!(session.run(Closure { adj }), expect);
    }
}
