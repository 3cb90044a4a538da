//! Property-based tests of the incremental subsystem (`paco_incr` through
//! `paco_service`):
//!
//! * **bit-identity** — after an arbitrary sequence of edge-update batches
//!   (improving, worsening, deleting; arbitrary block sizes and fallback
//!   thresholds, including "always fall back" and "never fall back"), the
//!   maintained closure is `==`-identical to a from-scratch re-closure of
//!   the final adjacency, for all three idempotent semirings whose
//!   operations are exact (`MinPlus` over integer-valued weights,
//!   `BoolSemiring`, `Bottleneck`);
//! * **traceback** — every `LcsTrace` edit script replays its first
//!   sequence into the second exactly, and its `Keep` count equals the
//!   reference LCS length;
//! * **incrementality** — a stream of modest single-edge improvements is
//!   served mostly by re-propagation, sweeping well under half of the block
//!   grid a full re-closure rewrites (summed from the returned
//!   `UpdateStats`).
//!
//! Sizes are drawn from ranges straddling non-powers-of-two, so block
//! boundaries with ragged tails are always exercised.

use paco_core::matrix::Matrix;
use paco_core::semiring::{BoolSemiring, Bottleneck, MinPlus, Semiring};
use paco_core::tuning::{INCR_BLOCK, INCR_FALLBACK_PERCENT};
use paco_core::workload::{random_adjacency, random_digraph, related_sequences};
use paco_graph::fw_reference;
use paco_service::{
    ClosedState, EdgeUpdate, IncClose, IncSnapshot, IncUpdate, LcsTrace, Session, UpdateStats,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Drive `state` through `updates` in batches of `batch` and assert the
/// maintained closure stays `==`-identical to `fw_reference` of a shadow
/// adjacency after **every** batch (not only at the end — intermediate
/// states are what an online caller observes).
fn check_batches<S: paco_core::semiring::IdempotentSemiring>(
    state: &mut ClosedState<S>,
    shadow: &mut Matrix<S>,
    updates: &[EdgeUpdate<S>],
    batch: usize,
    block: usize,
    fallback_percent: usize,
) {
    for chunk in updates.chunks(batch.max(1)) {
        for u in chunk {
            shadow[(u.from, u.to)] = u.weight;
        }
        state.apply_batch(chunk, block, fallback_percent, 16);
        assert_eq!(state.adjacency(), &*shadow, "adjacency drifted");
        assert_eq!(
            state.closed(),
            &fw_reference(shadow),
            "closure not bit-identical after a batch (block={block}, fallback={fallback_percent}%)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn min_plus_incremental_closure_is_bit_identical(
        n in 5usize..34,
        seed in 0u64..1000,
        raw in proptest::collection::vec((0usize..1000, 0usize..1000, 0u32..60), 1..10),
        batch in 1usize..4,
        block in 3usize..11,
        fp_idx in 0usize..3,
    ) {
        let fallback_percent = [0, 60, 100][fp_idx];
        let mut shadow = random_digraph(n, 0.12, 40, seed);
        let mut state = ClosedState::close(shadow.clone(), 16);
        let updates: Vec<EdgeUpdate<MinPlus>> = raw
            .iter()
            .map(|&(u, v, w)| {
                // w == 0 deletes the edge (+∞); small weights improve often,
                // large ones worsen — both paths stay exercised.
                let weight = if w == 0 { MinPlus::zero() } else { MinPlus(f64::from(w)) };
                EdgeUpdate::new(u % n, v % n, weight)
            })
            .collect();
        check_batches(&mut state, &mut shadow, &updates, batch, block, fallback_percent);
    }

    #[test]
    fn bool_incremental_closure_is_bit_identical(
        n in 5usize..30,
        seed in 0u64..1000,
        raw in proptest::collection::vec((0usize..1000, 0usize..1000, 0u32..4), 1..10),
        batch in 1usize..4,
        block in 3usize..9,
        fp_idx in 0usize..3,
    ) {
        let fallback_percent = [0, 60, 100][fp_idx];
        let mut shadow = random_adjacency(n, 0.08, seed);
        let mut state = ClosedState::close(shadow.clone(), 16);
        let updates: Vec<EdgeUpdate<BoolSemiring>> = raw
            .iter()
            .map(|&(u, v, w)| EdgeUpdate::new(u % n, v % n, BoolSemiring(w != 0)))
            .collect();
        check_batches(&mut state, &mut shadow, &updates, batch, block, fallback_percent);
    }

    #[test]
    fn bottleneck_incremental_closure_is_bit_identical(
        n in 5usize..30,
        seed in 0u64..1000,
        raw in proptest::collection::vec((0usize..1000, 0usize..1000, 0u32..40), 1..10),
        batch in 1usize..4,
        block in 3usize..9,
        fp_idx in 0usize..3,
    ) {
        let fallback_percent = [0, 60, 100][fp_idx];
        // Random capacities: diagonal ∞ (one), off-diagonal mostly -∞ (no
        // edge) with sparse finite capacities.
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(n as u64);
        let mut next = move || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut shadow = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                Bottleneck::one()
            } else if next() % 100 < 10 {
                Bottleneck((next() % 50) as f64)
            } else {
                Bottleneck::zero()
            }
        });
        let mut state = ClosedState::close(shadow.clone(), 16);
        let updates: Vec<EdgeUpdate<Bottleneck>> = raw
            .iter()
            .map(|&(u, v, w)| {
                // w == 0 severs the edge; otherwise a capacity that may
                // widen or narrow the existing one.
                let weight = if w == 0 { Bottleneck::zero() } else { Bottleneck(f64::from(w)) };
                EdgeUpdate::new(u % n, v % n, weight)
            })
            .collect();
        check_batches(&mut state, &mut shadow, &updates, batch, block, fallback_percent);
    }

    #[test]
    fn lcs_trace_scripts_replay_to_the_exact_lcs(
        n in 1usize..220,
        alphabet in 2u32..6,
        seed in 0u64..1000,
        mutation_pct in 0u32..70,
    ) {
        let (a, b) = related_sequences(n, alphabet, f64::from(mutation_pct) / 100.0, seed);
        let script = paco_dp::lcs::hirschberg(&a, &b);
        prop_assert_eq!(paco_dp::lcs::replay(&script, &a), b.clone());
        prop_assert_eq!(
            paco_dp::lcs::lcs_of_script(&script),
            paco_dp::lcs::lcs_reference(&a, &b)
        );
    }
}

/// The same bit-identity property driven through the service layer: typed
/// `IncClose`/`IncUpdate`/`IncSnapshot` requests against a `Session`, with
/// the update stream split across several submissions.
#[test]
fn service_level_update_stream_stays_exact() {
    let session = Session::new(2);
    let registry = session.registry();
    let mut shadow = random_digraph(29, 0.15, 30, 41);
    let handle = session.run(IncClose {
        adj: shadow.clone(),
        registry: Arc::clone(&registry),
    });

    let stream = [
        (3usize, 17usize, 1.0),
        (17, 28, 2.0),
        (28, 3, 900.0), // worsening: forces the full re-closure path
        (0, 11, 1.0),
        (11, 0, 1.0), // closes a 2-cycle through fresh edges
    ];
    for &(u, v, w) in &stream {
        shadow[(u, v)] = MinPlus(w);
        session.run(IncUpdate {
            handle,
            updates: vec![EdgeUpdate::new(u, v, MinPlus(w))],
            registry: Arc::clone(&registry),
        });
        let snapshot = session.run(IncSnapshot {
            handle,
            registry: Arc::clone(&registry),
        });
        assert_eq!(snapshot, fw_reference(&shadow));
    }
}

/// `LcsTrace` through the service layer, including the empty/degenerate
/// shapes the recursion bottoms out on.
#[test]
fn lcs_trace_request_handles_degenerate_shapes() {
    let session = Session::new(1);
    for (a, b) in [
        (vec![], vec![]),
        (vec![1, 2, 3], vec![]),
        (vec![], vec![4, 5]),
        (vec![7], vec![7]),
        (vec![1, 2, 3], vec![3, 2, 1]),
    ] {
        let script = session.run(LcsTrace {
            a: a.clone(),
            b: b.clone(),
        });
        assert_eq!(paco_dp::lcs::replay(&script, &a), b);
    }
}

/// 32 improving single-edge updates on an `n = 256` `MinPlus` closure,
/// applied one at a time (the online arrival pattern) at the default block
/// and fallback threshold.  Each is a shortcut of weight `d(u, v) − 1` — the
/// ordinary "a link got slightly faster" event the dirty-frontier path is
/// for.  Summed over the stream, the sweep must rewrite under half of the
/// blocks full re-closures would, and re-propagation must serve more
/// updates than fallbacks absorb.
#[test]
fn single_edge_improvements_sweep_under_half_the_grid() {
    const FW_BASE: usize = 64;
    let mut state = ClosedState::close(random_digraph(256, 0.15, 50, 17), FW_BASE);
    let n = state.n();
    let mut seed = 23u64;
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut totals = UpdateStats::default();
    for _ in 0..32 {
        let update = loop {
            let u = next() as usize % n;
            let v = (u + 1 + next() as usize % (n - 1)) % n;
            let d = state.closed()[(u, v)].0;
            if d.is_finite() && d > 1.0 {
                break EdgeUpdate::new(u, v, MinPlus(d - 1.0));
            }
        };
        let stats = state.apply_batch(&[update], INCR_BLOCK, INCR_FALLBACK_PERCENT, FW_BASE);
        totals = totals.merge(stats);
    }
    assert_eq!(totals.updates, 32);
    assert!(
        totals.repropagated_ratio() < 0.5,
        "swept {} of {} blocks",
        totals.blocks_repropagated,
        totals.blocks_total
    );
    assert!(
        totals.incremental > totals.full_fallbacks,
        "{} incremental vs {} fallbacks",
        totals.incremental,
        totals.full_fallbacks
    );
}
