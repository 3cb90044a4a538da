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
//! * **re-closing batches on FW's plan** — a batch whose first effective
//!   update worsens an edge compiles to exactly `plan_fw(n, p)`'s plan, an
//!   improving one to one step; within one `Session::flush` or one engine
//!   pass, requests on a handle keep their submission order around a
//!   re-closure that commits at finish; a re-closure bound before another
//!   batch reached the state falls back to exact sequential work; and the
//!   parallel re-closure of non-integer weights is bit-identical to
//!   `fw_seq`.
//!
//! Sizes are drawn from ranges straddling non-powers-of-two, so block
//! boundaries with ragged tails are always exercised.

use paco_core::matrix::Matrix;
use paco_core::semiring::{BoolSemiring, Bottleneck, MinPlus, Semiring};
use paco_core::tuning::{INCR_BLOCK, INCR_FALLBACK_PERCENT};
use paco_core::workload::{random_adjacency, random_digraph, related_sequences};
use paco_graph::{fw_reference, fw_seq, plan_fw, FwPlan, LeafCall};
use paco_service::{
    ClosedGraph, ClosedState, EdgeUpdate, Engine, HandleRegistry, IncClose, IncSnapshot, IncUpdate,
    LcsTrace, Session, Solve, Tuning, UpdateStats,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A graph held by a session or an engine, plus the requests on it.
struct Held {
    registry: Arc<HandleRegistry>,
    handle: ClosedGraph<MinPlus>,
}

impl Held {
    fn update(&self, updates: Vec<EdgeUpdate<MinPlus>>) -> IncUpdate<MinPlus> {
        IncUpdate {
            handle: self.handle,
            updates,
            registry: Arc::clone(&self.registry),
        }
    }

    fn snapshot(&self) -> IncSnapshot<MinPlus> {
        IncSnapshot {
            handle: self.handle,
            registry: Arc::clone(&self.registry),
        }
    }
}

fn held_by(session: &Session, adj: &Matrix<MinPlus>) -> Held {
    let registry = session.registry();
    let handle = session.run(IncClose {
        adj: adj.clone(),
        registry: Arc::clone(&registry),
    });
    Held { registry, handle }
}

/// The first finite off-diagonal edge of `adj`, row-major.
fn finite_edge(adj: &Matrix<MinPlus>) -> (usize, usize) {
    let n = adj.rows();
    (0..n * n)
        .map(|c| (c / n, c % n))
        .find(|&(u, v)| u != v && adj[(u, v)].0.is_finite())
        .expect("a finite edge")
}

/// A batch whose first update raises a finite edge: it re-closes in full.
fn worsening_batch(adj: &Matrix<MinPlus>) -> Vec<EdgeUpdate<MinPlus>> {
    let (u, v) = finite_edge(adj);
    vec![
        EdgeUpdate::new(u, v, MinPlus(adj[(u, v)].0 + 7.5)),
        EdgeUpdate::new(2, 5, MinPlus(1.0)),
    ]
}

/// Expected outputs: `batches` applied in order by `ClosedState::apply_batch`.
fn apply_in_order(
    adj: &Matrix<MinPlus>,
    tuning: &Tuning,
    batches: &[&[EdgeUpdate<MinPlus>]],
) -> (ClosedState<MinPlus>, Vec<UpdateStats>) {
    let mut state = ClosedState::close(adj.clone(), tuning.fw_base);
    let stats = batches
        .iter()
        .map(|b| {
            state.apply_batch(
                b,
                tuning.incr_block,
                tuning.incr_fallback_percent,
                tuning.fw_base,
            )
        })
        .collect();
    (state, stats)
}

/// A re-closing batch compiles to exactly FW's plan — same waves, steps and
/// plan efficiency — and runs it; an improving batch compiles to one step.
#[test]
fn a_reclosing_batch_runs_exactly_fws_plan() {
    let adj = random_digraph(97, 0.1, 40, 3);
    for p in [1, 2, 3, 5] {
        let session = Session::new(p);
        let held = held_by(&session, &adj);
        let base = session.tuning().fw_base;
        let fw = plan_fw(97, p, base);
        let fw_eff = fw.plan.profile(None, LeafCall::cost).eff();

        let reclose = held.update(worsening_batch(&adj));
        let skeleton = reclose.skeleton(session.tuning(), p);
        let compiled: Arc<FwPlan> = skeleton.payload().expect("FW's skeleton");
        assert_eq!(skeleton.waves(), fw.plan.waves().len(), "p = {p}");
        assert_eq!(skeleton.steps(), fw.plan.steps(), "p = {p}");
        assert_eq!(compiled.plan.profile(None, LeafCall::cost).eff(), fw_eff);

        let before = session.cache_stats();
        session.run(reclose);
        let ran = session.last_stats();
        assert_eq!(ran.plan_waves, fw.plan.waves().len() as u64, "p = {p}");
        assert_eq!(ran.plan_steps, fw.plan.steps() as u64, "p = {p}");
        // The re-closure shares the `"closure"` entry `IncClose` compiled.
        assert_eq!(session.cache_stats().hits, before.hits + 1);

        let improving = held.update(vec![EdgeUpdate::new(4, 90, MinPlus(1.0))]);
        assert_eq!(improving.skeleton(session.tuning(), p).steps(), 1);
        session.run(improving);
        assert_eq!(session.last_stats().plan_steps, 1, "p = {p}");
    }
}

/// The adjacency and the two batches of the same-pass ordering tests: a
/// re-closure that raises edge `(u, v)`, then an improvement of that same
/// edge.  Applied in the other order, the final weight of `(u, v)` differs.
fn same_pass_case() -> (
    Matrix<MinPlus>,
    Vec<EdgeUpdate<MinPlus>>,
    Vec<EdgeUpdate<MinPlus>>,
) {
    let adj = random_digraph(61, 0.12, 30, 29);
    let (u, v) = finite_edge(&adj);
    let reclose = worsening_batch(&adj);
    let improving = vec![EdgeUpdate::new(u, v, MinPlus(1.0))];
    (adj, reclose, improving)
}

/// Check a run of [re-closing update, improving update, snapshot] against
/// the two batches applied in submission order.
fn check_same_pass(
    adj: &Matrix<MinPlus>,
    tuning: &Tuning,
    batches: [&[EdgeUpdate<MinPlus>]; 2],
    got: [UpdateStats; 2],
    snapshot: Matrix<MinPlus>,
) {
    let (state, expect) = apply_in_order(adj, tuning, &batches);
    assert_eq!(got.to_vec(), expect);
    assert_eq!(expect[0].full_fallbacks, 1, "the first batch re-closes");
    let mut shadow = adj.clone();
    for up in batches.concat() {
        shadow[(up.from, up.to)] = up.weight;
    }
    assert_eq!(state.adjacency(), &shadow);
    assert_eq!(snapshot, fw_reference(&shadow));
}

/// A second graph for the same-pass tests, whose re-closing update is
/// followed directly by a snapshot: no improving update between them to
/// end the pass on its own.
fn reclose_then_snapshot_case() -> (Matrix<MinPlus>, Vec<EdgeUpdate<MinPlus>>) {
    let adj = random_digraph(40, 0.15, 30, 43);
    let reclose = worsening_batch(&adj);
    (adj, reclose)
}

/// Check a run of [re-closing update, snapshot] against the batch applied
/// before the snapshot.
fn check_reclose_then_snapshot(
    adj: &Matrix<MinPlus>,
    tuning: &Tuning,
    batch: &[EdgeUpdate<MinPlus>],
    got: UpdateStats,
    snapshot: Matrix<MinPlus>,
) {
    let (_, expect) = apply_in_order(adj, tuning, &[batch]);
    assert_eq!(got, expect[0]);
    assert_eq!(expect[0].full_fallbacks, 1, "the batch re-closes");
    let mut shadow = adj.clone();
    for up in batch {
        shadow[(up.from, up.to)] = up.weight;
    }
    assert_eq!(snapshot, fw_reference(&shadow));
}

#[test]
fn same_pass_order_holds_in_a_session_flush() {
    let (adj, reclose, improving) = same_pass_case();
    let (adj2, reclose2) = reclose_then_snapshot_case();
    let session = Session::new(2);
    let held = held_by(&session, &adj);
    let held2 = held_by(&session, &adj2);
    let t1 = session.submit(held.update(reclose.clone()));
    let t2 = session.submit(held.update(improving.clone()));
    let t3 = session.submit(held.snapshot());
    let t4 = session.submit(held2.update(reclose2.clone()));
    let t5 = session.submit(held2.snapshot());
    assert_eq!(session.flush(), 5);
    check_same_pass(
        &adj,
        session.tuning(),
        [&reclose, &improving],
        [t1.take(), t2.take()],
        t3.take(),
    );
    check_reclose_then_snapshot(&adj2, session.tuning(), &reclose2, t4.take(), t5.take());
}

#[test]
fn same_pass_order_holds_in_an_engine_pass() {
    let (adj, reclose, improving) = same_pass_case();
    let engine = Engine::builder().procs(2).build();
    let client = engine.client();
    let registry = engine.registry();
    let close = |adj: &Matrix<MinPlus>| {
        let handle = client
            .submit(IncClose {
                adj: adj.clone(),
                registry: Arc::clone(&registry),
            })
            .wait()
            .expect("close resolves");
        Held {
            registry: Arc::clone(&registry),
            handle,
        }
    };
    let held = close(&adj);
    let (adj2, reclose2) = reclose_then_snapshot_case();
    let held2 = close(&adj2);
    // Park the executor mid-pass: a snapshot of a second graph whose lock
    // this thread holds.
    let gate = close(&random_digraph(8, 0.3, 5, 1));
    let state = registry.get(gate.handle).expect("live handle");
    let lock = state.lock();
    let passes = engine.stats().passes();
    let parked = client.submit(gate.snapshot());
    let deadline = Instant::now() + Duration::from_secs(60);
    while engine.stats().passes() == passes {
        assert!(Instant::now() < deadline, "the gate pass never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    let t1 = client.submit(held.update(reclose.clone()));
    let t2 = client.submit(held.update(improving.clone()));
    let t3 = client.submit(held.snapshot());
    let t4 = client.submit(held2.update(reclose2.clone()));
    let t5 = client.submit(held2.snapshot());
    drop(lock);
    parked.wait().expect("gate resolves");
    let got = [
        t1.wait().expect("re-closing update"),
        t2.wait().expect("improving update"),
    ];
    let snapshot = t3.wait().expect("snapshot");
    let got2 = t4.wait().expect("second re-closing update");
    let snapshot2 = t5.wait().expect("second snapshot");
    // The five queued behind the gate and were drained as one batch.
    assert_eq!(engine.stats().passes(), passes + 2);
    check_same_pass(&adj, engine.tuning(), [&reclose, &improving], got, snapshot);
    check_reclose_then_snapshot(&adj2, engine.tuning(), &reclose2, got2, snapshot2);
}

/// A re-closing update bound before another batch reached the state
/// discards its table at finish and applies its batch afresh: the state
/// stays exact and the stats are those of the batches in execution order.
#[test]
fn a_stale_reclosure_applies_its_batch_afresh() {
    let adj = random_digraph(53, 0.15, 30, 31);
    let session = Session::new(2);
    let held = held_by(&session, &adj);
    let reclose = worsening_batch(&adj);
    let ticket = session.submit(held.update(reclose.clone()));
    let meanwhile = vec![EdgeUpdate::new(7, 40, MinPlus(1.0))];
    let first = session.run(held.update(meanwhile.clone()));
    session.flush();

    let tuning = session.tuning();
    let (state, expect) = apply_in_order(&adj, tuning, &[&meanwhile, &reclose]);
    assert_eq!(vec![first, ticket.take()], expect);
    let snapshot = session.run(held.snapshot());
    assert_eq!(&snapshot, state.closed());
    assert_eq!(snapshot, fw_seq(state.adjacency(), tuning.fw_base));
}

/// Non-integer weights make the closure depend on the order of each
/// cell's relaxations: the re-closure on FW's parallel plan must still
/// equal `fw_seq` bit for bit, at every processor count.
#[test]
fn a_worsening_first_batch_on_fractional_weights_matches_fw_seq() {
    let integral = random_digraph(83, 0.12, 60, 37);
    let adj = Matrix::from_fn(83, 83, |i, j| {
        let w = integral[(i, j)].0;
        MinPlus(if i == j || !w.is_finite() {
            w
        } else {
            w * 0.37 + 0.013 * (i + 2 * j) as f64
        })
    });
    for p in [1, 2, 3] {
        let session = Session::new(p);
        let base = session.tuning().fw_base;
        let held = held_by(&session, &adj);
        let batch = worsening_batch(&adj);
        let stats = session.run(held.update(batch.clone()));
        assert_eq!(
            session.last_stats().plan_steps,
            plan_fw(83, p, base).plan.steps() as u64
        );

        let (state, expect) = apply_in_order(&adj, session.tuning(), &[&batch]);
        assert_eq!(stats, expect[0]);
        let snapshot = session.run(held.snapshot());
        assert_eq!(snapshot, fw_seq(state.adjacency(), base), "p = {p}");
        assert_eq!(&snapshot, state.closed());
    }
}
