//! Floyd–Warshall at sizes whose table rows are padded.
//!
//! `FwTable` stores rows one 64-byte line apart from each other when a row
//! of `n` cells is a multiple of 2 KiB (`MinPlus` at n = 256, 512, 768, …;
//! `BoolSemiring` at n = 2048, …).  Every entry point closes over that
//! layout, so every one is held here to the unpadded ground truth at a
//! padded size, bit for bit:
//!
//! * `fw_seq`, and `Session` runs at p ∈ {1, 2, 3, 5}, over `MinPlus` and
//!   `Bottleneck` at n = 256, against `fw_reference`;
//! * the distributed backend at three ranks (each rank's private table is
//!   padded too);
//! * an `IncUpdate` whose worsening batch re-closes on FW's parallel plan
//!   at p = 2;
//! * `BoolSemiring` at n = 2048 against breadth-first reachability, in
//!   release builds only (a debug build would take minutes).
//!
//! Integer weights keep every sum and minimum exact, so there is no
//! tolerance anywhere in this file.

use paco_core::matrix::Matrix;
use paco_core::semiring::{BoolSemiring, Bottleneck, MinPlus, Semiring};
use paco_core::workload::{random_adjacency, random_digraph};
use paco_graph::{fw_reference, fw_seq, plan_fw, FwTable};
use paco_service::{
    Apsp, Backend, ClosedState, Closure, EdgeUpdate, IncClose, IncSnapshot, IncUpdate, Session,
    Tuning,
};
use std::sync::Arc;

/// The smallest `MinPlus` size whose rows are padded.
const N: usize = 256;

/// Integer-weighted digraph on `N` vertices with finite edges.
fn weights(seed: u64) -> Matrix<MinPlus> {
    random_digraph(N, 0.03, 50, seed)
}

/// The same graph as bottleneck capacities (`+∞` weight → no capacity).
fn capacities(graph: &Matrix<MinPlus>) -> Matrix<Bottleneck> {
    Matrix::from_fn(graph.rows(), graph.cols(), |i, j| match graph[(i, j)].0 {
        _ if i == j => Bottleneck::one(),
        w if w.is_finite() => Bottleneck(w),
        _ => Bottleneck::zero(),
    })
}

#[test]
fn the_test_sizes_are_padded() {
    assert_eq!(FwTable::<MinPlus>::row_stride(N), N + 8);
    assert_eq!(FwTable::<Bottleneck>::row_stride(N), N + 8);
    assert_eq!(FwTable::<BoolSemiring>::row_stride(2048), 2048 + 64);
}

#[test]
fn sequential_and_session_closures_match_the_reference_at_a_padded_n() {
    let graph = weights(11);
    let flows = capacities(&graph);
    let want = fw_reference(&graph);
    let want_flows = fw_reference(&flows);
    let base = Tuning::default().fw_base;
    assert_eq!(fw_seq(&graph, base), want);
    assert_eq!(fw_seq(&flows, base), want_flows);
    for p in [1usize, 2, 3, 5] {
        let session = Session::new(p);
        assert_eq!(
            session.run(Apsp { adj: graph.clone() }),
            want,
            "MinPlus p = {p}"
        );
        assert_eq!(
            session.run(Closure { adj: flows.clone() }),
            want_flows,
            "Bottleneck p = {p}"
        );
    }
}

#[test]
fn three_distributed_ranks_match_the_reference_at_a_padded_n() {
    let graph = weights(12);
    let flows = capacities(&graph);
    let dist = Session::builder()
        .procs(1)
        .backend(Backend::Distributed { ranks: 3 })
        .build();
    let (want, want_flows) = (fw_reference(&graph), fw_reference(&flows));
    assert_eq!(dist.run(Apsp { adj: graph }), want);
    assert_eq!(dist.run(Closure { adj: flows }), want_flows);
}

#[test]
fn a_reclosing_update_at_a_padded_n_matches_the_reference() {
    let graph = weights(13);
    let session = Session::new(2);
    let tuning = session.tuning().clone();
    let registry = session.registry();
    let handle = session.run(IncClose {
        adj: graph.clone(),
        registry: Arc::clone(&registry),
    });
    // Raise the first finite off-diagonal edge: the batch re-closes in full.
    let (u, v) = (0..N * N)
        .map(|c| (c / N, c % N))
        .find(|&(u, v)| u != v && graph[(u, v)].0.is_finite())
        .expect("a finite edge");
    let batch = vec![
        EdgeUpdate::new(u, v, MinPlus(graph[(u, v)].0 + 9.0)),
        EdgeUpdate::new(3, 200, MinPlus(2.0)),
    ];
    let stats = session.run(IncUpdate {
        handle,
        updates: batch.clone(),
        registry: Arc::clone(&registry),
    });
    assert_eq!(
        session.last_stats().plan_steps,
        plan_fw(N, 2, tuning.fw_base).plan.steps() as u64,
        "the batch ran FW's parallel plan"
    );

    let mut expect = ClosedState::close(graph, tuning.fw_base);
    let expect_stats = expect.apply_batch(
        &batch,
        tuning.incr_block,
        tuning.incr_fallback_percent,
        tuning.fw_base,
    );
    assert_eq!(stats, expect_stats);
    let closed = session.run(IncSnapshot { handle, registry });
    assert_eq!(&closed, expect.closed());
    assert_eq!(closed, fw_reference(expect.adjacency()));
}

/// Reflexive-transitive reachability by one breadth-first search per
/// source: the closure of a `BoolSemiring` adjacency with a true diagonal.
fn reachability(adj: &Matrix<BoolSemiring>) -> Matrix<BoolSemiring> {
    let n = adj.rows();
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|u| (0..n).filter(|&v| adj[(u, v)].0).collect())
        .collect();
    let mut out = Matrix::filled(n, n, BoolSemiring(false));
    for s in 0..n {
        let mut stack = vec![s];
        out.set(s, s, BoolSemiring(true));
        while let Some(u) = stack.pop() {
            for &v in &succ[u] {
                if !out[(s, v)].0 {
                    out.set(s, v, BoolSemiring(true));
                    stack.push(v);
                }
            }
        }
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 2048 runs in release builds only")]
fn bool_closure_at_2048_matches_reachability() {
    let n = 2048;
    // Mean out-degree just above one: the closure is neither empty nor full.
    let adj = random_adjacency(n, 1.2 / n as f64, 2048);
    let want = reachability(&adj);
    assert_eq!(fw_seq(&adj, Tuning::default().fw_base), want, "fw_seq");
    assert_eq!(
        Session::new(2).run(Closure { adj }),
        want,
        "Session at p = 2"
    );
}
