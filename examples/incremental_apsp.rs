//! Incremental all-pairs shortest paths: close a graph once, then serve a
//! stream of edge updates by re-propagating only the dirty blocks.
//!
//! An `IncClose` request closes the adjacency through the ordinary parallel
//! FW plan and parks the result in the session's handle registry; each
//! `IncUpdate` then applies the single-edge formula
//! `D'[i][j] = D[i][j] ⊕ (D[i][u] ⊗ w ⊗ D[v][j])` over the dirty rectangle
//! only, falling back to a full re-closure when the frontier is too dense
//! (or the update is not an improvement — idempotent re-propagation can
//! never *raise* a distance).  The per-update table below shows the block
//! accounting: an ordinary "this link got faster" event touches a few
//! percent of the `⌈n/b⌉²` grid a from-scratch closure would redo.
//!
//! Run with `cargo run -p paco_examples --release --example incremental_apsp`.

use paco_core::semiring::MinPlus;
use paco_core::workload::random_digraph;
use paco_examples::section;
use paco_graph::fw_reference;
use paco_service::{EdgeUpdate, IncClose, IncSnapshot, IncUpdate, Session, UpdateStats};
use std::sync::Arc;

fn main() {
    let session = Session::with_available_parallelism();
    let registry = session.registry();
    let n = 96;
    let mut shadow = random_digraph(n, 0.15, 50, 11);
    println!(
        "Incremental PACO APSP: {n} vertices on {} processors (block = {}, fallback ≥ {}%)",
        session.p(),
        session.tuning().incr_block,
        session.tuning().incr_fallback_percent
    );

    section("Close once, keep the handle");
    let handle = session.run(IncClose {
        adj: shadow.clone(),
        registry: Arc::clone(&registry),
    });
    println!("closed graph registered as handle #{}", handle.id());

    section("Serve an update stream");
    // Seven modest improvements (distance − 1 shortcuts), then one
    // worsening update — the shortcut from step 1 gets *slower* again —
    // which must take the full re-closure: idempotent re-propagation can
    // only ever lower distances.
    let closed0 = session.run(IncSnapshot {
        handle,
        registry: Arc::clone(&registry),
    });
    let mut stream: Vec<EdgeUpdate<MinPlus>> = [
        (3usize, 77usize),
        (40, 8),
        (61, 15),
        (9, 52),
        (88, 30),
        (21, 70),
        (55, 2),
    ]
    .iter()
    .map(|&(u, v)| EdgeUpdate::new(u, v, MinPlus(closed0[(u, v)].0 - 1.0)))
    .collect();
    stream.push(EdgeUpdate::new(3, 77, MinPlus(500.0)));

    let grid = {
        let nb = n.div_ceil(session.tuning().incr_block);
        (nb * nb) as u64
    };
    println!("update           path         dirty rows×cols   blocks swept (grid {grid})");
    let mut totals = UpdateStats::default();
    for update in stream {
        shadow[(update.from, update.to)] = update.weight;
        let stats = session.run(IncUpdate {
            handle,
            updates: vec![update],
            registry: Arc::clone(&registry),
        });
        totals = totals.merge(stats);
        let path = if stats.full > 0 {
            "full re-close"
        } else {
            "incremental"
        };
        println!(
            "({:2} → {:2}) w={:>5}  {path:13}  {:4} × {:<4}       {:4}",
            update.from,
            update.to,
            update.weight.0,
            stats.frontier_rows,
            stats.frontier_cols,
            stats.blocks_repropagated,
        );
        // Every intermediate state is exact, not eventually-consistent.
        let snapshot = session.run(IncSnapshot {
            handle,
            registry: Arc::clone(&registry),
        });
        assert_eq!(
            snapshot,
            fw_reference(&shadow),
            "incremental closure must be bit-identical to a from-scratch one"
        );
    }

    section("Totals");
    println!(
        "updates: {} incremental + {} via full re-closure; blocks swept/total = {:.3}",
        totals.incremental,
        totals.full,
        totals.repropagated_ratio()
    );
    println!("every snapshot matched the triple-loop reference — done");
}
