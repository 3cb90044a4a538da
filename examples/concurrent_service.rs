//! The concurrent service front end: many producer threads submitting a
//! heterogeneous PACO mix to one `Engine` while its executor shards run
//! passes — nobody ever calls `flush`.
//!
//! This is the ROADMAP's "concurrent ingress" item end-to-end: an
//! `Engine` with two executor shards (each owning its own
//! `WorkerPool`) accepts `Lcs`/`Apsp`/`MatMul`/`Sort`/`Gap` submissions from
//! four producer threads at once, coalesces whatever arrives inside each
//! gathering window (`BatchPolicy`) into merged max-of-waves passes, and
//! resolves tickets as passes complete.  Every output is cross-checked
//! against its reference implementation, and the engine's ingress stats
//! prove the coalescing (passes ≪ requests).
//!
//! Run with `cargo run -p paco_examples --release --example concurrent_service`.

use paco_core::metrics::time_it;
use paco_core::workload::{
    random_digraph, random_keys, random_matrix_wrapping, related_sequences, GapCosts,
};
use paco_examples::{ms, section};
use paco_service::{Apsp, BatchPolicy, Engine, Gap, Lcs, MatMul, Routing, Sort};
use std::time::Duration;

const PRODUCERS: usize = 4;
const ROUNDS: usize = 3;

fn main() {
    let engine = Engine::builder()
        .policy(BatchPolicy {
            max_batch: 32,
            max_wait: Duration::from_millis(20),
            shards: 2,
            routing: Routing::SizeBalanced,
            ..BatchPolicy::default()
        })
        .build();
    println!(
        "Engine: {} shard(s) x {} processors, {:?} routing, max_batch={}, max_wait={:?}",
        engine.policy().shards,
        engine.p(),
        engine.policy().routing,
        engine.policy().max_batch,
        engine.policy().max_wait,
    );

    // ---- Four producers hammer the engine concurrently. ------------------
    section("Submitting from 4 producer threads");
    let (_, secs) = time_it(|| {
        std::thread::scope(|scope| {
            for producer in 0..PRODUCERS {
                let client = engine.client();
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let seed = (100 * producer + round) as u64;

                        let (a, b) = related_sequences(300, 4, 0.2, seed);
                        let lcs = client.submit(Lcs {
                            a: a.clone(),
                            b: b.clone(),
                        });

                        let graph = random_digraph(48, 0.2, 50, seed + 1);
                        let apsp = client.submit(Apsp { adj: graph.clone() });

                        let ma = random_matrix_wrapping(64, 48, seed + 2);
                        let mb = random_matrix_wrapping(48, 56, seed + 3);
                        let mm = client.submit(MatMul {
                            a: ma.clone(),
                            b: mb.clone(),
                        });

                        let keys = random_keys(20_000, seed + 4);
                        let sort = client.submit(Sort { keys: keys.clone() });

                        let costs = GapCosts::default();
                        let gap = client.submit(Gap { n: 48, costs });

                        // Block on the tickets (condvar, no spin) and
                        // cross-check every output against its reference.
                        assert_eq!(
                            lcs.wait().unwrap(),
                            paco_dp::lcs::lcs_reference(&a, &b),
                            "LCS"
                        );
                        assert_eq!(
                            apsp.wait().unwrap(),
                            paco_graph::fw_reference(&graph),
                            "APSP"
                        );
                        assert_eq!(
                            mm.wait().unwrap(),
                            paco_matmul::mm_reference(&ma, &mb),
                            "MatMul"
                        );
                        let mut expect_sorted = keys;
                        expect_sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
                        assert_eq!(sort.wait().unwrap(), expect_sorted, "Sort");
                        let got_gap = gap.wait().unwrap();
                        let ref_gap = paco_dp::gap::gap_reference(48, &costs);
                        assert!(
                            got_gap
                                .iter()
                                .zip(&ref_gap)
                                .all(|(x, y)| (x - y).abs() < 1e-9),
                            "Gap"
                        );
                    }
                });
            }
        });
    });
    let requests = PRODUCERS * ROUNDS * 5;
    println!(
        "{requests} requests submitted, executed and cross-checked in {}",
        ms(secs)
    );

    // ---- The ingress counters tell the coalescing story. -----------------
    section("Shutting down and reading the final ingress stats");
    let stats = engine.shutdown();
    println!(
        "enqueued {} | passes {} | coalesce ratio {:.2} requests/pass | poisoned {} | rejected {}",
        stats.enqueued,
        stats.passes(),
        stats.coalesce_ratio(),
        stats.poisoned,
        stats.rejected,
    );
    for (i, shard) in stats.shards.iter().enumerate() {
        println!(
            "  shard {i}: {} passes, {} requests, {} queued",
            shard.passes, shard.requests, shard.queued
        );
    }
    assert_eq!(stats.enqueued, requests as u64);
    assert_eq!(stats.executed(), requests as u64);
    assert!(
        stats.passes() < requests as u64,
        "coalescing must merge requests into shared passes"
    );
    println!(
        "\ncoalescing verified: {} passes for {requests} requests",
        stats.passes()
    );
}
