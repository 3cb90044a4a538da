//! Tests of the concurrent ingress (`paco_service::Engine`/`Client`): the
//! engine must be nothing more than a thread-safe, coalescing way of
//! computing exactly what a serial `Session::run` computes.
//!
//! * a multi-producer stress test: ≥4 threads submitting a heterogeneous
//!   `Lcs`/`Apsp`/`MatMul`/`Sort`/`Gap` mix while passes are in flight,
//!   every ticket bit-identical to the serial run, and the engine's own
//!   counters proving that coalescing actually happened (executor passes strictly
//!   below submitted requests);
//! * a proptest that `BatchPolicy { max_batch: 1 }` degenerates to exactly
//!   one pass per request;
//! * poisoned-pass hardening: a panicking pass poisons exactly its own
//!   tickets and the engine keeps serving;
//! * shutdown semantics: a shutdown drains everything already queued (the
//!   gathering window is cut short, not the work), and clients outliving the
//!   engine get `Rejected`, not a hang.

use paco_core::matrix::Matrix;
use paco_core::semiring::{MinPlus, WrappingRing};
use paco_core::workload::{random_digraph, random_keys, random_matrix_wrapping, random_sequence};
use paco_service::{
    Apsp, BatchPolicy, Engine, Gap, Lcs, MatMul, Routing, Session, Sort, Ticket, TicketError,
    Tuning,
};
use proptest::prelude::*;
use std::time::Duration;

/// One producer's slice of the workload: a deterministic heterogeneous mix
/// keyed off `(producer, round)` so the serial oracle builds the exact same
/// requests.
#[derive(Clone)]
struct Mix {
    lcs: Lcs,
    apsp: Apsp,
    mm: MatMul<WrappingRing>,
    sort: Sort<f64>,
    gap: Gap<paco_core::workload::GapCosts>,
}

fn mix(producer: u64, round: u64) -> Mix {
    let seed = 1000 * producer + 10 * round;
    Mix {
        lcs: Lcs {
            a: random_sequence(60 + 7 * round as usize, 4, seed),
            b: random_sequence(45 + 11 * round as usize, 4, seed + 1),
        },
        apsp: Apsp {
            adj: random_digraph(24 + 4 * round as usize, 0.3, 30, seed + 2),
        },
        mm: MatMul {
            a: random_matrix_wrapping(18 + 2 * round as usize, 14, seed + 3),
            b: random_matrix_wrapping(14, 20 + 3 * round as usize, seed + 4),
        },
        sort: Sort {
            keys: random_keys(1500 + 800 * round as usize, seed + 5),
        },
        gap: Gap {
            n: 16 + 4 * round as usize,
            costs: paco_core::workload::GapCosts::default(),
        },
    }
}

/// The serial oracle's answers for one mix.
struct Expected {
    lcs: u32,
    apsp: Matrix<MinPlus>,
    mm: Matrix<WrappingRing>,
    sort: Vec<f64>,
    gap: Vec<f64>,
}

fn expected(session: &Session, m: &Mix) -> Expected {
    Expected {
        lcs: session.run(m.lcs.clone()),
        apsp: session.run(m.apsp.clone()),
        mm: session.run(m.mm.clone()),
        sort: session.run(m.sort.clone()),
        gap: session.run(m.gap.clone()),
    }
}

/// The tickets for one submitted mix.
struct Submitted {
    lcs: Ticket<u32>,
    apsp: Ticket<Matrix<MinPlus>>,
    mm: Ticket<Matrix<WrappingRing>>,
    sort: Ticket<Vec<f64>>,
    gap: Ticket<Vec<f64>>,
}

#[test]
fn concurrent_producers_match_serial_session_bit_for_bit() {
    const PRODUCERS: u64 = 4;
    const ROUNDS: u64 = 2;
    const REQUESTS: u64 = PRODUCERS * ROUNDS * 5;

    let p = 3;
    let tuning = Tuning::default();
    // Serial oracle: same p, same tuning, no concurrency anywhere.
    let serial = Session::builder().procs(p).tuning(tuning.clone()).build();
    let oracle: Vec<Vec<Expected>> = (0..PRODUCERS)
        .map(|producer| {
            (0..ROUNDS)
                .map(|round| expected(&serial, &mix(producer, round)))
                .collect()
        })
        .collect();

    // A generous gathering window so the burst of submissions coalesces;
    // two shards so routing is exercised, not just one queue.
    let engine = Engine::builder()
        .procs(p)
        .tuning(tuning)
        .policy(BatchPolicy {
            max_batch: 32,
            max_wait: Duration::from_millis(200),
            shards: 2,
            routing: Routing::RoundRobin,
            ..BatchPolicy::default()
        })
        .build();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let client = engine.client();
                let oracle = &oracle;
                scope.spawn(move || {
                    // Submit the whole mix first (so requests pile into the
                    // gathering windows), then wait — the waits block on the
                    // ticket condvar while executor passes run elsewhere.
                    let submitted: Vec<Submitted> = (0..ROUNDS)
                        .map(|round| {
                            let m = mix(producer, round);
                            Submitted {
                                lcs: client.submit(m.lcs),
                                apsp: client.submit(m.apsp),
                                mm: client.submit(m.mm),
                                sort: client.submit(m.sort),
                                gap: client.submit(m.gap),
                            }
                        })
                        .collect();
                    for (round, tickets) in submitted.into_iter().enumerate() {
                        let expect = &oracle[producer as usize][round];
                        assert_eq!(tickets.lcs.wait().unwrap(), expect.lcs, "lcs");
                        assert_eq!(tickets.apsp.wait().unwrap(), expect.apsp, "apsp");
                        assert_eq!(tickets.mm.wait().unwrap(), expect.mm, "mm");
                        // f64 outputs must be *bit*-identical, not approximately
                        // equal: the engine runs the same deterministic steps.
                        assert_eq!(tickets.sort.wait().unwrap(), expect.sort, "sort");
                        assert_eq!(tickets.gap.wait().unwrap(), expect.gap, "gap");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    });

    // Every request was accepted and executed, and coalescing happened: the
    // executors ran strictly fewer passes than requests were submitted.
    let stats = engine.stats();
    assert_eq!(stats.enqueued, REQUESTS);
    assert_eq!(stats.executed(), REQUESTS);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.poisoned, 0);
    assert!(
        stats.passes() < REQUESTS,
        "coalescing must merge requests into shared passes: {} passes for {REQUESTS} requests",
        stats.passes()
    );
    assert!(stats.coalesce_ratio() > 1.0);
    // Both shards saw work (round-robin over 40 requests cannot starve one).
    assert_eq!(stats.shards.len(), 2);
    assert!(stats.shards.iter().all(|s| s.requests > 0));
    assert!(stats.shards.iter().all(|s| s.queued == 0));

    engine.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// `max_batch: 1` disables coalescing: every request is its own pass,
    /// and the outputs still match the serial session exactly.
    #[test]
    fn max_batch_one_degenerates_to_per_request_runs(
        count in 1usize..8,
        p in 1usize..4,
        seed in 0u64..1000,
    ) {
        let tuning = Tuning::default();
        let serial = Session::builder().procs(p).tuning(tuning.clone()).build();
        let engine = Engine::builder()
            .procs(p)
            .tuning(tuning)
            .policy(BatchPolicy {
                max_batch: 1,
                // A non-zero window that max_batch renders irrelevant: the
                // batch is "full" after a single request.
                max_wait: Duration::from_millis(50),
                shards: 1,
                routing: Routing::RoundRobin,
                ..BatchPolicy::default()
            })
            .build();
        let client = engine.client();

        let reqs: Vec<Lcs> = (0..count)
            .map(|i| Lcs {
                a: random_sequence(20 + 13 * i, 4, seed + i as u64),
                b: random_sequence(30 + 7 * i, 4, seed + 100 + i as u64),
            })
            .collect();
        let expect: Vec<u32> = reqs.iter().cloned().map(|r| serial.run(r)).collect();
        let tickets: Vec<_> = reqs.into_iter().map(|r| client.submit(r)).collect();
        let got: Vec<u32> = tickets.iter().map(|t| t.wait().unwrap()).collect();
        prop_assert_eq!(got, expect);

        // Degenerate coalescing: exactly one pass per request.  The pass is
        // counted before its tickets resolve, so after every wait() returned
        // the tally is complete.
        let stats = engine.stats();
        prop_assert_eq!(stats.enqueued, count as u64);
        prop_assert_eq!(stats.passes(), count as u64);
        prop_assert_eq!(stats.executed(), count as u64);
        prop_assert!((stats.coalesce_ratio() - 1.0).abs() < f64::EPSILON);
        engine.shutdown();
    }

    /// Size-balanced routing computes the same answers as round-robin (it
    /// only changes *where* a request runs, never *what* it computes).
    #[test]
    fn size_balanced_routing_matches_serial(
        count in 1usize..6,
        seed in 0u64..1000,
    ) {
        let p = 2;
        let tuning = Tuning::default();
        let serial = Session::builder().procs(p).tuning(tuning.clone()).build();
        let engine = Engine::builder()
            .procs(p)
            .tuning(tuning)
            .policy(BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(5),
                shards: 2,
                routing: Routing::SizeBalanced,
                ..BatchPolicy::default()
            })
            .build();
        let client = engine.client();

        // Wildly mixed sizes, the case size-balancing exists for.
        let reqs: Vec<Sort<f64>> = (0..count)
            .map(|i| Sort { keys: random_keys(if i % 2 == 0 { 200 } else { 20_000 }, seed + i as u64) })
            .collect();
        let expect: Vec<Vec<f64>> = reqs.iter().cloned().map(|r| serial.run(r)).collect();
        let tickets: Vec<_> = reqs.into_iter().map(|r| client.submit(r)).collect();
        for (t, e) in tickets.iter().zip(&expect) {
            prop_assert_eq!(&t.wait().unwrap(), e);
        }
        // Shutdown joins the executors, so the returned counters are final.
        let stats = engine.shutdown();
        prop_assert_eq!(stats.executed(), count as u64);
        // All outstanding work drained.
        prop_assert!(stats.shards.iter().all(|s| s.outstanding_steps == 0));
    }
}

/// A request whose single step panics, for exercising the engine's
/// poisoned-pass hardening.
mod exploding {
    use paco_core::tuning::Tuning;
    use paco_runtime::schedule::{Plan, Step};
    use paco_service::{Compiled, Prepared, ShapeKey, Skeleton, Solve};
    use std::any::Any;
    use std::sync::Arc;

    struct Exploding {
        skeleton: Arc<Plan<usize>>,
    }

    impl Prepared for Exploding {
        fn skeleton(&self) -> &Plan<usize> {
            &self.skeleton
        }
        fn run_step(&self, _proc: usize, _idx: usize) {
            panic!("exploding step");
        }
        fn take_output(&mut self) -> Box<dyn Any + Send> {
            Box::new(())
        }
    }

    pub struct ExplodingReq;

    impl Solve for ExplodingReq {
        type Output = ();
        fn shape_key(&self) -> ShapeKey {
            ShapeKey::new("test-exploding", std::iter::empty())
        }
        fn skeleton(&self, _tuning: &Tuning, p: usize) -> Skeleton {
            let plan = Plan::single_wave(
                p,
                vec![Step {
                    proc: 0,
                    job: 0usize,
                }],
            );
            Skeleton::new(Arc::new(()), &plan)
        }
        fn bind(
            self,
            skeleton: &Skeleton,
            _tuning: &Tuning,
            _p: usize,
            _arena: &Arc<paco_core::arena::ScratchArena>,
        ) -> Compiled<()> {
            Compiled::from_prepared(Box::new(Exploding {
                skeleton: Arc::clone(skeleton.index()),
            }))
        }
    }
}

#[test]
fn panicking_pass_poisons_its_tickets_and_the_engine_survives() {
    // One shard, a wide gathering window: the bad request and its innocent
    // neighbour (submitted back-to-back, far inside the window) share a
    // pass; both are poisoned; the engine keeps serving.
    let engine = Engine::builder()
        .procs(2)
        .tuning(Tuning::default())
        .policy(BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(300),
            shards: 1,
            routing: Routing::RoundRobin,
            ..BatchPolicy::default()
        })
        .build();
    let client = engine.client();

    let bad = client.submit(exploding::ExplodingReq);
    let neighbour = client.submit(Lcs {
        a: vec![1, 2, 3],
        b: vec![2, 3],
    });
    assert_eq!(bad.wait(), Err(TicketError::Poisoned));
    assert_eq!(neighbour.wait(), Err(TicketError::Poisoned));

    // The engine is still alive: a fresh submission (its own pass now)
    // resolves normally.
    let after = client.submit(Lcs {
        a: vec![7, 8],
        b: vec![8, 7],
    });
    assert_eq!(after.wait(), Ok(1));

    engine.shutdown();
}

#[test]
fn panicking_pass_with_max_batch_one_poisons_exactly_one_ticket() {
    // With coalescing disabled the blast radius of a panic is exactly one
    // request: the good submissions around the bad one all resolve.
    let engine = Engine::builder()
        .procs(2)
        .tuning(Tuning::default())
        .policy(BatchPolicy {
            max_batch: 1,
            max_wait: Duration::ZERO,
            shards: 1,
            routing: Routing::RoundRobin,
            ..BatchPolicy::default()
        })
        .build();
    let client = engine.client();

    let before = client.submit(Lcs {
        a: vec![1, 2],
        b: vec![2, 1],
    });
    let bad = client.submit(exploding::ExplodingReq);
    let after = client.submit(Lcs {
        a: vec![3, 4, 5],
        b: vec![3, 5],
    });

    assert_eq!(before.wait(), Ok(1));
    assert_eq!(bad.wait(), Err(TicketError::Poisoned));
    assert_eq!(after.wait(), Ok(2));

    // Executors are joined by shutdown, so the poison tally is final.
    let stats = engine.shutdown();
    assert_eq!(stats.enqueued, 3);
    assert_eq!(stats.poisoned, 1);
}

#[test]
fn shutdown_drains_queued_work_and_rejects_later_submissions() {
    // A gathering window far longer than the test: without the
    // shutdown-cuts-the-window rule these tickets would take 10s to resolve.
    let engine = Engine::builder()
        .procs(2)
        .tuning(Tuning::default())
        .policy(BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_secs(10),
            shards: 1,
            routing: Routing::RoundRobin,
            ..BatchPolicy::default()
        })
        .build();
    let client = engine.client();

    let tickets: Vec<_> = (0..4)
        .map(|i| {
            client.submit(Lcs {
                a: random_sequence(30, 4, i),
                b: random_sequence(25, 4, 100 + i),
            })
        })
        .collect();

    let started = std::time::Instant::now();
    engine.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(9),
        "shutdown must cut the gathering window short, not sit it out"
    );
    // Everything enqueued before the shutdown still executed.
    for t in &tickets {
        assert!(t.wait().is_ok());
    }

    // The client outlives the engine: loud rejection, no hang.
    let late = client.submit(Lcs {
        a: vec![1],
        b: vec![1],
    });
    assert_eq!(late.wait(), Err(TicketError::Rejected));
    assert_eq!(late.try_wait(), Err(TicketError::Rejected));
}

#[test]
fn tickets_are_single_take_across_wait_flavours() {
    let engine = Engine::new(2);
    let client = engine.client();
    let ticket = client.submit(Lcs {
        a: vec![1, 2, 3],
        b: vec![1, 3],
    });
    assert_eq!(ticket.wait(), Ok(2));
    assert_eq!(ticket.wait(), Err(TicketError::Taken));
    assert_eq!(ticket.try_wait(), Err(TicketError::Taken));
    engine.shutdown();
}
