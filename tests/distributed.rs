//! The distributed-backend suite: shared-nothing superstep execution must be
//! **bit-identical** to the shared-memory executor for every supported
//! workload across arbitrary shapes and rank counts (including non-powers of
//! two), its exact message accounting must agree with the
//! `cache-sim::distributed` analytic bounds up to documented constant
//! factors, and the critical-path message count must grow as `O(log p)`.

use paco_cache_sim::distributed::{paco_mm_distributed, paco_strassen_distributed};
use paco_core::semiring::BoolSemiring;
use paco_core::workload;
use paco_dist::{ceil_log2, lower, run_lowered, FwDist, LcsDist, MmDist, StrassenDist};
use paco_graph::plan_fw;
use paco_matmul::{plan_mm_1piece, plan_strassen, MmConfig, StrassenOptions, StrassenRun};
use paco_service::{Apsp, Backend, Closure, Lcs, MatMul, Session, Sort, Strassen};
use proptest::prelude::*;
use std::sync::Arc;

/// Rank counts exercised everywhere: deliberately including non-powers of
/// two (3, 5, 7 — prime, so the block-cyclic grid degenerates to `1 × p`).
const RANKS: &[usize] = &[1, 2, 3, 4, 5, 7, 8];

/// The apples-to-apples local twin of a `ranks`-way distributed session:
/// the same processor count compiles the *same* plan, so outputs must match
/// bit for bit (identical kernels over identical data in identical order).
fn local_session(p: usize) -> Session {
    Session::builder().procs(p).build()
}

fn dist_session(ranks: usize) -> Session {
    Session::builder()
        .procs(1)
        .backend(Backend::Distributed { ranks })
        .build()
}

fn placement(ranks: usize) -> paco_core::machine::Placement {
    paco_core::machine::Placement::new(ranks, paco_core::machine::Placement::DEFAULT_BLOCK)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// MM over `f64`: sums must be bit-identical, not merely close — the
    /// distributed executor orders accumulations exactly as the plan does.
    #[test]
    fn mm_distributed_agrees_bitwise(
        n in 4usize..48,
        k in 4usize..48,
        m in 4usize..48,
        seed in 0u64..1_000,
        ri in 0usize..7,
    ) {
        let a = workload::random_matrix_f64(n, k, seed);
        let b = workload::random_matrix_f64(k, m, seed + 1);
        let want = local_session(RANKS[ri]).run(MatMul { a: a.clone(), b: b.clone() });
        let got = dist_session(RANKS[ri]).run(MatMul { a, b });
        for i in 0..n {
            for j in 0..m {
                prop_assert_eq!(want.get(i, j).to_bits(), got.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn closure_distributed_agrees(
        n in 1usize..40,
        seed in 0u64..1_000,
        ri in 0usize..7,
    ) {
        let adj = workload::random_digraph(n, 0.3, 50, seed);
        let want = local_session(RANKS[ri]).run(Apsp { adj: adj.clone() });
        let got = dist_session(RANKS[ri]).run(Apsp { adj });
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(want.get(i, j), got.get(i, j));
            }
        }

        let reach = workload::random_adjacency(n, 0.2, seed);
        let want = local_session(RANKS[ri]).run(Closure::<BoolSemiring> { adj: reach.clone() });
        let got = dist_session(RANKS[ri]).run(Closure::<BoolSemiring> { adj: reach });
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(want.get(i, j), got.get(i, j));
            }
        }
    }

    #[test]
    fn lcs_distributed_agrees(
        n in 0usize..160,
        m in 0usize..160,
        seed in 0u64..1_000,
        ri in 0usize..7,
    ) {
        // n or m may be zero: the distributed backend must fall back to the
        // local pool for the degenerate shapes instead of failing.
        let a = workload::random_sequence(n, 4, seed);
        let b = workload::random_sequence(m, 4, seed + 1);
        let want = local_session(RANKS[ri]).run(Lcs { a: a.clone(), b: b.clone() });
        let got = dist_session(RANKS[ri]).run(Lcs { a, b });
        prop_assert_eq!(want, got);
    }

    #[test]
    fn strassen_distributed_agrees_bitwise(
        half in 2usize..24,
        seed in 0u64..1_000,
        ri in 0usize..7,
    ) {
        let n = 2 * half;
        let a = workload::random_matrix_f64(n, n, seed);
        let b = workload::random_matrix_f64(n, n, seed + 1);
        let want = local_session(RANKS[ri]).run(Strassen { a: a.clone(), b: b.clone() });
        let got = dist_session(RANKS[ri]).run(Strassen { a, b });
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(want.get(i, j).to_bits(), got.get(i, j).to_bits());
            }
        }
    }
}

/// Workloads without a distributed lowering transparently run on the local
/// pool — a distributed session never rejects a request.
#[test]
fn unsupported_requests_fall_back_to_local() {
    let session = dist_session(4);
    let keys = workload::random_keys(500, 9);
    let mut want = keys.clone();
    want.sort_by(f64::total_cmp);
    assert_eq!(session.run(Sort { keys }), want);
    // Nothing was lowered for the fallback.
    assert_eq!(session.lower_stats().misses, 0);
}

/// The communication schedule is lowered once per (shape, placement) and
/// cached — the distributed analogue of the skeleton cache.
#[test]
fn lowering_is_cached_per_shape() {
    let session = dist_session(3);
    for round in 0..3 {
        let adj = workload::random_digraph(24, 0.4, 30, round);
        session.run(Apsp { adj });
    }
    let stats = session.lower_stats();
    assert_eq!((stats.misses, stats.hits), (1, 2));
    let cache = session.cache_stats();
    assert_eq!((cache.misses, cache.hits), (1, 2));
}

/// Mixed submissions through the deferred session front-end on the
/// distributed backend: supported requests run distributed, the rest local,
/// all settled by one flush.
#[test]
fn session_flush_mixes_distributed_and_fallback() {
    let session = dist_session(4);
    let a = workload::random_matrix_f64(24, 24, 3);
    let b = workload::random_matrix_f64(24, 24, 4);
    let t_mm = session.submit(MatMul {
        a: a.clone(),
        b: b.clone(),
    });
    let t_sort = session.submit(Sort {
        keys: workload::random_keys(100, 5),
    });
    assert_eq!(session.flush(), 2);
    let want = local_session(4).run(MatMul { a, b });
    let got = t_mm.take();
    for i in 0..24 {
        for j in 0..24 {
            assert_eq!(want.get(i, j).to_bits(), got.get(i, j).to_bits());
        }
    }
    let sorted = t_sort.take();
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
}

/// The concurrent engine accepts the same backend knob: every shard
/// compiles eligible requests for the rank count and the outputs stay
/// bit-identical to the local backend.
#[test]
fn engine_runs_distributed_requests() {
    let engine = paco_service::Engine::builder()
        .procs(1)
        .backend(Backend::Distributed { ranks: 4 })
        .build();
    let client = engine.client();
    let a = workload::random_matrix_f64(32, 32, 7);
    let b = workload::random_matrix_f64(32, 32, 8);
    let t1 = client.submit(MatMul {
        a: a.clone(),
        b: b.clone(),
    });
    let t2 = client.submit(Lcs {
        a: workload::random_sequence(90, 4, 9),
        b: workload::random_sequence(80, 4, 10),
    });
    let got = t1.wait().expect("engine resolves the MM ticket");
    let want = local_session(4).run(MatMul { a, b });
    for i in 0..32 {
        for j in 0..32 {
            assert_eq!(want.get(i, j).to_bits(), got.get(i, j).to_bits());
        }
    }
    let want_lcs = local_session(4).run(Lcs {
        a: workload::random_sequence(90, 4, 9),
        b: workload::random_sequence(80, 4, 10),
    });
    assert_eq!(t2.wait().expect("engine resolves the LCS ticket"), want_lcs);
    engine.shutdown();
}

/// Measured MM traffic vs. the paper's distributed analysis
/// (`paco_mm_distributed`): mean words per rank must stay within a small
/// constant factor of the analytic `(surface + extra)/p` — and must not be
/// trivially zero.
#[test]
fn mm_words_per_rank_within_analytic_bound() {
    let (n, m, k) = (64, 64, 64);
    let a = workload::random_matrix_f64(n, k, 11);
    let b = workload::random_matrix_f64(k, m, 12);
    let cfg = MmConfig::default();
    for &p in &[2usize, 4, 8, 16] {
        let compiled = Arc::new(plan_mm_1piece(n, m, k, p, &cfg));
        let pl = placement(p);
        let w = MmDist::new(a.clone(), b.clone(), Arc::clone(&compiled), cfg.clone());
        let sp = lower(&w, &compiled.plan, &pl);
        let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
        let analytic = paco_mm_distributed(n, m, k, p).words_per_proc;
        let measured = stats.comm.mean_rank_words();
        assert!(
            measured > 0.0,
            "p={p}: distributed MM moved no words at all"
        );
        // Documented constant factor: 4× covers the emulation's full-panel
        // scatter plus the exchange/writeback of accumulated output blocks.
        assert!(
            measured <= 4.0 * analytic,
            "p={p}: measured {measured} words/rank exceeds 4x analytic {analytic}"
        );
    }
}

/// Measured Strassen traffic vs. the CONST-PIECES bandwidth bound: words
/// per rank within a constant factor of `n² / p^{2/ω₀}` (Corollary 14).
#[test]
fn strassen_words_per_rank_within_analytic_bound() {
    let n = 128;
    let a = workload::random_matrix_f64(n, n, 13);
    let b = workload::random_matrix_f64(n, n, 14);
    let opts = StrassenOptions {
        cutoff: 16,
        parallel_base: 32,
        gamma: Some(3),
    };
    for &p in &[2usize, 4, 8, 16] {
        let compiled = Arc::new(plan_strassen(n, p, opts));
        let pl = placement(p);
        let run = StrassenRun::from_plan(a.clone(), b.clone(), Arc::clone(&compiled), 16);
        let w = StrassenDist::new(run, 16);
        let sp = lower(&w, &compiled.plan, &pl);
        let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
        let analytic = paco_strassen_distributed(n, p, 3).words_per_proc;
        let measured = stats.comm.mean_rank_words();
        assert!(measured > 0.0);
        // Documented constant factor: 8× = 3 matrices per leaf (two
        // operands in, one product out) times the pruned tree's over-
        // decomposition slack against the flat `n²/p^{2/ω₀}` lower bound.
        assert!(
            measured <= 8.0 * analytic,
            "p={p}: measured {measured} words/rank exceeds 8x analytic {analytic}"
        );
    }
}

/// Latency: messages on the critical path grow as `O(log p)`.  Strassen's
/// plan is a single superstep, so the count is *exactly*
/// `4·⌈log₂ p⌉` (scatter fan + one barrier tree + gather fan); FW's grows
/// with its wave count but each superstep contributes at most
/// `2·⌈log₂ p⌉ + 2`.
#[test]
fn critical_path_messages_grow_logarithmically() {
    let n = 64;
    let a = workload::random_matrix_f64(n, n, 15);
    let b = workload::random_matrix_f64(n, n, 16);
    for &p in &[2usize, 4, 8, 16] {
        let compiled = Arc::new(plan_strassen(n, p, StrassenOptions::default()));
        let pl = placement(p);
        let run = StrassenRun::from_plan(a.clone(), b.clone(), Arc::clone(&compiled), 32);
        let w = StrassenDist::new(run, 32);
        let sp = lower(&w, &compiled.plan, &pl);
        let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
        let log = ceil_log2(p) as u64;
        assert_eq!(
            stats.comm.critical_path_messages,
            4 * log,
            "p={p}: strassen critical path is one superstep deep"
        );
    }

    let adj = workload::random_digraph(n, 0.3, 40, 17);
    for &p in &[2usize, 4, 8, 16] {
        let compiled = Arc::new(plan_fw(n, p, 8));
        let pl = placement(p);
        let w = FwDist::new(adj.clone(), Arc::clone(&compiled), 8);
        let sp = lower(&w, &compiled.plan, &pl);
        let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
        let log = ceil_log2(p) as u64;
        let supersteps = stats.comm.supersteps;
        assert!(
            stats.comm.critical_path_messages <= (supersteps + 1) * (2 * log + 2),
            "p={p}: critical path {} exceeds per-superstep O(log p) budget",
            stats.comm.critical_path_messages
        );
    }
}

/// LCS ships a single word home — the corner of the DP table, the smallest
/// possible gather — however many ranks computed the table.
#[test]
fn lcs_gathers_exactly_one_word() {
    let a = workload::random_sequence(96, 4, 21);
    let b = workload::random_sequence(80, 4, 22);
    let p = 4;
    let compiled = Arc::new(paco_dp::lcs::plan_paco_lcs(a.len(), b.len(), p, 32));
    let pl = placement(p);
    let w = LcsDist::new(a, b, Arc::clone(&compiled), 32);
    let sp = lower(&w, &compiled.plan, &pl);
    let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
    assert_eq!(stats.comm.gather_words, 1);
}

/// Every send is metered: the per-rank word ledgers must add up exactly to
/// the phase totals, and the scheduled transfer words must equal the
/// executed ones (the schedule is the meter — nothing moves off the books).
#[test]
fn comm_accounting_is_exact() {
    let n = 48;
    let adj = workload::random_digraph(n, 0.35, 60, 19);
    for &p in RANKS {
        let compiled = Arc::new(plan_fw(n, p, 8));
        let pl = placement(p);
        let w = FwDist::new(adj.clone(), Arc::clone(&compiled), 8);
        let sp = lower(&w, &compiled.plan, &pl);
        let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
        let c = &stats.comm;
        assert_eq!(
            c.data_words,
            c.scatter_words + c.exchange_words + c.writeback_words + c.gather_words
        );
        assert_eq!(c.exchange_words, sp.exchange_words());
        assert_eq!(c.writeback_words, sp.writeback_words());
        // Scatter + gather ship exactly the n² owned cells each way.
        assert_eq!(c.scatter_words, (n * n) as u64);
        assert_eq!(c.gather_words, (n * n) as u64);
        // The per-rank ledgers cover every transfer end (src + dst).
        let ledger: u64 = c.rank_words.iter().sum();
        let p2p_words: u64 = c.exchange_words + c.writeback_words;
        assert_eq!(ledger, c.scatter_words + c.gather_words + 2 * p2p_words);
        assert_eq!(c.supersteps as usize, compiled.plan.waves().len());
        assert_eq!(
            c.barrier_messages,
            c.supersteps * 2 * (p.saturating_sub(1)) as u64
        );
    }
}
