//! Per-layer probes: one yardstick per crate, measured through its public
//! API, so a change to one layer shows first where it was made.
//!
//! The probes do not depend on the workload being run; every `--trace 1` run
//! measures all of them.  Timings are medians over repetitions; counts are
//! exact and repeat from run to run.

use crate::harness::{Ctx, PhaseOut};
use crate::os;
use crate::spec::{CLOSURE_DENSITY, CLOSURE_N, MM_N, SVC_LADDER_RATES, SVC_SORT_N};
use crate::stats::{median, stratified_median};
use crate::trace::{self, Kind, Span, Tracer};
use crate::workloads;
use crate::workloads::closure::unweighted;
use crate::workloads::incr::{apply, IncrStream, Op};
use crate::workloads::probe_solve;
use crate::workloads::svc::{closed_loop, open_loop, Mix, Request, KINDS};
use paco_cache_sim::analytic::{cache_bound, mm_q1, BoundParams, Problem, Variant};
use paco_cache_sim::NullTracker;
use paco_core::machine::{CacheParams, Placement};
use paco_core::matrix::Matrix;
use paco_core::semiring::{BoolSemiring, IdempotentSemiring};
use paco_core::simd::{mm_f64, mm_f64_portable};
use paco_core::workload::{random_digraph, random_matrix_f64, random_u64_keys, related_sequences};
use paco_dist::{lower, run_lowered, MmDist};
use paco_dp::lcs::{lcs_paco_traced, lcs_sequential_co, lcs_sequential_traced, plan_paco_lcs};
use paco_graph::kernel::{relax, FwAddr, FwTable};
use paco_graph::seq::fw_seq;
use paco_graph::{fw_paco_traced, plan_fw, FwRun, LeafCall};
use paco_incr::ClosedState;
use paco_matmul::co_mm::co_mm_alloc;
use paco_matmul::{plan_mm_1piece, MmConfig, MmJob, MmRun};
use paco_runtime::schedule::{Plan, Step};
use paco_runtime::WorkerPool;
use paco_service::{Apsp, Backend, Lcs, MatMul, Session, Tuning};
use paco_sort::{seq_sample_sort, SortRun};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Layers = BTreeMap<&'static str, f64>;

/// Median seconds of `f` over at least `min_reps` calls, repeating until
/// `budget` is used up.
fn med_secs(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || started.elapsed() < budget {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

const SHORT: Duration = Duration::from_millis(150);

/// `max / mean` of per-processor volumes.
fn imbalance(per_proc: &[f64]) -> f64 {
    let mean = per_proc.iter().sum::<f64>() / per_proc.len() as f64;
    per_proc.iter().copied().fold(0.0, f64::max) / mean
}

fn mm_imbalance(p: usize, cfg: &MmConfig) -> f64 {
    let compiled = plan_mm_1piece(MM_N, MM_N, MM_N, p, cfg);
    let mut volume = vec![0.0; p];
    for step in compiled.plan.iter() {
        volume[step.proc] += match step.job {
            MmJob::Leaf { c, a, .. } => (c.rect.rows * c.rect.cols * a.cols) as f64,
            MmJob::Add { c, .. } => (c.rect.rows * c.rect.cols) as f64,
        };
    }
    imbalance(&volume)
}

fn fw_imbalance(p: usize, base: usize) -> f64 {
    let compiled = plan_fw(CLOSURE_N, p, base);
    let mut volume = vec![0.0; p];
    for step in compiled.plan.iter() {
        volume[step.proc] += match &step.job {
            LeafCall::A { r } => r.len().pow(3),
            LeafCall::B { v, cols } => v.len().pow(2) * cols.len(),
            LeafCall::C { v, rows } => v.len().pow(2) * rows.len(),
            LeafCall::D { rows, cols, via } => rows.len() * cols.len() * via.len(),
        } as f64;
    }
    imbalance(&volume)
}

/// Semiring operations per second of the relax leaf on an in-cache block.
fn leaf_gops<S: IdempotentSemiring>(dense: &Matrix<S>) -> f64 {
    let b = dense.rows() / 2;
    let table = FwTable::from_matrix(dense);
    let addr = FwAddr::new(dense.rows());
    // The D role: a disjoint block accumulate, `b³` ⊗ and `b³` ⊕.
    let secs = med_secs(200, SHORT, || {
        relax(&table, b..2 * b, b..2 * b, 0..b, &mut NullTracker, &addr)
    });
    2.0 * (b as f64).powi(3) / secs / 1e9
}

fn paco_core(out: &mut Layers) {
    const N: usize = 128;
    let a = random_matrix_f64(N, N, 1);
    let b = random_matrix_f64(N, N, 2);
    let mut c = Matrix::zeros(N, N);
    let flops = 2.0 * (N as f64).powi(3);
    let secs = med_secs(50, SHORT, || {
        mm_f64(&mut c.as_mut(), &a.as_ref(), &b.as_ref())
    });
    out.insert("paco_core.mm_f64_gflops", flops / secs / 1e9);
    let secs = med_secs(20, SHORT, || {
        mm_f64_portable(&mut c.as_mut(), &a.as_ref(), &b.as_ref())
    });
    out.insert("paco_core.mm_f64_portable_gflops", flops / secs / 1e9);
    black_box(c);
}

fn paco_runtime(out: &mut Layers, p: usize, mix: &Mix, tuning: &Tuning) {
    let pool = WorkerPool::new(p);
    let secs = med_secs(1000, SHORT, || {
        pool.scope(|s| {
            for proc in 0..p {
                s.spawn_on(proc, || {});
            }
        })
    });
    out.insert("paco_runtime.scope_roundtrip_us", secs * 1e6);

    const WAVES: usize = 64;
    let waves = (0..WAVES)
        .map(|_| (0..p).map(|proc| Step { proc, job: () }).collect())
        .collect();
    let plan = Plan::from_waves(p, waves);
    let secs = med_secs(20, SHORT, || plan.execute(&pool, |_, _| {}));
    out.insert("paco_runtime.plan_step_ns", secs * 1e9 / (WAVES * p) as f64);
    pool.shutdown();

    // 32 cached index plans of the mix, merged the way an engine pass does.
    let skeletons: Vec<_> = (0..32u64)
        .map(|i| mix.request(i).skeleton(tuning, p))
        .collect();
    let plans: Vec<&Plan<usize>> = skeletons.iter().map(|s| &**s.index()).collect();
    let secs = med_secs(200, SHORT, || {
        black_box(Plan::batch_refs(&plans));
    });
    out.insert("paco_runtime.batch_refs_us", secs * 1e6);
}

fn paco_matmul(out: &mut Layers, tuning: &Tuning) {
    let flops = 2.0 * (MM_N as f64).powi(3);
    let cfg = MmConfig {
        cutoff: tuning.mm_cutoff,
        ..MmConfig::default()
    };
    // Computed: 2n³ flops over the 3n² f64 words the operands and result hold.
    out.insert(
        "paco_matmul.ops_per_byte",
        flops / (3.0 * (MM_N * MM_N * 8) as f64),
    );

    let plan_s = med_secs(20, Duration::ZERO, || {
        black_box(plan_mm_1piece(MM_N, MM_N, MM_N, 2, &cfg));
    });
    let compiled = plan_mm_1piece(MM_N, MM_N, MM_N, 2, &cfg);
    out.insert("paco_matmul.plan_ms", plan_s * 1e3);
    out.insert(
        "paco_matmul.plan_waves_p2",
        compiled.plan.waves().len() as f64,
    );
    out.insert("paco_matmul.plan_steps_p2", compiled.plan.steps() as f64);
    for (name, p) in [
        ("paco_matmul.imbalance_p2", 2),
        ("paco_matmul.imbalance_p3", 3),
        ("paco_matmul.imbalance_p7", 7),
    ] {
        out.insert(name, mm_imbalance(p, &cfg));
    }
}

/// The layer ladder, leaf → seq → run → session → engine, on one 768³
/// product at `p = 1`: the sequential function, the prepared run on a bare
/// one-worker pool, `Session::run`, and an `Engine` with one outstanding
/// ticket.  The rungs are measured in turn, rep by rep, so that a shift in
/// the box's speed moves all of them and not the gap between two.
fn ladder(out: &mut Layers, tuning: &Tuning) {
    let a = random_matrix_f64(MM_N, MM_N, 3);
    let b = random_matrix_f64(MM_N, MM_N, 4);
    let flops = 2.0 * (MM_N as f64).powi(3);
    let cfg = MmConfig {
        cutoff: tuning.mm_cutoff,
        ..MmConfig::default()
    };
    let pool = WorkerPool::new(1);
    let compiled = Arc::new(plan_mm_1piece(MM_N, MM_N, MM_N, 1, &cfg));
    let session = workloads::session(1);
    let engine = workloads::engine(1);
    let client = engine.client();
    let request = || MatMul {
        a: a.clone(),
        b: b.clone(),
    };

    const REPS: usize = 7;
    let mut rungs: [Vec<f64>; 4] = Default::default();
    for rep in 0..=REPS {
        let mut lap = [0.0; 4];
        let t0 = Instant::now();
        black_box(co_mm_alloc(&a, &b));
        lap[0] = t0.elapsed().as_secs_f64();

        let (ra, rb) = (a.clone(), b.clone());
        let t0 = Instant::now();
        let run = MmRun::from_plan(ra, rb, Arc::clone(&compiled), cfg.clone());
        run.plan().execute(&pool, |proc, job| run.step(proc, job));
        black_box(run.finish());
        lap[1] = t0.elapsed().as_secs_f64();

        let req = request();
        let t0 = Instant::now();
        black_box(session.run(req));
        lap[2] = t0.elapsed().as_secs_f64();

        let req = request();
        let t0 = Instant::now();
        black_box(
            client
                .submit(req)
                .wait()
                .expect("the engine resolves its tickets"),
        );
        lap[3] = t0.elapsed().as_secs_f64();

        // The first lap compiles the session's and the engine's skeletons.
        if rep > 0 {
            for (rung, secs) in rungs.iter_mut().zip(lap) {
                rung.push(secs);
            }
        }
    }
    pool.shutdown();
    drop(session);
    engine.shutdown();

    let seq = median(&rungs[0]);
    out.insert("paco_matmul.seq_ms", seq * 1e3);
    out.insert("paco_matmul.seq_gflops", flops / seq / 1e9);
    out.insert(
        "paco_matmul.peak_share",
        flops / seq / 1e9 / out["paco_core.mm_f64_gflops"],
    );
    out.insert("paco_matmul.run_p1_ms", median(&rungs[1]) * 1e3);
    out.insert("paco_service.session_p1_ms", median(&rungs[2]) * 1e3);
    out.insert("paco_service.engine_p1_ms", median(&rungs[3]) * 1e3);
}

fn paco_graph(out: &mut Layers, tuning: &Tuning) {
    let base = tuning.fw_base;
    out.insert(
        "paco_graph.leaf_minplus_gops",
        leaf_gops(&random_digraph(2 * base, 1.0, 50, 5)),
    );
    out.insert(
        "paco_graph.leaf_bool_gops",
        leaf_gops(&Matrix::filled(2 * base, 2 * base, BoolSemiring(true))),
    );

    let weights = random_digraph(CLOSURE_N, CLOSURE_DENSITY, 50, 6);
    let edges = unweighted(&weights);
    let minplus = med_secs(5, Duration::ZERO, || {
        black_box(fw_seq(&weights, base));
    });
    let boolean = med_secs(5, Duration::ZERO, || {
        black_box(fw_seq(&edges, base));
    });
    out.insert("paco_graph.seq_minplus_ms", minplus * 1e3);
    out.insert("paco_graph.seq_bool_ms", boolean * 1e3);
    out.insert(
        "paco_graph.seq_gops",
        4.0 * (CLOSURE_N as f64).powi(3) / (minplus + boolean) / 1e9,
    );

    let plan_s = med_secs(5, Duration::ZERO, || {
        black_box(plan_fw(CLOSURE_N, 2, base));
    });
    let compiled = plan_fw(CLOSURE_N, 2, base);
    out.insert("paco_graph.plan_ms", plan_s * 1e3);
    out.insert(
        "paco_graph.plan_waves_p2",
        compiled.plan.waves().len() as f64,
    );
    out.insert("paco_graph.plan_steps_p2", compiled.plan.steps() as f64);
    out.insert("paco_graph.imbalance_p3", fw_imbalance(3, base));
    out.insert("paco_graph.imbalance_p7", fw_imbalance(7, base));

    let pool = WorkerPool::new(1);
    let compiled = Arc::new(plan_fw(CLOSURE_N, 1, base));
    let secs = med_secs(5, Duration::ZERO, || {
        let run = FwRun::from_plan(&weights, Arc::clone(&compiled), base);
        run.plan().execute(&pool, |proc, call| run.step(proc, call));
        black_box(run.finish());
        let run = FwRun::from_plan(&edges, Arc::clone(&compiled), base);
        run.plan().execute(&pool, |proc, call| run.step(proc, call));
        black_box(run.finish());
    });
    pool.shutdown();
    out.insert("paco_graph.run_p1_ms", secs * 1e3);
}

fn paco_dp_and_sort(out: &mut Layers, p: usize, tuning: &Tuning) {
    const N: usize = 2048;
    let (a, b) = related_sequences(N, 4, 0.2, 7);
    let secs = med_secs(5, Duration::ZERO, || {
        black_box(lcs_sequential_co(&a, &b, tuning.lcs_base));
    });
    out.insert("paco_dp.lcs_seq_mcells_s", (N * N) as f64 / secs / 1e6);
    let plan_s = med_secs(5, Duration::ZERO, || {
        black_box(plan_paco_lcs(N, N, 2, tuning.lcs_base));
    });
    out.insert("paco_dp.plan_ms", plan_s * 1e3);
    out.insert(
        "paco_dp.plan_barriers_p2",
        plan_paco_lcs(N, N, 2, tuning.lcs_base).barriers() as f64,
    );
    out.insert(
        "paco_dp.imbalance_p3",
        plan_paco_lcs(N, N, 3, tuning.lcs_base).imbalance(),
    );
    out.insert(
        "paco_dp.imbalance_p7",
        plan_paco_lcs(N, N, 7, tuning.lcs_base).imbalance(),
    );

    let keys = random_u64_keys(SVC_SORT_N, 8);
    let mut times = Vec::new();
    for _ in 0..200 {
        let mut k = keys.clone();
        let t0 = Instant::now();
        seq_sample_sort(&mut k);
        times.push(t0.elapsed().as_secs_f64());
        black_box(k);
    }
    out.insert("paco_sort.seq_sort_us", median(&times) * 1e6);
    let pool = WorkerPool::new(p);
    let mut times = Vec::new();
    for _ in 0..200 {
        let k = keys.clone();
        let t0 = Instant::now();
        let run = SortRun::prepare(k, p, tuning.sort_k(SVC_SORT_N));
        run.plan().execute(&pool, |proc, job| run.step(proc, job));
        black_box(run.finish());
        times.push(t0.elapsed().as_secs_f64());
    }
    pool.shutdown();
    out.insert("paco_sort.run_sort_us", median(&times) * 1e6);
}

/// Exact miss counts of the ideal distributed cache model against Table I.
fn paco_cache_sim(out: &mut Layers) {
    let params = CacheParams::new(1024, 8);
    let (a, b) = related_sequences(512, 4, 0.2, 5);
    let (_, q1) = lcs_sequential_traced(&a, &b, 32, params);
    let (_, q4) = lcs_paco_traced(&a, &b, 4, params, 32);
    out.insert("paco_cache_sim.lcs_qsum_p4", q4.q_sum() as f64);
    out.insert("paco_cache_sim.lcs_qmax_p4", q4.q_max() as f64);
    out.insert(
        "paco_cache_sim.lcs_qsum_over_q1",
        q4.q_sum() as f64 / q1.q_sum() as f64,
    );
    let (_, fw) = fw_paco_traced(&random_digraph(96, 0.2, 50, 9), 4, 16, params);
    out.insert("paco_cache_sim.fw_qsum_p4", fw.q_sum() as f64);

    // MM has no traced twin; each leaf cuboid of the p = 4 plan is charged
    // the sequential bound of its own shape (the paper's derivation), and
    // the sum is held against the Table I bound.  Computed, not simulated.
    let (z, l) = (32768.0, 8.0);
    let compiled = plan_mm_1piece(MM_N, MM_N, MM_N, 4, &MmConfig::default());
    let q_sum: f64 = compiled
        .plan
        .iter()
        .map(|step| match step.job {
            MmJob::Leaf { c, a, .. } => {
                mm_q1(c.rect.rows as f64, c.rect.cols as f64, a.cols as f64, z, l)
            }
            MmJob::Add { c, .. } => 2.0 * (c.rect.rows * c.rect.cols) as f64 / l,
        })
        .sum();
    let bound = cache_bound(
        Problem::Mm,
        Variant::Paco,
        BoundParams::rect(MM_N, MM_N, MM_N, 4, z as usize, l as usize),
    )
    .expect("Table I lists PACO MM");
    out.insert("paco_cache_sim.mm_qsum_over_bound", q_sum / bound);
}

fn paco_incr(out: &mut Layers, seed: u64, tuning: &Tuning) {
    let stream = IncrStream::generate(seed, tuning);
    let close = med_secs(3, Duration::ZERO, || {
        black_box(ClosedState::close(stream.adj.clone(), tuning.fw_base));
    });
    out.insert("paco_incr.close_ms", close * 1e3);

    let mut state = ClosedState::close(stream.adj.clone(), tuning.fw_base);
    for batch in stream.warm_batches() {
        apply(&mut state, batch, tuning);
    }
    let (mut improving, mut snapshots) = (Vec::new(), Vec::new());
    for op in stream.ops.iter().cycle().take(2 * stream.ops.len()) {
        let t0 = Instant::now();
        match op {
            Op::Update { batch, expect } => {
                black_box(apply(&mut state, batch, tuning));
                if expect.full_fallbacks == 0 {
                    improving.push(t0.elapsed().as_secs_f64());
                }
            }
            Op::Snapshot { .. } => {
                black_box(state.closed().clone());
                snapshots.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    out.insert("paco_incr.apply_batch_us_p50", median(&improving) * 1e6);
    out.insert("paco_incr.snapshot_us", median(&snapshots) * 1e6);
    let totals = stream.totals();
    out.insert(
        "paco_incr.incremental_share",
        totals.incremental as f64 / totals.updates as f64,
    );
    out.insert("paco_incr.full_fallbacks", totals.full_fallbacks as f64);
    out.insert("paco_incr.repropagated_ratio", totals.repropagated_ratio());
}

fn paco_dist(out: &mut Layers) {
    const N: usize = 256;
    // The ranks are threads this one spawns; they must not inherit its CPU.
    os::release_current();
    let a = random_matrix_f64(N, N, 11);
    let b = random_matrix_f64(N, N, 12);
    let session = Session::builder()
        .backend(Backend::Distributed { ranks: 2 })
        .build();
    let mut times = Vec::new();
    for _ in 0..5 {
        let req = MatMul {
            a: a.clone(),
            b: b.clone(),
        };
        let t0 = Instant::now();
        black_box(session.run(req));
        times.push(t0.elapsed().as_secs_f64());
    }
    out.insert("paco_dist.session_mm_ms_r2", median(&times) * 1e3);

    let (n, ranks) = (64, 8);
    let cfg = MmConfig::default();
    let compiled = Arc::new(plan_mm_1piece(n, n, n, ranks, &cfg));
    let placement = Placement::new(ranks, Placement::DEFAULT_BLOCK);
    let w = MmDist::new(
        random_matrix_f64(n, n, 13),
        random_matrix_f64(n, n, 14),
        Arc::clone(&compiled),
        cfg,
    );
    let lowered = lower(&w, &compiled.plan, &placement);
    let (_, stats) = run_lowered(&w, &compiled.plan, &placement, &lowered);
    out.insert("paco_dist.mm_words_per_rank_r8", stats.mean_rank_words());
    os::pin_current(0);
}

/// Stratified p50 (ms) of a phase of the mix.
fn mix_p50(out: &PhaseOut) -> f64 {
    stratified_median(&out.lat_ms, &out.kind_of, KINDS, 1).unwrap_or(f64::NAN)
}

fn span_of(spans: &[Span], kind: Kind) -> BTreeMap<u64, &Span> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| (s.op, s))
        .collect()
}

fn paco_service(out: &mut Layers, p: usize, mix: &Mix) {
    let big = (
        random_matrix_f64(MM_N, MM_N, 3),
        random_matrix_f64(MM_N, MM_N, 4),
    );
    let big_req = || MatMul {
        a: big.0.clone(),
        b: big.1.clone(),
    };
    let graph = random_digraph(CLOSURE_N, CLOSURE_DENSITY, 50, 6);

    // Cold compile of every shape the workloads use, and the bind that
    // follows a cache hit: what a fresh front door pays once per shape.
    let probe_us = |probe: &dyn Fn(&mut Tracer)| {
        let mut tracer = Tracer::new(Instant::now());
        probe(&mut tracer);
        let p50 = |kind| median(&trace::durations(&tracer.spans, kind)) / 1e3;
        (p50(Kind::Skeleton), p50(Kind::Bind))
    };
    let big_us = probe_us(&|t| probe_solve(t, &mut 0, p, big_req));
    let graph_us = probe_us(&|t| probe_solve(t, &mut 0, p, || Apsp { adj: graph.clone() }));
    let mix_us: Vec<(f64, f64)> = (0..KINDS as u64)
        .map(|kind| probe_us(&|t| mix.probe_compile(t, &mut 0, p, kind)))
        .collect();
    let cold_us = big_us.0 + graph_us.0 + mix_us.iter().map(|us| us.0).sum::<f64>();
    out.insert("paco_service.skeleton_cold_ms", cold_us / 1e3);
    out.insert(
        "paco_service.bind_us",
        mix_us.iter().map(|us| us.1).sum::<f64>() / KINDS as f64,
    );

    // Arena reuse of warm same-shaped binds (LCS and sort check buffers out).
    let session = workloads::session(p);
    for i in 0..64u64 {
        match mix.request(i) {
            Request::Lcs(r) => drop(black_box(session.run(r))),
            Request::Sort(r) => drop(black_box(session.run(r))),
            _ => {}
        }
    }
    out.insert(
        "paco_core.arena_hit_ratio",
        session.arena_stats().reuse_ratio(),
    );
    drop(session);

    // A short traced closed loop of the mix: where a request's time goes
    // between the client and the executor, and what the engine counted.
    let engine = workloads::engine(p);
    let client = engine.client();
    let mut tracer = Tracer::new(Instant::now());
    let mut next_op = 0;
    let ctx = Ctx {
        budget: Duration::from_millis(500),
        limit_ms: f64::MAX,
        tracer: Some(&mut tracer),
        next_op: &mut next_op,
    };
    black_box(closed_loop(mix, &client, &mut 0, ctx));
    let stats = engine.shutdown();
    let submits = span_of(&tracer.spans, Kind::Submit);
    let waits = span_of(&tracer.spans, Kind::Wait);
    let submit_us: Vec<f64> = submits.values().map(|s| s.dur_ns() as f64 / 1e3).collect();
    let queue_exec_us: Vec<f64> = submits
        .iter()
        .filter_map(|(op, s)| {
            waits
                .get(op)
                .map(|w| w.end_ns.saturating_sub(s.end_ns) as f64 / 1e3)
        })
        .collect();
    out.insert("paco_service.submit_us_p50", median(&submit_us));
    out.insert("paco_service.queue_exec_us_p50", median(&queue_exec_us));
    out.insert("paco_service.passes", stats.passes() as f64);
    out.insert("paco_service.coalesce_ratio", stats.coalesce_ratio());
    out.insert(
        "paco_service.plan_cache_hit_ratio",
        stats.plan_cache().hit_ratio(),
    );
    out.insert(
        "paco_service.max_queue_depth",
        stats.max_queue_depth() as f64,
    );
    out.insert("paco_service.overloaded", stats.overloaded as f64);
    out.insert("paco_service.expired", stats.expired as f64);
    out.insert("paco_service.poisoned", stats.poisoned as f64);
    out.insert(
        "paco_service.latency_ms_p99",
        stats
            .latency
            .percentile(0.99)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3),
    );

    // 256 shapes swept twice through a cache of 128: an LRU holds none of them.
    let session = workloads::session(1);
    for _ in 0..2 {
        for len in 1..=256usize {
            black_box(session.run(Lcs {
                a: vec![1; len],
                b: vec![1; len],
            }));
        }
    }
    out.insert(
        "paco_service.plan_cache_hit_ratio_sweep",
        session.cache_stats().hit_ratio(),
    );
    drop(session);

    // The open-loop rate ladder above svc_open's own rate.
    let engine = workloads::engine(p);
    let client = engine.client();
    for (name, rate) in [
        "paco_service.open_p50_ms_r6000",
        "paco_service.open_p50_ms_r12000",
    ]
    .into_iter()
    .zip(SVC_LADDER_RATES)
    {
        let ctx = Ctx {
            budget: Duration::from_millis(400),
            limit_ms: f64::MAX,
            tracer: None,
            next_op: &mut 0,
        };
        out.insert(name, mix_p50(&open_loop(mix, &client, rate, &mut 0, ctx)));
    }
    engine.shutdown();
}

/// Every workload-independent layer metric.
pub fn probe(seed: u64, p: usize) -> Layers {
    let tuning = Tuning::from_env();
    let mix = Mix::generate(seed);
    let mut out = Layers::new();
    paco_core(&mut out);
    paco_runtime(&mut out, p, &mix, &tuning);
    paco_matmul(&mut out, &tuning);
    ladder(&mut out, &tuning);
    paco_graph(&mut out, &tuning);
    paco_dp_and_sort(&mut out, p, &tuning);
    paco_cache_sim(&mut out);
    paco_incr(&mut out, seed, &tuning);
    paco_dist(&mut out);
    paco_service(&mut out, p, &mix);
    out.insert("machine.nproc", os::nproc() as f64);
    out
}
