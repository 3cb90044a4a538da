//! The benchmark's tables: workloads, sizes, limits, metrics and bounds.
//!
//! `BENCHMARK.json` is generated from these tables (`--describe`) and a unit
//! test holds the committed file to them, so the file the driver reads and the
//! constants the runner measures with cannot drift apart.

use crate::json::Json;

/// Seconds one run measures (`R` rounds of `RUN_SECONDS / R`).
pub const RUN_SECONDS: u64 = 24;
/// Rounds per run; every reported value is the median over rounds.
pub const ROUNDS: usize = 8;
/// Fresh `Session`/`Engine` builds in the set-up phase; `setup_s` is their median.
pub const SETUP_BUILDS: usize = 15;
/// A phase that collects fewer samples than this in a round fails the run.
pub const MIN_SAMPLES: usize = 10;
/// A metric whose IQR/median over rounds exceeds this is reported `# NOISY`.
pub const NOISY_SPREAD: f64 = 0.10;
/// Share of a round spent in the main / p = 1 / sequential phase.
pub const PHASE_SHARE: [f64; 3] = [0.4, 0.3, 0.3];
/// Length of a slice of a round; each slice runs all three phases.
pub const SLICE_SECONDS: f64 = 0.5;
/// Seconds of the traced pass of a `--trace 1` run.
pub const TRACED_SECONDS: f64 = 4.0;

/// `mm_dense`: side of the cube and operand pairs in the pool.
pub const MM_N: usize = 768;
pub const MM_POOL: usize = 2;
/// `closure_semiring`: vertices, edge density, graphs in the pool.
pub const CLOSURE_N: usize = 384;
pub const CLOSURE_DENSITY: f64 = 0.05;
pub const CLOSURE_POOL: usize = 2;
/// `incr_updates`: vertices, edge density, the exact stream composition.
pub const INCR_N: usize = 512;
pub const INCR_DENSITY: f64 = 0.05;
pub const INCR_BLOCKS: usize = 4;
pub const INCR_BLOCK_BATCHES: usize = 16;
pub const INCR_BATCH_EDGES: usize = 4;
pub const INCR_SNAPSHOT_EVERY: usize = 8;
/// `svc_*`: the four request shapes of the mix, inputs per shape, loop shapes.
pub const SVC_MM_N: usize = 64;
pub const SVC_FW_N: usize = 48;
pub const SVC_LCS_N: usize = 128;
pub const SVC_SORT_N: usize = 2048;
pub const SVC_POOL: usize = 8;
pub const SVC_WINDOW: usize = 32;
pub const SVC_OPEN_RATE: f64 = 2000.0;
/// Rates of the per-layer open-loop ladder above `svc_open`'s.
pub const SVC_LADDER_RATES: [f64; 2] = [6000.0, 12000.0];

/// One workload: its name, the one-line reason it exists, the fixed latency
/// limit `slo_share` counts against and the unit `throughput` counts.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub limit_ms: f64,
    pub work_unit: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "mm_dense",
        why: "MatMul<f64> 768^3 via Session::run, out of L2: >90% in the AVX2 leaf, plan/pool cost shows only in p1_overhead_ratio; limit 40 ms; semiring, incr and engine changes predict no movement",
        limit_ms: 40.0,
        work_unit: "flop",
    },
    WorkloadSpec {
        name: "closure_semiring",
        why: "Apsp(MinPlus)+Closure<Bool> on 384 vertices: compare-select relax, tens of waves, so scope barriers and step interpretation are a real share; limit 60 ms; semiring kernels show here, not on mm_dense",
        limit_ms: 60.0,
        work_unit: "semiring-op",
    },
    WorkloadSpec {
        name: "incr_updates",
        why: "IncUpdate batches on one held 512-vertex ClosedGraph, exactly 15 improving + 1 re-closing batch per 16 and 1 IncSnapshot per 8: median is the dirty-rectangle path; limit 1 ms counts the fast path",
        limit_ms: 1.0,
        work_unit: "edge-update",
    },
    WorkloadSpec {
        name: "svc_closed",
        why: "Engine, one client holding 32 tickets, exact round-robin of MatMul 64^3, Closure<MinPlus> 48, Lcs 128^2, Sort 2048: route, cache, bind, queue, batch, resolve dominate; limit 5 ms; big kernels: none",
        limit_ms: 5.0,
        work_unit: "request",
    },
    WorkloadSpec {
        name: "svc_open",
        why: "same engine and mix, open loop at a fixed 2000 req/s (~6% busy): arrivals never coalesce, each pays the gather window and two hand-offs; limit 2 ms; a batching gain that costs latency shows here",
        limit_ms: 2.0,
        work_unit: "request",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric: `bound` is `Some` for end-to-end metrics only.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Bounds are set from the spreads measured on this box (see the noise table
/// in README.md), not from what one would wish: its memory-bound kernels move
/// by a fifth for seconds at a time with the neighbours' traffic, and a bound
/// the benchmark's own reruns break protects nothing.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("op_ms_p50", "ms", "lower", 0.25),
    e2e("throughput", "1/s", "higher", 0.25),
    e2e("scaling_eff_p2", "ratio", "higher", 0.20),
    e2e("p1_overhead_ratio", "ratio", "lower", 0.15),
    e2e("slo_share", "share", "higher", 0.03),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: [MetricSpec; 86] = [
    layer("paco_core.mm_f64_gflops", "Gflop/s", "higher"),
    layer("paco_core.mm_f64_portable_gflops", "Gflop/s", "higher"),
    layer("paco_core.arena_hit_ratio", "ratio", "higher"),
    layer("paco_core.leaf_generic_calls", "count", "lower"),
    layer("paco_core.leaf_specialized_calls", "count", "higher"),
    layer("paco_runtime.scope_roundtrip_us", "us", "lower"),
    layer("paco_runtime.plan_step_ns", "ns", "lower"),
    layer("paco_runtime.batch_refs_us", "us", "lower"),
    layer("paco_matmul.seq_ms", "ms", "lower"),
    layer("paco_matmul.seq_gflops", "Gflop/s", "higher"),
    layer("paco_matmul.peak_share", "ratio", "higher"),
    layer("paco_matmul.ops_per_byte", "flop/B", "higher"),
    layer("paco_matmul.plan_ms", "ms", "lower"),
    layer("paco_matmul.plan_waves_p2", "count", "lower"),
    layer("paco_matmul.plan_steps_p2", "count", "lower"),
    layer("paco_matmul.run_p1_ms", "ms", "lower"),
    layer("paco_matmul.imbalance_p2", "ratio", "lower"),
    layer("paco_matmul.imbalance_p3", "ratio", "lower"),
    layer("paco_matmul.imbalance_p7", "ratio", "lower"),
    layer("paco_graph.leaf_minplus_gops", "Gop/s", "higher"),
    layer("paco_graph.leaf_bool_gops", "Gop/s", "higher"),
    layer("paco_graph.seq_minplus_ms", "ms", "lower"),
    layer("paco_graph.seq_bool_ms", "ms", "lower"),
    layer("paco_graph.seq_gops", "Gop/s", "higher"),
    layer("paco_graph.plan_ms", "ms", "lower"),
    layer("paco_graph.plan_waves_p2", "count", "lower"),
    layer("paco_graph.plan_steps_p2", "count", "lower"),
    layer("paco_graph.run_p1_ms", "ms", "lower"),
    layer("paco_graph.imbalance_p3", "ratio", "lower"),
    layer("paco_graph.imbalance_p7", "ratio", "lower"),
    layer("paco_dp.lcs_seq_mcells_s", "Mcell/s", "higher"),
    layer("paco_dp.plan_ms", "ms", "lower"),
    layer("paco_dp.plan_barriers_p2", "count", "lower"),
    layer("paco_dp.imbalance_p3", "ratio", "lower"),
    layer("paco_dp.imbalance_p7", "ratio", "lower"),
    layer("paco_sort.seq_sort_us", "us", "lower"),
    layer("paco_sort.run_sort_us", "us", "lower"),
    layer("paco_cache_sim.lcs_qsum_p4", "count", "lower"),
    layer("paco_cache_sim.lcs_qmax_p4", "count", "lower"),
    layer("paco_cache_sim.lcs_qsum_over_q1", "ratio", "lower"),
    layer("paco_cache_sim.fw_qsum_p4", "count", "lower"),
    layer("paco_cache_sim.mm_qsum_over_bound", "ratio", "lower"),
    layer("paco_incr.close_ms", "ms", "lower"),
    layer("paco_incr.apply_batch_us_p50", "us", "lower"),
    layer("paco_incr.snapshot_us", "us", "lower"),
    layer("paco_incr.incremental_share", "share", "higher"),
    layer("paco_incr.full_fallbacks", "count", "lower"),
    layer("paco_incr.repropagated_ratio", "ratio", "lower"),
    layer("paco_dist.session_mm_ms_r2", "ms", "lower"),
    layer("paco_dist.mm_words_per_rank_r8", "count", "lower"),
    layer("paco_service.skeleton_cold_ms", "ms", "lower"),
    layer("paco_service.bind_us", "us", "lower"),
    layer("paco_service.session_p1_ms", "ms", "lower"),
    layer("paco_service.engine_p1_ms", "ms", "lower"),
    layer("paco_service.submit_us_p50", "us", "lower"),
    layer("paco_service.queue_exec_us_p50", "us", "lower"),
    layer("paco_service.passes", "count", "lower"),
    layer("paco_service.coalesce_ratio", "ratio", "higher"),
    layer("paco_service.plan_cache_hit_ratio", "ratio", "higher"),
    layer("paco_service.plan_cache_hit_ratio_sweep", "ratio", "higher"),
    layer("paco_service.max_queue_depth", "count", "lower"),
    layer("paco_service.overloaded", "count", "lower"),
    layer("paco_service.expired", "count", "lower"),
    layer("paco_service.poisoned", "count", "lower"),
    layer("paco_service.latency_ms_p99", "ms", "lower"),
    layer("paco_service.open_p50_ms_r6000", "ms", "lower"),
    layer("paco_service.open_p50_ms_r12000", "ms", "lower"),
    layer("loadgen.op_ms_p90", "ms", "lower"),
    layer("loadgen.op_ms_p99", "ms", "lower"),
    layer("loadgen.late_ms_p99", "ms", "lower"),
    layer("loadgen.late_ms_max", "ms", "lower"),
    layer("loadgen.clone_us_p50", "us", "lower"),
    layer("loadgen.round_spread_max", "ratio", "lower"),
    layer("loadgen.trace_overhead_share", "share", "lower"),
    layer("loadgen.traced_ops", "count", "higher"),
    layer("trace.op_self_share", "share", "lower"),
    layer("trace.clone_self_share", "share", "lower"),
    layer("trace.front_door_self_share", "share", "higher"),
    layer("trace.submit_self_share", "share", "lower"),
    layer("trace.wait_self_share", "share", "lower"),
    layer("trace.verify_self_share", "share", "lower"),
    layer("trace.shape_key_us_p50", "us", "lower"),
    layer("trace.skeleton_us_p50", "us", "lower"),
    layer("trace.bind_us_p50", "us", "lower"),
    layer("trace.spans", "count", "higher"),
    layer("machine.nproc", "count", "higher"),
];

fn metric_json(m: &MetricSpec) -> Json {
    let mut fields = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better)),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// The content of `BENCHMARK.json`, from the tables above.
pub fn describe() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ]);
    let mut out = doc.pretty();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            describe(),
            "regenerate with --describe > BENCHMARK.json"
        );
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(
                w.why.contains(&format!("limit {} ms", w.limit_ms)),
                "{} states its limit",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS) && ROUNDS >= 6);
        assert!(describe().len() <= 64 * 1024);
    }
}
