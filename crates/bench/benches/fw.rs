//! Criterion micro-benchmarks of the Floyd–Warshall family: sequential CO,
//! PO and PACO, over both the tropical `(min, +)` semiring (APSP) and the
//! boolean semiring (transitive closure), plus a batched many-small-instances
//! case and the barrier gauges that make the wave-flattened schedule
//! measurable on a 1-core container (wall-clock cannot show it; the counters
//! can — they land in the `PACO_BENCH_JSON` report next to the timings).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paco_core::workload::{random_adjacency, random_digraph};
use paco_graph::{fw_po, fw_seq, plan_fw, DEFAULT_BASE};
use paco_service::{Apsp, Closure, Session};

fn bench_fw(c: &mut Criterion) {
    let n = 256;
    let apsp = random_digraph(n, 0.15, 100, 7);
    let reach = random_adjacency(n, 0.05, 8);
    // Requests own their inputs, so the timed PACO iterations include an
    // operand copy next to the actual work — a small systematic cost accepted
    // so the bench times the same front door users call (the committed
    // baseline is generated from this identical code path; see
    // `paco_bench::sweep::run_mm_sweep` for the same note on the figures).
    let session = Session::with_available_parallelism();

    let mut group = c.benchmark_group("floyd-warshall");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("minplus-seq-co", n), |bench| {
        bench.iter(|| std::hint::black_box(fw_seq(&apsp, DEFAULT_BASE)))
    });
    group.bench_function(BenchmarkId::new("minplus-po", n), |bench| {
        bench.iter(|| std::hint::black_box(fw_po(&apsp, DEFAULT_BASE)))
    });
    group.bench_function(BenchmarkId::new("minplus-paco", n), |bench| {
        bench.iter(|| std::hint::black_box(session.run(Apsp { adj: apsp.clone() })))
    });
    group.bench_function(BenchmarkId::new("bool-seq-co", n), |bench| {
        bench.iter(|| std::hint::black_box(fw_seq(&reach, DEFAULT_BASE)))
    });
    group.bench_function(BenchmarkId::new("bool-paco", n), |bench| {
        bench.iter(|| std::hint::black_box(session.run(Closure { adj: reach.clone() })))
    });

    // Batching: 16 small instances, individually vs through one pool pass.
    let small: Vec<_> = (0..16)
        .map(|i| random_digraph(48, 0.2, 50, 1000 + i))
        .collect();
    group.bench_function(
        BenchmarkId::new("minplus-paco-16x48-individual", 48),
        |bench| {
            bench.iter(|| {
                for adj in &small {
                    std::hint::black_box(session.run(Apsp { adj: adj.clone() }));
                }
            })
        },
    );
    group.bench_function(
        BenchmarkId::new("minplus-paco-16x48-batched", 48),
        |bench| {
            bench.iter(|| {
                std::hint::black_box(
                    session.run_batch(small.iter().map(|adj| Apsp { adj: adj.clone() })),
                )
            })
        },
    );
    group.finish();

    // Structural gauges: the flattened plan's wave and step counts.  Plan
    // structure is machine-independent, so gauge a representative
    // multi-processor plan even on a 1-core box (where the pool — and hence
    // the executed run below — degenerates to p = 1).
    let p_repr = session.p().max(8);
    let fw = plan_fw(n, p_repr, DEFAULT_BASE);
    criterion::record_metric(
        format!("fw/plan-waves-p{p_repr}"),
        fw.plan.barriers() as f64,
    );
    criterion::record_metric(format!("fw/plan-steps-p{p_repr}"), fw.plan.steps() as f64);
    let before = paco_core::metrics::sched::kernel::snapshot();
    std::hint::black_box(session.run(Apsp { adj: apsp.clone() }));
    let stats = session.last_stats();
    criterion::record_metric("fw/executed-pool-barriers", stats.pool_barriers as f64);
    criterion::record_metric("fw/executed-plan-waves", stats.plan_waves as f64);

    // Kernel-dispatch gauges: every relax leaf of that run should have taken
    // the semiring-specialized row fast path (generic = 0).
    let delta = paco_core::metrics::sched::kernel::snapshot().since(&before);
    criterion::record_metric(
        "kernel/fw-leaf-specialized",
        delta.fw_leaf_specialized as f64,
    );
    criterion::record_metric("kernel/fw-leaf-generic", delta.fw_leaf_generic as f64);
}

criterion_group!(benches, bench_fw);
criterion_main!(benches);
