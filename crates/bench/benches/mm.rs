//! Criterion micro-benchmarks of the classic-MM family: the sequential
//! cache-oblivious kernel, the CO2 processor-oblivious recursion, the vendor
//! baseline and PACO MM-1-PIECE, at a size small enough for `cargo bench` to
//! finish quickly.  The macro comparison over full sweeps lives in the
//! `fig9a`/`fig10a`/`table4` binaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paco_core::workload::random_matrix_f64;
use paco_matmul::baseline::blocked_parallel_mm;
use paco_matmul::co_mm::co_mm_alloc;
use paco_matmul::po::co2_mm;
use paco_service::{MatMul, Session};

fn bench_mm(c: &mut Criterion) {
    let n = 256;
    let a = random_matrix_f64(n, n, 1);
    let b = random_matrix_f64(n, n, 2);
    // Requests own their inputs, so the timed PACO iterations include an
    // operand copy next to the actual work — a small systematic cost accepted
    // so the bench times the same front door users call (the committed
    // baseline is generated from this identical code path; see
    // `paco_bench::sweep::run_mm_sweep` for the same note on the figures).
    let session = Session::with_available_parallelism();

    let mut group = c.benchmark_group("classic-mm");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("co-mm-sequential", n), |bench| {
        bench.iter(|| std::hint::black_box(co_mm_alloc(&a, &b)))
    });
    group.bench_function(BenchmarkId::new("co2-po", n), |bench| {
        bench.iter(|| std::hint::black_box(co2_mm(&a, &b)))
    });
    group.bench_function(BenchmarkId::new("blocked-parallel-baseline", n), |bench| {
        bench.iter(|| std::hint::black_box(blocked_parallel_mm(&a, &b)))
    });
    group.bench_function(BenchmarkId::new("paco-mm-1piece", n), |bench| {
        bench.iter(|| {
            std::hint::black_box(session.run(MatMul {
                a: a.clone(),
                b: b.clone(),
            }))
        })
    });
    group.finish();

    // Kernel-dispatch gauges: how many leaf multiplications of one PACO run
    // took a runtime-selected microkernel vs. the generic loop (this run is
    // `f64`; for semiring MM the simd count also covers the `MinPlus` and
    // `BoolSemiring` tiles), and
    // whether this process dispatched to a vector microkernel (1 = avx512f
    // or avx2+fma, 0 = portable).  One tick per leaf call, so the counts
    // also show the leaf granularity.
    let before = paco_core::metrics::sched::kernel::snapshot();
    std::hint::black_box(session.run(MatMul {
        a: a.clone(),
        b: b.clone(),
    }));
    let delta = paco_core::metrics::sched::kernel::snapshot().since(&before);
    criterion::record_metric("kernel/mm-leaf-simd", delta.mm_leaf_simd as f64);
    criterion::record_metric("kernel/mm-leaf-generic", delta.mm_leaf_generic as f64);
    criterion::record_metric(
        "kernel/simd-vector",
        f64::from(u8::from(paco_core::simd::simd_mode() != "portable")),
    );
}

criterion_group!(benches, bench_mm);
criterion_main!(benches);
