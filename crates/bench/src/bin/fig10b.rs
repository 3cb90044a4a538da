//! Fig. 10b reproduction: the fraction of attainable peak (`Rmax/Rpeak`) that
//! PACO MM-1-PIECE reaches at every point of the problem-size sweep.
//!
//! Paper: mean 82.6%, median 84.0% on the 24-core machine.
//!
//! Run with `cargo run -p paco-bench --release --bin fig10b`.

use paco_bench::peak::{machine_peak_flops, rmax_over_rpeak};
use paco_bench::sweep::{mm_grid, run_mm_timing};
use paco_bench::{bench_repeats, bench_scale, bench_threads};
use paco_core::metrics::series_stats;
use paco_core::table::Table;
use paco_service::{MatMul, Session};

fn main() {
    let p = bench_threads();
    let session = Session::new(p);
    let peak = machine_peak_flops(p);
    let grid = mm_grid(bench_scale());
    println!(
        "workers = {p}, measured attainable peak = {:.2} GFLOP/s\n",
        peak / 1e9
    );

    let timings = run_mm_timing(&grid, bench_repeats(), |a, b| {
        session.run(MatMul {
            a: a.clone(),
            b: b.clone(),
        })
    });
    let mut table = Table::new(
        "Fig. 10b — Rmax/Rpeak of PACO MM-1-PIECE per problem size",
        &["problem", "size (n*m*k)", "time (s)", "Rmax/Rpeak (%)"],
    );
    let mut ratios = Vec::new();
    for t in &timings {
        let ratio = rmax_over_rpeak(t.n, t.m, t.k, t.secs, peak);
        assert!(
            ratio <= 100.0,
            "{}x{}x{}: Rmax/Rpeak {ratio:.1}% exceeds the calibrated peak",
            t.n,
            t.m,
            t.k
        );
        ratios.push(ratio);
        table.row(&[
            format!("{}x{} * {}x{}", t.n, t.k, t.k, t.m),
            format!("{:.3e}", (t.n * t.m * t.k) as f64),
            format!("{:.4}", t.secs),
            format!("{ratio:.1}"),
        ]);
    }
    table.print();
    let stats = series_stats(&ratios);
    println!("Mean = {:.1}%   Median = {:.1}%", stats.mean, stats.median);
    println!("Paper: Mean = 82.6%, Median = 84.0% (24-core machine)");
}
