//! Table IV reproduction: mean and median `Rmax/Rpeak` of the PACO MM-1-PIECE
//! algorithm, the vendor-style blocked parallel baseline (MKL stand-in) and the
//! processor-oblivious CO2 algorithm over a problem-size sweep.
//!
//! Paper's numbers (72-core machine): PACO 82.6%/84.0%, MKL 75.1%/78.4%,
//! CO2 37.8%/39.3%.  The reproduction checks the *ordering* and the large gap
//! to CO2; absolute levels depend on the machine.
//!
//! Run with `cargo run -p paco-bench --release --bin table4`.

use paco_bench::peak::{machine_peak_flops, rmax_over_rpeak};
use paco_bench::sweep::{mm_grid, run_mm_timing};
use paco_bench::{bench_repeats, bench_scale, bench_threads};
use paco_core::metrics::series_stats;
use paco_core::table::Table;
use paco_matmul::baseline::blocked_parallel_mm;
use paco_matmul::po::co2_mm;
use paco_service::{MatMul, Session};

fn main() {
    let p = bench_threads();
    let grid = mm_grid(bench_scale());
    let repeats = bench_repeats();
    let session = Session::new(p);
    let peak = machine_peak_flops(p);
    println!(
        "workers = {p}, measured attainable peak = {:.2} GFLOP/s\n",
        peak / 1e9
    );

    let mut table = Table::new(
        "Table IV — Rmax/Rpeak of MM algorithms",
        &["algorithm", "mean Rmax/Rpeak", "median Rmax/Rpeak"],
    );

    let mut add_row = |name: &str, timings: &[paco_bench::sweep::TimingPoint]| {
        let ratios: Vec<f64> = timings
            .iter()
            .map(|t| rmax_over_rpeak(t.n, t.m, t.k, t.secs, peak))
            .collect();
        for (t, pct) in timings.iter().zip(&ratios) {
            assert!(
                *pct <= 100.0,
                "{name} at {}x{}x{}: Rmax/Rpeak {pct:.1}% exceeds the calibrated peak",
                t.n,
                t.m,
                t.k
            );
        }
        let stats = series_stats(&ratios);
        table.row(&[
            name.to_string(),
            format!("{:.1}%", stats.mean),
            format!("{:.1}%", stats.median),
        ]);
    };

    let paco = run_mm_timing(&grid, repeats, |a, b| {
        session.run(MatMul {
            a: a.clone(),
            b: b.clone(),
        })
    });
    add_row("PACO MM-1-PIECE", &paco);
    let vendor = run_mm_timing(&grid, repeats, blocked_parallel_mm);
    add_row("blocked parallel (MKL stand-in)", &vendor);
    let co2 = run_mm_timing(&grid, repeats, co2_mm);
    add_row("CO2 (PO 2-way, base 64)", &co2);

    table.print();
    println!("Paper (72-core): PACO 82.6%/84.0%, MKL 75.1%/78.4%, CO2 37.8%/39.3%");
}
