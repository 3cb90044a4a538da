//! Compare a fresh `PACO_BENCH_JSON` run against the committed
//! `BENCH_baseline.json` and print per-gauge percentage deltas.
//!
//! ```text
//! cargo run -p paco_bench --release --bin bench_delta -- BENCH_baseline.json fresh.json
//! ```
//!
//! Both inputs are the criterion shim's JSON Lines format: `bench` lines
//! carry `mean_ns` (lower is better, reported as a signed % change) and
//! `metric` lines carry `value` (reported as baseline → current).  Gauges
//! present on only one side are listed as added/removed instead of silently
//! dropped.
//!
//! The tool is a **soft gate**: wall-clock timings in a shared 1-core
//! container are noise and never fail the build, but *counter* gauges —
//! structural counts like plan waves, steps, pool barriers and
//! dispatch-fallback counts — are deterministic, so a counter that
//! regresses by more than [`COUNTER_GATE`]× against the committed baseline
//! (or a fallback counter that moves off zero) exits non-zero.  Everything
//! else stays advisory.  It also exits non-zero when an input file is
//! missing or unparseable.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed JSON-lines record: a timed bench (`mean_ns`) or a gauge
/// (`value`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Record {
    Bench { mean_ns: f64 },
    Metric { value: f64 },
}

/// A counter gauge may grow to at most this multiple of its baseline before
/// the gate fails the build.  3× leaves room for intentional plan-shape
/// changes (which should update `BENCH_baseline.json` anyway) while catching
/// the pathological ones: a barrier per leaf instead of per wave.
const COUNTER_GATE: f64 = 3.0;

/// Label substrings that mark a gauge as a *counter*: a deterministic
/// structural count where more is strictly worse.  Ratios, latencies,
/// throughputs and queue depths are load- or clock-dependent and stay
/// advisory; specialization counters (`*-leaf-specialized`, `simd-vector`)
/// are higher-is-better and are guarded instead by their `*-leaf-generic`
/// twins, which sit at 0 in the baseline and trip the off-zero rule on any
/// fallback.
const COUNTER_MARKERS: &[&str] = &["waves", "barrier", "steps", "leaf-generic"];

/// True for gauges the soft gate enforces (see [`COUNTER_MARKERS`]).
fn is_counter(label: &str) -> bool {
    COUNTER_MARKERS.iter().any(|m| label.contains(m))
}

/// Pull `"key":<string>` out of a JSON-lines object without a JSON crate
/// (labels never contain escaped quotes; the shim writes them).
fn string_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Pull `"key":<number>` out of a JSON-lines object.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse(path: &str) -> Result<BTreeMap<String, Record>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("bench_delta: cannot read {path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let (Some(label), Some(mean_ns)) =
            (string_field(line, "bench"), number_field(line, "mean_ns"))
        {
            out.insert(label, Record::Bench { mean_ns });
        } else if let (Some(label), Some(value)) =
            (string_field(line, "metric"), number_field(line, "value"))
        {
            out.insert(label, Record::Metric { value });
        }
    }
    if out.is_empty() {
        return Err(format!("bench_delta: no records parsed from {path}"));
    }
    Ok(out)
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().unwrap_or_else(|| "BENCH_baseline.json".into());
    let Some(current_path) = args.next() else {
        eprintln!("usage: bench_delta <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    };

    let (baseline, current) = match (parse(&baseline_path), parse(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("{err}");
            }
            return ExitCode::FAILURE;
        }
    };

    println!("bench_delta: {current_path} vs {baseline_path}");
    println!("{:-<78}", "");
    let mut improved = 0usize;
    let mut regressed = 0usize;
    let mut gated: Vec<String> = Vec::new();
    for (label, cur) in &current {
        match (baseline.get(label), cur) {
            (Some(Record::Bench { mean_ns: base }), Record::Bench { mean_ns }) => {
                let pct = (mean_ns - base) / base * 100.0;
                let arrow = if pct <= -1.0 {
                    improved += 1;
                    "faster"
                } else if pct >= 1.0 {
                    regressed += 1;
                    "SLOWER"
                } else {
                    "~same"
                };
                println!(
                    "{label:<48} {:>10} -> {:>10}  {pct:>+7.1}% {arrow}",
                    human_ns(*base),
                    human_ns(*mean_ns),
                );
            }
            (Some(Record::Metric { value: base }), Record::Metric { value }) => {
                let gate = is_counter(label)
                    && if *base > 0.0 {
                        *value > COUNTER_GATE * base
                    } else {
                        // A fallback counter moving off zero (e.g. a
                        // `*-leaf-generic` dispatch) is an infinite-ratio
                        // regression.
                        *value > 0.0
                    };
                let tag = if gate {
                    gated.push(label.clone());
                    "  COUNTER REGRESSION"
                } else {
                    ""
                };
                println!("{label:<48} {base:>10.3} -> {value:>10.3}{tag}");
            }
            (Some(_), _) => {
                println!("{label:<48} (kind changed between runs)");
            }
            (None, _) => println!("{label:<48} (new gauge, no baseline)"),
        }
    }
    for label in baseline.keys().filter(|l| !current.contains_key(*l)) {
        println!("{label:<48} (missing from current run)");
    }
    println!("{:-<78}", "");
    println!(
        "bench_delta: {improved} faster, {regressed} slower (timings advisory; \
         counter gauges gated at {COUNTER_GATE}x)"
    );
    if gated.is_empty() {
        ExitCode::SUCCESS
    } else {
        for label in &gated {
            eprintln!(
                "bench_delta: counter gauge {label} regressed more than \
                 {COUNTER_GATE}x against {baseline_path}"
            );
        }
        eprintln!(
            "bench_delta: if the new counts are intended, update {baseline_path} \
             from this run's PACO_BENCH_JSON output"
        );
        ExitCode::FAILURE
    }
}
