//! `--agree`: do two sets of result files agree within the benchmark's bounds?

use crate::json::Json;
use crate::spec;
use crate::stats::median;
use std::collections::BTreeMap;

/// `(workload, metric)` → values, from a set of `results-*.json` files.
pub type Side = BTreeMap<(String, String), Vec<f64>>;

pub fn load(files: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{file}: no \"workload\""))?;
        let metrics = doc
            .get("metrics")
            .ok_or_else(|| format!("{file}: no \"metrics\""))?;
        for (name, m) in metrics.fields() {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{file}: metric {name} has no value"))?;
            side.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(side)
}

#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// How much worse (positive) or better (negative) side B's median is
    /// than side A's, as a share of A's, in the metric's own direction.
    pub worse_by: f64,
    pub bound: f64,
    pub breach: bool,
}

fn summary(values: &[f64]) -> [f64; 3] {
    [
        median(values),
        values.iter().copied().fold(f64::MAX, f64::min),
        values.iter().copied().fold(f64::MIN, f64::max),
    ]
}

/// One row per (workload, end-to-end metric) both sides measured.  Two sets
/// of runs of the same code agree when neither median is worse than the
/// other by more than the metric's bound, so a breach is judged both ways.
pub fn compare(a: &Side, b: &Side) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (sa, sb) = (summary(va), summary(vb));
            let delta = (sb[0] - sa[0]) / sa[0].abs();
            let worse_by = if m.better == "lower" { delta } else { -delta };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            rows.push(Row {
                workload: w.name.to_string(),
                metric: m.name,
                a: sa,
                b: sb,
                worse_by,
                bound,
                breach: worse_by.abs() > bound || !worse_by.is_finite(),
            });
        }
    }
    rows
}

/// Print the comparison; `Ok(true)` when every pair agrees.
pub fn agree(files_a: &[String], files_b: &[String]) -> Result<bool, String> {
    let rows = compare(&load(files_a)?, &load(files_b)?);
    if rows.is_empty() {
        return Err("the two sets share no (workload, metric) pair".into());
    }
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A min",
        "A max",
        "B median",
        "B min",
        "B max",
        "B worse",
        "bound"
    );
    // Five significant digits, whatever the metric's magnitude.
    let num = |v: f64| {
        if v.abs() >= 1e6 {
            format!("{v:.4e}")
        } else {
            format!("{v:.5}")
        }
    };
    for r in &rows {
        println!(
            "{:<18} {:<18} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>+8.4} {:>6.2}  {}",
            r.workload,
            r.metric,
            num(r.a[0]),
            num(r.a[1]),
            num(r.a[2]),
            num(r.b[0]),
            num(r.b[1]),
            num(r.b[2]),
            r.worse_by,
            r.bound,
            if r.breach { "BREACH" } else { "agree" }
        );
    }
    let breaches = rows.iter().filter(|r| r.breach).count();
    println!(
        "{} pairs compared, {breaches} beyond their bound",
        rows.len()
    );
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[(&str, &str, &[f64])]) -> Side {
        values
            .iter()
            .map(|(w, m, v)| ((w.to_string(), m.to_string()), v.to_vec()))
            .collect()
    }

    #[test]
    fn medians_within_the_bound_agree_and_beyond_it_breach_either_way() {
        let a = side(&[
            ("mm_dense", "op_ms_p50", &[20.0, 21.0, 19.0]),
            ("mm_dense", "throughput", &[100.0, 101.0, 99.0]),
            ("mm_dense", "slo_share", &[0.98]),
        ]);
        let b = side(&[
            ("mm_dense", "op_ms_p50", &[21.5, 21.0, 22.0]),
            ("mm_dense", "throughput", &[70.0, 71.0, 69.0]),
            ("mm_dense", "slo_share", &[0.99]),
            ("svc_open", "op_ms_p50", &[1.0]),
        ]);
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 3, "only pairs both sides measured");
        let by = |m: &str| rows.iter().find(|r| r.metric == m).unwrap();
        assert!(!by("op_ms_p50").breach && (by("op_ms_p50").worse_by - 0.075).abs() < 1e-12);
        // Higher is better: 30 % less throughput is 30 % worse.
        assert!(by("throughput").breach && (by("throughput").worse_by - 0.3).abs() < 1e-12);
        assert!(!by("slo_share").breach && by("slo_share").worse_by < 0.0);
        // The other way round the same pair still breaches.
        assert!(
            compare(&b, &a)
                .iter()
                .find(|r| r.metric == "throughput")
                .unwrap()
                .breach
        );
    }
}
