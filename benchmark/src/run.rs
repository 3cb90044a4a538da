//! One run of one workload: set-up phase, rounds, (traced pass and layer
//! probes,) the result line and the files under `out/`.

use crate::harness::{self, Rounds, Schedule, Workload};
use crate::json::Json;
use crate::layers::{self, Layers};
use crate::os;
use crate::spec::{self, MetricSpec, WorkloadSpec};
use crate::stats::{self, Supported};
use crate::trace::{self, Kind, Tracer};
use crate::workloads;
use paco_core::metrics::sched::kernel;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt the stored references: every operation must then fail.
    pub flip_reference: bool,
    pub rounds: usize,
    pub setup_builds: usize,
    pub min_samples: usize,
    /// Where results and traces go; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

impl RunArgs {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            flip_reference: false,
            rounds: spec::ROUNDS,
            setup_builds: spec::SETUP_BUILDS,
            min_samples: spec::MIN_SAMPLES,
            out_dir: Some(out_dir()),
        }
    }

    /// One round of 0.3 s, one fresh build, no sample floor, nothing written.
    pub fn smoke(workload: &str) -> Self {
        Self {
            rounds: 1,
            setup_builds: 1,
            min_samples: 1,
            out_dir: None,
            ..Self::new(workload, 1, 0.3, false)
        }
    }
}

/// `out/` beside the benchmark's manifest (listed in the root `.gitignore`).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// What a run produced.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the spec table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Metrics whose spread over rounds exceeded [`spec::NOISY_SPREAD`].
    pub noisy: Vec<&'static str>,
    pub detail: Json,
}

impl Report {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .compact()
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.noisy {
            out.push_str(&format!("# NOISY {m}\n"));
        }
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<44} {value:>16.6} {unit}\n"));
        }
        out
    }
}

/// The five per-round end-to-end metrics with their rounds.
fn per_round(r: &Rounds) -> [(&'static str, &[f64]); 5] {
    [
        ("op_ms_p50", &r.op_ms_p50),
        ("throughput", &r.throughput),
        ("scaling_eff_p2", &r.scaling_eff_p2),
        ("p1_overhead_ratio", &r.p1_overhead_ratio),
        ("peak_rss_mb", &r.peak_rss_mb),
    ]
}

fn supported_json(s: Option<Supported>) -> Json {
    s.map_or(Json::Null, |s| {
        Json::obj(vec![
            ("value_ms", Json::Num(s.value)),
            ("percentile", Json::Num(s.q)),
            ("n", Json::Num(s.n as f64)),
            ("beyond", Json::Num(s.beyond as f64)),
        ])
    })
}

fn metric_rows(
    specs: &'static [MetricSpec],
    value: impl Fn(&str) -> Option<f64>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    specs
        .iter()
        .map(|m| match value(m.name) {
            Some(v) if v.is_finite() => Ok((m.name, v, m.unit)),
            other => Err(format!("metric {} was not measured ({other:?})", m.name)),
        })
        .collect()
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let spec = spec::workload(&args.workload).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?}; one of {names:?}", args.workload)
    })?;
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.rounds == 0 {
        return Err(format!(
            "--seconds {} and {} rounds are out of range",
            args.seconds, args.rounds
        ));
    }
    let p = os::nproc().min(2);
    os::pin_current(0);
    let kernel_before = kernel::snapshot();
    let mut w = workloads::build(spec.name, args.seed, p).expect("spec names a workload");
    let input_hash = w.input_hash();
    if args.flip_reference {
        w.flip_reference();
    }
    let report = if args.trace {
        traced_run(args, spec, w.as_mut(), p, kernel_before, input_hash)
    } else {
        plain_run(args, spec, w.as_mut(), p, input_hash)
    };
    w.shutdown();
    let report = report?;
    if let Some(dir) = &args.out_dir {
        let kind = if args.trace { "layers" } else { "results" };
        write_file(
            dir,
            &format!("{kind}-{}.json", spec.name),
            &(report.detail.pretty() + "\n"),
        )?;
    }
    Ok(report)
}

fn write_file(dir: &std::path::Path, name: &str, content: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(name), content))
        .map_err(|e| format!("writing {}: {e}", dir.join(name).display()))
}

fn header(
    args: &RunArgs,
    spec: &WorkloadSpec,
    p: usize,
    input_hash: u64,
) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("rounds", Json::Num(args.rounds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("p", Json::Num(p as f64)),
        ("nproc", Json::Num(os::nproc() as f64)),
        ("limit_ms", Json::Num(spec.limit_ms)),
        ("work_unit", Json::str(spec.work_unit)),
        ("input_hash", Json::str(&format!("{input_hash:016x}"))),
    ]
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(
        metrics
            .iter()
            .map(|&(n, v, u)| {
                (
                    n,
                    Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(u))]),
                )
            })
            .collect(),
    )
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn plain_run(
    args: &RunArgs,
    spec: &WorkloadSpec,
    w: &mut dyn Workload,
    p: usize,
    input_hash: u64,
) -> Result<Report, String> {
    let (setup_s, builds) = harness::setup_phase(w, args.setup_builds);
    let round_len = Duration::from_secs_f64(args.seconds / args.rounds as f64);
    let schedule = Schedule {
        rounds: args.rounds,
        round_len,
        min_samples: args.min_samples,
        keep_samples: false,
    };
    let r = harness::run_rounds(w, spec, schedule, None, &mut 0)?;

    let metrics = metric_rows(&spec::END_TO_END, |name| {
        Some(match name {
            "slo_share" => r.slo_share(),
            "setup_s" => setup_s,
            other => stats::median(per_round(&r).iter().find(|(n, _)| *n == other)?.1),
        })
    })?;
    let noisy = per_round(&r)
        .iter()
        .filter(|(_, rounds)| stats::iqr_over_median(rounds) > spec::NOISY_SPREAD)
        .map(|(name, _)| *name)
        .collect();

    let mut detail = header(args, spec, p, input_hash);
    detail.extend([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", metrics_json(&metrics)),
        (
            "per_round",
            Json::obj(
                per_round(&r)
                    .iter()
                    .map(|(n, v)| (*n, Json::nums(v)))
                    .collect(),
            ),
        ),
        (
            "round_spread",
            Json::obj(
                per_round(&r)
                    .iter()
                    .map(|(n, v)| (*n, Json::Num(stats::iqr_over_median(v))))
                    .collect(),
            ),
        ),
        ("p1_ms_p50", Json::nums(&r.p1_ms_p50)),
        ("seq_ms_p50", Json::nums(&r.seq_ms_p50)),
        ("setup_builds_s", Json::nums(&builds)),
        ("main_ops", Json::Num(r.main_attempted as f64)),
        ("main_within_limit", Json::Num(r.main_within as f64)),
    ]);
    Ok(Report {
        correct: r.failed == 0,
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        noisy,
        detail: Json::obj(detail),
    })
}

/// Rounds of a `--trace 1` run, in order: `false` = untraced (the base the
/// traced ones are held to), `true` = traced.  Interleaved, so that a shift
/// in the box's speed between the two cannot pose as tracing overhead.
const TRACE_PATTERN: [bool; 6] = [false, true, false, false, true, false];
/// Share of `--seconds` the untraced rounds of a `--trace 1` run take.
const BASE_SHARE: f64 = 0.5;

/// `--trace 1`: untraced and traced rounds in turn, then the layer probes.
fn traced_run(
    args: &RunArgs,
    spec: &WorkloadSpec,
    w: &mut dyn Workload,
    p: usize,
    kernel_before: kernel::KernelSnapshot,
    input_hash: u64,
) -> Result<Report, String> {
    let pattern = &TRACE_PATTERN[..TRACE_PATTERN.len().min(2 * args.rounds)];
    let count = |traced: bool| pattern.iter().filter(|&&t| t == traced).count().max(1) as f64;
    let base_len = Duration::from_secs_f64(args.seconds * BASE_SHARE / count(false));
    let scale = args.seconds / spec::RUN_SECONDS as f64;
    let traced_len = Duration::from_secs_f64(spec::TRACED_SECONDS * scale / count(true));

    let one_round = |round_len, keep_samples| Schedule {
        rounds: 1,
        round_len,
        min_samples: args.min_samples,
        keep_samples,
    };

    let mut tracer = Tracer::new(Instant::now());
    let mut next_op = 0;
    let (mut base, mut traced) = (Rounds::default(), Rounds::default());
    for &with_trace in pattern {
        if with_trace {
            let tracer = Some(&mut tracer);
            let one = one_round(traced_len, false);
            traced.absorb(harness::run_rounds(w, spec, one, tracer, &mut next_op)?);
        } else {
            let one = one_round(base_len, true);
            base.absorb(harness::run_rounds(w, spec, one, None, &mut 0)?);
        }
    }
    let traced_ops = next_op;
    w.probe_compile(&mut tracer, &mut next_op);
    let kernels = kernel::snapshot().since(&kernel_before);

    let mut layer: Layers = layers::probe(args.seed, p);
    layer.insert(
        "paco_core.leaf_generic_calls",
        (kernels.mm_leaf_generic + kernels.fw_leaf_generic + kernels.lcs_leaf_generic) as f64,
    );
    layer.insert(
        "paco_core.leaf_specialized_calls",
        (kernels.mm_leaf_simd + kernels.fw_leaf_specialized + kernels.lcs_leaf_specialized) as f64,
    );

    let main_sorted = stats::sorted(&base.main_lat_ms);
    let p90 = stats::percentile_of_sorted(&main_sorted, 0.90);
    let p99 = stats::percentile_of_sorted(&main_sorted, 0.99);
    let late_p99 = stats::percentile_supported(&base.late_ms, 0.99);
    let base_p50 = stats::median(&base.op_ms_p50);
    let traced_p50 = stats::median(&traced.op_ms_p50);
    let spread_max = per_round(&base)
        .iter()
        .map(|(_, v)| stats::iqr_over_median(v))
        .fold(0.0, f64::max);
    layer.extend([
        ("loadgen.op_ms_p90", p90.map_or(f64::NAN, |s| s.value)),
        ("loadgen.op_ms_p99", p99.map_or(f64::NAN, |s| s.value)),
        // A closed loop has no schedule to be late for.
        ("loadgen.late_ms_p99", late_p99.map_or(0.0, |s| s.value)),
        (
            "loadgen.late_ms_max",
            base.late_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("loadgen.clone_us_p50", stats::median(&base.clone_us)),
        ("loadgen.round_spread_max", spread_max),
        (
            "loadgen.trace_overhead_share",
            (traced_p50 - base_p50) / base_p50,
        ),
        ("loadgen.traced_ops", traced_ops as f64),
    ]);

    // Where the traced pass's time went, by self time.
    let self_times = trace::self_times(&tracer.spans);
    let total_self: u64 = self_times.values().map(|&(_, ns)| ns).sum();
    let share = |kind: Kind| {
        self_times
            .get(&kind)
            .map_or(0.0, |&(_, ns)| ns as f64 / total_self as f64)
    };
    let p50_us = |kind: Kind| stats::median(&trace::durations(&tracer.spans, kind)) / 1e3;
    layer.extend([
        ("trace.op_self_share", share(Kind::Op)),
        ("trace.clone_self_share", share(Kind::Clone)),
        (
            "trace.front_door_self_share",
            share(Kind::Call) + share(Kind::Submit) + share(Kind::Wait),
        ),
        ("trace.submit_self_share", share(Kind::Submit)),
        ("trace.wait_self_share", share(Kind::Wait)),
        ("trace.verify_self_share", share(Kind::Verify)),
        ("trace.shape_key_us_p50", p50_us(Kind::ShapeKey)),
        ("trace.skeleton_us_p50", p50_us(Kind::Skeleton)),
        ("trace.bind_us_p50", p50_us(Kind::Bind)),
        ("trace.spans", tracer.spans.len() as f64),
    ]);

    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.jsonl", spec.name));
        trace::write_jsonl(&path, &tracer.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let metrics = metric_rows(&spec::PER_LAYER, |name| layer.get(name).copied())?;
    let (attempted, failed) = (
        base.attempted + traced.attempted,
        base.failed + traced.failed,
    );
    let mut detail = header(args, spec, p, input_hash);
    detail.extend([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(&metrics)),
        ("op_ms_p90", supported_json(p90)),
        ("op_ms_p99", supported_json(p99)),
        ("late_ms_p99", supported_json(late_p99)),
        (
            "self_time_ns",
            Json::obj(
                self_times
                    .iter()
                    .map(|(kind, &(count, ns))| {
                        (
                            kind.name(),
                            Json::obj(vec![
                                ("spans", Json::Num(count as f64)),
                                ("self_ns", Json::Num(ns as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        noisy: Vec::new(),
        detail: Json::obj(detail),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_every_workload_reports_every_end_to_end_metric_and_fails_nothing() {
        for w in &spec::WORKLOADS {
            let report = run(&RunArgs::smoke(w.name)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                report.correct && report.failed == 0 && report.attempted >= 3,
                "{}",
                w.name
            );
            let names: Vec<_> = report.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<_> = spec::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{}", w.name);
            // (Tests run side by side, so a 768³ product may miss its limit.)
            let positive =
                |m: &(&str, f64, &str)| m.1.is_finite() && (m.1 > 0.0 || m.0 == "slo_share");
            assert!(
                report.metrics.iter().all(positive),
                "{}: {:?}",
                w.name,
                report.metrics
            );
            let line = Json::parse(&report.result_line()).unwrap();
            assert_eq!(line.fields().len(), 4);
        }
    }

    #[test]
    fn flipped_references_fail_every_operation() {
        for w in &spec::WORKLOADS {
            let args = RunArgs {
                flip_reference: true,
                ..RunArgs::smoke(w.name)
            };
            let report = run(&args).unwrap();
            assert!(!report.correct, "{}", w.name);
            assert_eq!(report.failed, report.attempted, "{}", w.name);
            let slo = report
                .metrics
                .iter()
                .find(|m| m.0 == "slo_share")
                .unwrap()
                .1;
            assert_eq!(slo, 0.0, "{}: a wrong answer misses the limit", w.name);
        }
    }

    #[test]
    fn same_seed_same_inputs_and_other_seeds_same_counts() {
        let hash = |seed| {
            let w = workloads::build("svc_closed", seed, 1).unwrap();
            let h = w.input_hash();
            w.shutdown();
            h
        };
        assert_eq!(hash(7), hash(7));
        assert_ne!(hash(7), hash(8));
    }
}
