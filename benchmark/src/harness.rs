//! The estimation protocol: rounds of three phases, one value per metric per
//! round, medians over rounds, ratios paired within a round.

use crate::os;
use crate::spec::{self, WorkloadSpec};
use crate::stats;
use crate::trace::{self, Kind, Tracer};
use std::time::{Duration, Instant};

/// The three phases of a round, run back to back on long-lived objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// The front door at `p = min(nproc, 2)`.
    Main,
    /// The front door at `p = 1`.
    P1,
    /// The plain sequential cache-oblivious function, called directly.
    Seq,
}

pub const PHASES: [PhaseKind; 3] = [PhaseKind::Main, PhaseKind::P1, PhaseKind::Seq];

/// What one phase of one round measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Wall time of each operation, ms (open loop: from its due time).
    pub lat_ms: Vec<f64>,
    /// Stratum of each sample (all 0 when the workload has one kind of op).
    pub kind_of: Vec<u8>,
    /// Units of the workload's work completed.
    pub work: f64,
    /// Seconds the work took: the sum of the timed regions of a synchronous
    /// loop, the wall time of a windowed or open loop.
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correct operations within the workload's latency limit.
    pub within: u64,
    /// Open loop: how late each submission left the generator, ms.
    pub late_ms: Vec<f64>,
    pub clone_us: Vec<f64>,
}

/// What a phase runs under.
pub struct Ctx<'a> {
    pub budget: Duration,
    pub limit_ms: f64,
    pub tracer: Option<&'a mut Tracer>,
    /// Next span operation id; advanced by every recorded operation.
    pub next_op: &'a mut u64,
}

/// Records the operations of a synchronous phase.
pub struct Recorder<'a> {
    pub out: PhaseOut,
    ctx: Ctx<'a>,
    started: Instant,
}

impl<'a> Recorder<'a> {
    pub fn new(ctx: Ctx<'a>) -> Self {
        Self {
            out: PhaseOut::default(),
            ctx,
            started: Instant::now(),
        }
    }

    /// Whether the phase's wall-clock budget is used up.
    pub fn expired(&self) -> bool {
        self.started.elapsed() >= self.ctx.budget
    }

    /// One operation: `clone` the input (untimed), `call` the system (timed),
    /// `verify` the output against the reference (untimed).  A wrong output
    /// is a failed operation and misses the limit whatever its time.
    pub fn op<I, O>(
        &mut self,
        stratum: u8,
        work: f64,
        clone: impl FnOnce() -> I,
        call: impl FnOnce(I) -> O,
        verify: impl FnOnce(&O) -> bool,
    ) {
        let t_start = Instant::now();
        let input = clone();
        let t0 = Instant::now();
        let output = std::hint::black_box(call(std::hint::black_box(input)));
        let t1 = Instant::now();
        let ok = verify(&output);
        drop(output);
        let t2 = Instant::now();

        let lat_ms = (t1 - t0).as_secs_f64() * 1e3;
        let out = &mut self.out;
        out.lat_ms.push(lat_ms);
        out.kind_of.push(stratum);
        out.clone_us.push((t0 - t_start).as_secs_f64() * 1e6);
        out.busy_s += (t1 - t0).as_secs_f64();
        out.work += work;
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.within += u64::from(ok && lat_ms <= self.ctx.limit_ms);

        let op = *self.ctx.next_op;
        *self.ctx.next_op += 1;
        let tracer = &mut self.ctx.tracer;
        trace::record(tracer, op, Kind::Op, t_start, t2);
        trace::record(tracer, op, Kind::Clone, t_start, t0);
        trace::record(tracer, op, Kind::Call, t0, t1);
        trace::record(tracer, op, Kind::Verify, t1, t2);
    }

    pub fn finish(self) -> PhaseOut {
        self.out
    }
}

/// A workload: long-lived objects built once from a seed, three phases, and
/// the fresh build the set-up phase times.
pub trait Workload {
    /// Strata of the operation mix (1 unless the mix has several kinds).
    fn strata(&self) -> usize {
        1
    }
    fn phase(&mut self, which: PhaseKind, ctx: Ctx<'_>) -> PhaseOut;
    /// One fresh build of the front door, one cold operation per distinct
    /// shape, and its drop/shutdown; seconds.  Input clones are excluded.
    fn setup_once(&mut self) -> f64;
    /// Time `Solve::shape_key`/`skeleton`/`bind` on one request per shape.
    fn probe_compile(&mut self, tracer: &mut Tracer, next_op: &mut u64);
    /// FNV-1a over the generated inputs: same seed, same hash.
    fn input_hash(&self) -> u64;
    /// Corrupt every stored reference (the `--flip-reference` self-test).
    fn flip_reference(&mut self);
    /// Stop every thread the workload started.
    fn shutdown(self: Box<Self>);
}

/// Per-round values of the ratio and rate metrics, pooled counts, and the
/// pooled main-phase samples behind the tail percentiles.
#[derive(Debug, Default)]
pub struct Rounds {
    pub op_ms_p50: Vec<f64>,
    pub throughput: Vec<f64>,
    pub scaling_eff_p2: Vec<f64>,
    pub p1_overhead_ratio: Vec<f64>,
    /// Resident-set high-water mark of each round, MB.
    pub peak_rss_mb: Vec<f64>,
    /// Per-round T50 (ms) of the p = 1 and the sequential phase, the
    /// numerator and denominator behind the two ratios.
    pub p1_ms_p50: Vec<f64>,
    pub seq_ms_p50: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub main_attempted: u64,
    pub main_within: u64,
    pub main_lat_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub clone_us: Vec<f64>,
}

impl Rounds {
    pub fn slo_share(&self) -> f64 {
        self.main_within as f64 / self.main_attempted as f64
    }

    /// Append the rounds of a later call of [`run_rounds`].
    pub fn absorb(&mut self, later: Rounds) {
        for (mine, theirs) in [
            (&mut self.op_ms_p50, later.op_ms_p50),
            (&mut self.throughput, later.throughput),
            (&mut self.scaling_eff_p2, later.scaling_eff_p2),
            (&mut self.p1_overhead_ratio, later.p1_overhead_ratio),
            (&mut self.peak_rss_mb, later.peak_rss_mb),
            (&mut self.p1_ms_p50, later.p1_ms_p50),
            (&mut self.seq_ms_p50, later.seq_ms_p50),
            (&mut self.main_lat_ms, later.main_lat_ms),
            (&mut self.late_ms, later.late_ms),
            (&mut self.clone_us, later.clone_us),
        ] {
            mine.extend(theirs);
        }
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.main_attempted += later.main_attempted;
        self.main_within += later.main_within;
    }
}

impl PhaseOut {
    /// Pool another slice of the same phase of the same round into this one.
    fn absorb(&mut self, other: PhaseOut) {
        self.lat_ms.extend(other.lat_ms);
        self.kind_of.extend(other.kind_of);
        self.work += other.work;
        self.busy_s += other.busy_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within += other.within;
        self.late_ms.extend(other.late_ms);
        self.clone_us.extend(other.clone_us);
    }
}

/// How many rounds [`run_rounds`] runs, and how.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rounds: usize,
    pub round_len: Duration,
    /// Fewest samples a phase may collect in a round (in any stratum).
    pub min_samples: usize,
    /// Pool the main phases' samples over rounds, for the tail percentiles.
    /// A run that reports `peak_rss_mb` must not: the harness's own vectors
    /// would grow round by round.
    pub keep_samples: bool,
}

/// Run `schedule.rounds` rounds of `schedule.round_len` each.
///
/// A round is cut into slices of about [`spec::SLICE_SECONDS`]; every slice
/// runs the three phases back to back, and a round's value for a phase is
/// taken over the samples of all its slices.  This box's speed shifts by a
/// quarter for a second or two at a time, so a phase that ran alone in its
/// own second would carry that second's mood into its ratio; sliced, the
/// three phases of a round see the same seconds.  Slice ends are scheduled
/// from the round's start, so a phase that overruns shortens the next one
/// and the run keeps its length.
///
/// A phase that collects fewer than `min_samples` samples in a round (in any
/// stratum) is an error, not a number.
pub fn run_rounds(
    w: &mut dyn Workload,
    spec: &WorkloadSpec,
    schedule: Schedule,
    mut tracer: Option<&mut Tracer>,
    next_op: &mut u64,
) -> Result<Rounds, String> {
    let Schedule {
        rounds,
        round_len,
        min_samples,
        keep_samples,
    } = schedule;
    let mut acc = Rounds::default();
    let mut t50_rounds: [Vec<f64>; 3] = Default::default();
    let strata = w.strata();
    let slices = ((round_len.as_secs_f64() / spec::SLICE_SECONDS).round() as usize).max(1);
    let slice_len = round_len.div_f64(slices as f64);
    for round in 0..rounds {
        // One stall of an open loop queues a few hundred requests and their
        // inputs; a whole-run high-water mark would report that stall, and the
        // allocator keeps what it grew to.  So every round starts from a
        // trimmed heap and its own high-water mark.
        os::trim_heap();
        os::reset_peak_rss();
        let started = Instant::now();
        let mut phases: [PhaseOut; 3] = Default::default();
        for slice in 0..slices {
            let mut share_done = 0.0;
            for (i, which) in PHASES.into_iter().enumerate() {
                share_done += spec::PHASE_SHARE[i];
                let ends = started + slice_len.mul_f64(slice as f64 + share_done);
                let ctx = Ctx {
                    budget: ends.saturating_duration_since(Instant::now()),
                    limit_ms: spec.limit_ms,
                    tracer: tracer.as_deref_mut(),
                    next_op,
                };
                phases[i].absorb(w.phase(which, ctx));
            }
        }
        acc.peak_rss_mb.push(os::peak_rss_mb());
        for ((which, out), t50) in PHASES.into_iter().zip(phases).zip(&mut t50_rounds) {
            let value = stats::stratified_median(&out.lat_ms, &out.kind_of, strata, min_samples).ok_or_else(|| {
                format!(
                    "{}: round {round} phase {which:?} collected {} samples over {strata} strata, fewer than {min_samples} in one",
                    spec.name,
                    out.lat_ms.len()
                )
            })?;
            t50.push(value);
            acc.attempted += out.attempted;
            acc.failed += out.failed;
            if which == PhaseKind::Main && keep_samples {
                acc.clone_us.extend(out.clone_us);
                acc.main_lat_ms.extend(out.lat_ms);
                acc.late_ms.extend(out.late_ms);
            }
            if which == PhaseKind::Main {
                acc.throughput.push(out.work / out.busy_s);
                acc.main_attempted += out.attempted;
                acc.main_within += out.within;
            }
        }
    }
    let [main, p1, seq] = t50_rounds;
    // T50(p=1) / (2·T50(p=2)) and T50(front door, p=1) / T50(seq), per round.
    acc.scaling_eff_p2 = stats::paired_ratio(&p1, &main)
        .into_iter()
        .map(|r| r / 2.0)
        .collect();
    acc.p1_overhead_ratio = stats::paired_ratio(&p1, &seq);
    (acc.op_ms_p50, acc.p1_ms_p50, acc.seq_ms_p50) = (main, p1, seq);
    Ok(acc)
}

/// Median over the set-up phase's fresh builds.
pub fn setup_phase(w: &mut dyn Workload, builds: usize) -> (f64, Vec<f64>) {
    let each: Vec<f64> = (0..builds).map(|_| w.setup_once()).collect();
    (stats::median(&each), each)
}

/// FNV-1a, the input hash and the snapshot fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn f64s(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.word(v.to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        calls: u64,
    }

    impl Workload for Fake {
        fn phase(&mut self, which: PhaseKind, ctx: Ctx<'_>) -> PhaseOut {
            let mut rec = Recorder::new(ctx);
            let n = if which == PhaseKind::Seq && self.calls == u64::MAX {
                3
            } else {
                12
            };
            for _ in 0..n {
                rec.op(0, 2.0, || 1u64, |x| x + 1, |&y| y == 2);
            }
            rec.finish()
        }
        fn setup_once(&mut self) -> f64 {
            self.calls += 1;
            self.calls as f64
        }
        fn probe_compile(&mut self, _: &mut Tracer, _: &mut u64) {}
        fn input_hash(&self) -> u64 {
            0
        }
        fn flip_reference(&mut self) {}
        fn shutdown(self: Box<Self>) {}
    }

    #[test]
    fn every_round_yields_one_value_per_metric_and_counts_pool() {
        let mut w = Fake { calls: 0 };
        let mut next_op = 0;
        let mut tracer = Tracer::new(Instant::now());
        let r = run_rounds(
            &mut w,
            &spec::WORKLOADS[0],
            Schedule {
                rounds: 3,
                round_len: Duration::from_millis(1),
                min_samples: 10,
                keep_samples: true,
            },
            Some(&mut tracer),
            &mut next_op,
        )
        .unwrap();
        assert_eq!(r.op_ms_p50.len(), 3);
        assert_eq!(r.p1_overhead_ratio.len(), 3);
        assert_eq!(
            (r.attempted, r.failed, r.main_attempted),
            (3 * 3 * 12, 0, 3 * 12)
        );
        assert_eq!(next_op, 108);
        assert_eq!(tracer.spans.len(), 108 * 4);
        assert_eq!(r.slo_share(), 1.0);
    }

    #[test]
    fn a_short_phase_fails_the_run_instead_of_reporting() {
        let mut w = Fake { calls: u64::MAX };
        let err = run_rounds(
            &mut w,
            &spec::WORKLOADS[0],
            Schedule {
                rounds: 1,
                round_len: Duration::from_millis(1),
                min_samples: 10,
                keep_samples: false,
            },
            None,
            &mut 0,
        )
        .unwrap_err();
        assert!(
            err.contains("Seq") && err.contains("fewer than 10"),
            "{err}"
        );
    }

    #[test]
    fn setup_is_the_median_of_the_fresh_builds() {
        let mut w = Fake { calls: 0 };
        let (median, each) = setup_phase(&mut w, 5);
        assert_eq!((median, each.len()), (3.0, 5));
    }
}
