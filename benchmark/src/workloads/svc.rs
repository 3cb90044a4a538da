//! `svc_closed` and `svc_open`: the same `Engine` and the same exact
//! round-robin mix of four small requests, driven two ways — a client that
//! keeps a window of tickets outstanding, and arrivals on a fixed schedule.

use crate::harness::{Ctx, Fnv, PhaseKind, PhaseOut, Recorder, Workload};
use crate::os;
use crate::spec::{SVC_FW_N, SVC_LCS_N, SVC_MM_N, SVC_OPEN_RATE, SVC_POOL, SVC_SORT_N, SVC_WINDOW};
use crate::trace::{self, Kind, Tracer};
use crate::workloads::{engine, probe_solve, product_matches, timed_build};
use paco_core::matrix::Matrix;
use paco_core::semiring::MinPlus;
use paco_core::workload::{random_digraph, random_matrix_f64, random_u64_keys, related_sequences};
use paco_dp::lcs::lcs_sequential_co;
use paco_graph::seq::fw_seq;
use paco_matmul::co_mm::co_mm_alloc;
use paco_service::{Client, Closure, Engine, Lcs, MatMul, Skeleton, Solve, Sort, Ticket, Tuning};
use paco_sort::seq_sample_sort;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Kinds of request in the mix; request `i` is of kind `i % KINDS` and uses
/// input `(i / KINDS) % SVC_POOL` of that kind.
pub const KINDS: usize = 4;

/// The generator sleeps to within this of a due time and spins the rest.
const SPIN: Duration = Duration::from_micros(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// One client thread holding `SVC_WINDOW` tickets.
    Closed,
    /// Arrivals at `SVC_OPEN_RATE` per second, whatever the completions do.
    Open,
}

/// The input pool of the mix with the sequential reference of every input.
pub struct Mix {
    mm: Vec<(Matrix<f64>, Matrix<f64>)>,
    mm_ref: Vec<Matrix<f64>>,
    fw: Vec<Matrix<MinPlus>>,
    fw_ref: Vec<Matrix<MinPlus>>,
    lcs: Vec<(Vec<u32>, Vec<u32>)>,
    lcs_ref: Vec<u32>,
    sort: Vec<Vec<u64>>,
    sort_ref: Vec<Vec<u64>>,
    fw_base: usize,
    lcs_base: usize,
}

/// A request of the mix, input already cloned.
pub enum Request {
    Mm(MatMul<f64>),
    Fw(Closure<MinPlus>),
    Lcs(Lcs),
    Sort(Sort<u64>),
}

/// A submitted request of the mix.
pub enum Pending {
    Mm(Ticket<Matrix<f64>>),
    Fw(Ticket<Matrix<MinPlus>>),
    Lcs(Ticket<u32>),
    Sort(Ticket<Vec<u64>>),
}

impl Request {
    /// A cold compile of the request's shape.
    pub fn skeleton(&self, tuning: &Tuning, p: usize) -> Skeleton {
        match self {
            Request::Mm(r) => r.skeleton(tuning, p),
            Request::Fw(r) => r.skeleton(tuning, p),
            Request::Lcs(r) => r.skeleton(tuning, p),
            Request::Sort(r) => r.skeleton(tuning, p),
        }
    }

    pub fn submit(self, client: &Client) -> Pending {
        match self {
            Request::Mm(r) => Pending::Mm(client.submit(r)),
            Request::Fw(r) => Pending::Fw(client.submit(r)),
            Request::Lcs(r) => Pending::Lcs(client.submit(r)),
            Request::Sort(r) => Pending::Sort(client.submit(r)),
        }
    }
}

impl Mix {
    pub fn generate(seed: u64) -> Self {
        let tuning = Tuning::from_env();
        let s = |k: u64, i: u64| seed.wrapping_mul(1000) + 100 * k + i;
        let pool = 0..SVC_POOL as u64;
        let mm: Vec<_> = pool
            .clone()
            .map(|i| {
                (
                    random_matrix_f64(SVC_MM_N, SVC_MM_N, s(0, 2 * i)),
                    random_matrix_f64(SVC_MM_N, SVC_MM_N, s(0, 2 * i + 1)),
                )
            })
            .collect();
        let fw: Vec<_> = pool
            .clone()
            .map(|i| random_digraph(SVC_FW_N, 0.2, 50, s(1, i)))
            .collect();
        let lcs: Vec<_> = pool
            .clone()
            .map(|i| related_sequences(SVC_LCS_N, 4, 0.2, s(2, i)))
            .collect();
        let sort: Vec<_> = pool.map(|i| random_u64_keys(SVC_SORT_N, s(3, i))).collect();
        Self {
            mm_ref: mm.iter().map(|(a, b)| co_mm_alloc(a, b)).collect(),
            fw_ref: fw.iter().map(|g| fw_seq(g, tuning.fw_base)).collect(),
            lcs_ref: lcs
                .iter()
                .map(|(a, b)| lcs_sequential_co(a, b, tuning.lcs_base))
                .collect(),
            sort_ref: sort
                .iter()
                .map(|keys| {
                    let mut sorted = keys.clone();
                    seq_sample_sort(&mut sorted);
                    sorted
                })
                .collect(),
            mm,
            fw,
            lcs,
            sort,
            fw_base: tuning.fw_base,
            lcs_base: tuning.lcs_base,
        }
    }

    fn slot(index: u64) -> (usize, usize) {
        (
            (index % KINDS as u64) as usize,
            ((index / KINDS as u64) % SVC_POOL as u64) as usize,
        )
    }

    /// Request `index` of the stream, its input cloned out of the pool.
    pub fn request(&self, index: u64) -> Request {
        let (kind, j) = Self::slot(index);
        match kind {
            0 => Request::Mm(MatMul {
                a: self.mm[j].0.clone(),
                b: self.mm[j].1.clone(),
            }),
            1 => Request::Fw(Closure {
                adj: self.fw[j].clone(),
            }),
            2 => Request::Lcs(Lcs {
                a: self.lcs[j].0.clone(),
                b: self.lcs[j].1.clone(),
            }),
            _ => Request::Sort(Sort {
                keys: self.sort[j].clone(),
            }),
        }
    }

    /// Time the compile steps of the mix's request shape `kind` (see
    /// [`probe_solve`]).
    pub fn probe_compile(&self, tracer: &mut Tracer, next_op: &mut u64, p: usize, kind: u64) {
        match self.request(kind) {
            Request::Mm(r) => probe_solve(tracer, next_op, p, || r.clone()),
            Request::Fw(r) => probe_solve(tracer, next_op, p, || r.clone()),
            Request::Lcs(r) => probe_solve(tracer, next_op, p, || r.clone()),
            Request::Sort(r) => probe_solve(tracer, next_op, p, || r.clone()),
        }
    }

    /// Wait for a submitted request; returns when it resolved and whether
    /// its output equals the reference.
    pub fn resolve(&self, pending: Pending, index: u64) -> (Instant, bool) {
        let (_, j) = Self::slot(index);
        match pending {
            Pending::Mm(t) => {
                let out = t.wait();
                (
                    Instant::now(),
                    out.is_ok_and(|m| product_matches(&m, &self.mm_ref[j])),
                )
            }
            Pending::Fw(t) => {
                let out = t.wait();
                (Instant::now(), out.is_ok_and(|m| m == self.fw_ref[j]))
            }
            Pending::Lcs(t) => {
                let out = t.wait();
                (Instant::now(), out.is_ok_and(|len| len == self.lcs_ref[j]))
            }
            Pending::Sort(t) => {
                let out = t.wait();
                (
                    Instant::now(),
                    out.is_ok_and(|keys| keys == self.sort_ref[j]),
                )
            }
        }
    }

    /// Request `index` through the plain sequential functions.
    pub fn seq(&self, rec: &mut Recorder<'_>, index: u64) {
        let (kind, j) = Self::slot(index);
        let k = kind as u8;
        match kind {
            0 => rec.op(
                k,
                1.0,
                || (),
                |()| co_mm_alloc(&self.mm[j].0, &self.mm[j].1),
                |m| product_matches(m, &self.mm_ref[j]),
            ),
            1 => rec.op(
                k,
                1.0,
                || (),
                |()| fw_seq(&self.fw[j], self.fw_base),
                |m| *m == self.fw_ref[j],
            ),
            2 => rec.op(
                k,
                1.0,
                || (),
                |()| lcs_sequential_co(&self.lcs[j].0, &self.lcs[j].1, self.lcs_base),
                |len| *len == self.lcs_ref[j],
            ),
            _ => rec.op(
                k,
                1.0,
                || self.sort[j].clone(),
                |mut keys| {
                    seq_sample_sort(&mut keys);
                    keys
                },
                |keys| *keys == self.sort_ref[j],
            ),
        }
    }

    pub fn input_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for (a, b) in &self.mm {
            h.f64s(a.data().iter().chain(b.data()).copied());
        }
        for g in &self.fw {
            h.f64s(g.data().iter().map(|x| x.0));
        }
        for (a, b) in &self.lcs {
            a.iter().chain(b).for_each(|&c| h.word(u64::from(c)));
        }
        for keys in &self.sort {
            keys.iter().for_each(|&k| h.word(k));
        }
        h.0
    }

    pub fn flip_reference(&mut self) {
        self.mm_ref.iter_mut().for_each(|m| m.data_mut()[0] += 1.0);
        self.fw_ref
            .iter_mut()
            .for_each(|m| m.data_mut()[1].0 += 1.0);
        self.lcs_ref.iter_mut().for_each(|len| *len += 1);
        self.sort_ref.iter_mut().for_each(|keys| keys[0] ^= 1);
    }
}

/// Sleep (never spin longer than [`SPIN`]) until `due`; returns how late the
/// caller woke, in ms.
fn sleep_until(due: Instant) -> f64 {
    loop {
        let now = Instant::now();
        if now >= due {
            return (now - due).as_secs_f64() * 1e3;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Timestamps of one submission.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    pub index: u64,
    pub clone_start: Instant,
    pub clone_end: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
}

/// Clone request `index`, wait for its due time if it has one, submit it.
/// Returns how late (ms) the submission left relative to `due`.
pub fn submit_at(
    mix: &Mix,
    client: &Client,
    index: u64,
    due: Option<Instant>,
) -> (Pending, Stamps, f64) {
    let clone_start = Instant::now();
    let request = mix.request(index);
    let clone_end = Instant::now();
    let late_ms = due.map_or(0.0, sleep_until);
    let submit_start = Instant::now();
    let pending = request.submit(client);
    let stamps = Stamps {
        index,
        clone_start,
        clone_end,
        submit_start,
        submit_end: Instant::now(),
    };
    (pending, stamps, late_ms)
}

/// Accumulates the operations of a windowed or open-loop phase.
struct Tally<'a> {
    out: PhaseOut,
    limit_ms: f64,
    tracer: Option<&'a mut Tracer>,
    /// Span operation id of stream index 0.
    op_base: u64,
}

impl Tally<'_> {
    fn op_id(&self, index: u64) -> u64 {
        self.op_base.wrapping_add(index)
    }

    fn submitted(tracer: &mut Option<&mut Tracer>, op: u64, s: &Stamps) {
        trace::record(tracer, op, Kind::Clone, s.clone_start, s.clone_end);
        trace::record(tracer, op, Kind::Submit, s.submit_start, s.submit_end);
    }

    /// `start` is where the operation's latency counts from: the submit for
    /// a closed loop, the due time for an open one.
    fn resolved(
        &mut self,
        s: &Stamps,
        start: Instant,
        wait_start: Instant,
        resolved: Instant,
        ok: bool,
    ) {
        let verified = Instant::now();
        let lat_ms = resolved.saturating_duration_since(start).as_secs_f64() * 1e3;
        let out = &mut self.out;
        out.lat_ms.push(lat_ms);
        out.kind_of.push((s.index % KINDS as u64) as u8);
        out.clone_us
            .push((s.clone_end - s.clone_start).as_secs_f64() * 1e6);
        out.work += 1.0;
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.within += u64::from(ok && lat_ms <= self.limit_ms);
        let op = self.op_id(s.index);
        let t = &mut self.tracer;
        trace::record(t, op, Kind::Op, start, verified);
        trace::record(t, op, Kind::Wait, wait_start, resolved);
        trace::record(t, op, Kind::Verify, resolved, verified);
    }
}

/// Closed loop: one client keeps `SVC_WINDOW` tickets outstanding and waits
/// for them FIFO.  New cycles of the mix start until the budget is used up;
/// the phase ends when the window has drained, so it holds whole cycles.
pub fn closed_loop(mix: &Mix, client: &Client, cursor: &mut u64, ctx: Ctx<'_>) -> PhaseOut {
    let first = *cursor;
    let mut tally = Tally {
        out: PhaseOut::default(),
        limit_ms: ctx.limit_ms,
        tracer: ctx.tracer,
        op_base: ctx.next_op.wrapping_sub(first),
    };
    let started = Instant::now();
    let mut ended = started;
    let mut window: VecDeque<(Pending, Stamps)> = VecDeque::with_capacity(SVC_WINDOW);
    loop {
        while window.len() < SVC_WINDOW
            && (*cursor == first
                || !cursor.is_multiple_of(KINDS as u64)
                || started.elapsed() < ctx.budget)
        {
            let (pending, stamps, _) = submit_at(mix, client, *cursor, None);
            let op = tally.op_id(*cursor);
            Tally::submitted(&mut tally.tracer, op, &stamps);
            *cursor += 1;
            window.push_back((pending, stamps));
        }
        let Some((pending, stamps)) = window.pop_front() else {
            break;
        };
        let wait_start = Instant::now();
        let (resolved, ok) = mix.resolve(pending, stamps.index);
        ended = resolved;
        tally.resolved(&stamps, stamps.submit_start, wait_start, resolved, ok);
    }
    *ctx.next_op += *cursor - first;
    tally.out.busy_s = (ended - started).as_secs_f64();
    tally.out
}

/// Open loop: a generator thread submits request `k` at `start + k / rate`
/// whatever the completions do (it sleeps to the due time; it never waits for
/// a ticket), and this thread collects the tickets FIFO.  Latency counts from
/// the due time, so a stall delays — and is charged to — every request behind it.
pub fn open_loop(
    mix: &Mix,
    client: &Client,
    rate: f64,
    cursor: &mut u64,
    ctx: Ctx<'_>,
) -> PhaseOut {
    let first = *cursor;
    let count = ((ctx.budget.as_secs_f64() * rate) as u64 / KINDS as u64).max(1) * KINDS as u64;
    let mut tally = Tally {
        out: PhaseOut::default(),
        limit_ms: ctx.limit_ms,
        tracer: ctx.tracer,
        op_base: ctx.next_op.wrapping_sub(first),
    };
    let op_base = tally.op_base;
    let origin = tally.tracer.as_ref().map(|t| t.origin());
    let (tx, rx) = mpsc::channel::<(Pending, Stamps, Instant, f64)>();
    let started = Instant::now() + Duration::from_millis(1);
    let mut ended = started;
    let generated = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            os::pin_current(1);
            os::precise_timers();
            let mut own = origin.map(Tracer::new);
            for k in 0..count {
                let due = started + Duration::from_secs_f64(k as f64 / rate);
                let (pending, stamps, late_ms) = submit_at(mix, client, first + k, Some(due));
                Tally::submitted(&mut own.as_mut(), op_base.wrapping_add(first + k), &stamps);
                if tx.send((pending, stamps, due, late_ms)).is_err() {
                    break;
                }
            }
            own.map(|t| t.spans)
        });
        for (pending, stamps, due, late_ms) in rx {
            let wait_start = Instant::now();
            let (resolved, ok) = mix.resolve(pending, stamps.index);
            ended = resolved;
            tally.out.late_ms.push(late_ms);
            tally.resolved(&stamps, due, wait_start, resolved, ok);
        }
        generator.join().expect("the open-loop generator panicked")
    });
    if let (Some(t), Some(spans)) = (tally.tracer.as_mut(), generated) {
        t.spans.extend(spans);
    }
    *cursor += count;
    *ctx.next_op += count;
    tally.out.busy_s = (ended - started).as_secs_f64();
    tally.out
}

pub struct Svc {
    p: usize,
    shape: Loop,
    mix: Mix,
    main: Engine,
    p1: Engine,
    cursor: [u64; 3],
}

impl Svc {
    pub fn build(seed: u64, p: usize, shape: Loop) -> Self {
        Self {
            p,
            shape,
            mix: Mix::generate(seed),
            main: engine(p),
            p1: engine(1),
            cursor: [0; 3],
        }
    }
}

impl Workload for Svc {
    fn strata(&self) -> usize {
        KINDS
    }

    fn phase(&mut self, which: PhaseKind, ctx: Ctx<'_>) -> PhaseOut {
        let cursor = &mut self.cursor[which as usize];
        let engine = match which {
            PhaseKind::Main => &self.main,
            PhaseKind::P1 => &self.p1,
            PhaseKind::Seq => {
                let mut rec = Recorder::new(ctx);
                // Whole cycles of the mix, at least one.
                loop {
                    self.mix.seq(&mut rec, *cursor);
                    *cursor += 1;
                    if cursor.is_multiple_of(KINDS as u64) && rec.expired() {
                        break;
                    }
                }
                return rec.finish();
            }
        };
        let client = engine.client();
        match self.shape {
            Loop::Closed => closed_loop(&self.mix, &client, cursor, ctx),
            Loop::Open => open_loop(&self.mix, &client, SVC_OPEN_RATE, cursor, ctx),
        }
    }

    fn setup_once(&mut self) -> f64 {
        let requests: Vec<Request> = (0..KINDS as u64).map(|i| self.mix.request(i)).collect();
        let (engine, build_s) = timed_build(self.p + 1, || Engine::builder().procs(self.p).build());
        let t0 = Instant::now();
        let client = engine.client();
        for (i, request) in requests.into_iter().enumerate() {
            let pending = request.submit(&client);
            std::hint::black_box(self.mix.resolve(pending, i as u64));
        }
        engine.shutdown();
        build_s + t0.elapsed().as_secs_f64()
    }

    fn probe_compile(&mut self, tracer: &mut Tracer, next_op: &mut u64) {
        for kind in 0..KINDS as u64 {
            self.mix.probe_compile(tracer, next_op, self.p, kind);
        }
    }

    fn input_hash(&self) -> u64 {
        self.mix.input_hash()
    }

    fn flip_reference(&mut self) {
        self.mix.flip_reference();
    }

    fn shutdown(self: Box<Self>) {
        self.main.shutdown();
        self.p1.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_an_exact_round_robin_over_kinds_and_pool() {
        let mut per_kind = [0usize; KINDS];
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..(KINDS * SVC_POOL) as u64 {
            let (kind, j) = Mix::slot(i);
            per_kind[kind] += 1;
            assert!(
                seen.insert((kind, j)),
                "every (kind, input) once per pool sweep"
            );
        }
        assert_eq!(per_kind, [SVC_POOL; KINDS]);
        assert_eq!(Mix::slot((KINDS * SVC_POOL) as u64), Mix::slot(0));
    }

    #[test]
    fn closed_loop_runs_whole_cycles_and_checks_every_output() {
        let mut mix = Mix::generate(5);
        let engine = engine(1);
        let mut next_op = 0;
        let run = |mix: &Mix, next_op: &mut u64| {
            let ctx = Ctx {
                budget: Duration::from_millis(20),
                limit_ms: 1e9,
                tracer: None,
                next_op,
            };
            closed_loop(mix, &engine.client(), &mut 0, ctx)
        };
        let out = run(&mix, &mut next_op);
        assert!(out.attempted > 0 && out.attempted % KINDS as u64 == 0);
        assert_eq!(
            (out.failed, out.within, next_op),
            (0, out.attempted, out.attempted)
        );
        mix.flip_reference();
        let out = run(&mix, &mut next_op);
        assert_eq!((out.failed, out.within), (out.attempted, 0));
        engine.shutdown();
    }
}
