//! The five workloads.  All use the defaults of `Tuning` and `BatchPolicy`:
//! the system under test has no knob, so the benchmark turns none.

pub mod closure;
pub mod incr;
pub mod mm;
pub mod svc;

use crate::harness::Workload;
use crate::os;
use crate::trace::{Kind, Tracer};
use paco_core::arena::ScratchArena;
use paco_core::matrix::Matrix;
use paco_service::{Engine, Session, Solve, Tuning};
use std::sync::Arc;
use std::time::Instant;

/// Build a front door, then place its threads (see [`os`]).  Returns the
/// seconds the build itself took; the placement is the benchmark's doing
/// and is not charged to the system.  `threads` is how many threads the
/// build starts: `p` workers, plus one executor for an engine.
pub fn timed_build<T>(threads: usize, build: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let front_door = build();
    let secs = t0.elapsed().as_secs_f64();
    os::place_threads(threads);
    (front_door, secs)
}

/// A `Session` on `p` processors, defaults everywhere, workers placed.
pub fn session(p: usize) -> Session {
    timed_build(p, || Session::new(p)).0
}

/// An `Engine` with `p` processors per shard, defaults everywhere, workers placed.
pub fn engine(p: usize) -> Engine {
    timed_build(p + 1, || Engine::builder().procs(p).build()).0
}

/// Whether an `f64` product equals its reference.  Entries are sums of up to
/// 768 terms in [-1, 1]: a different but valid reduction order moves them by
/// ~1e-13, a wrong block by ~1.
pub fn product_matches(out: &Matrix<f64>, reference: &Matrix<f64>) -> bool {
    out.rows() == reference.rows()
        && out.cols() == reference.cols()
        && out.max_abs_diff(reference) <= 1e-9
}

/// Build the named workload's long-lived objects from `seed`.
pub fn build(name: &str, seed: u64, p: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "mm_dense" => Box::new(mm::MmDense::build(seed, p)),
        "closure_semiring" => Box::new(closure::ClosureSemiring::build(seed, p)),
        "incr_updates" => Box::new(incr::IncrUpdates::build(seed, p)),
        "svc_closed" => Box::new(svc::Svc::build(seed, p, svc::Loop::Closed)),
        "svc_open" => Box::new(svc::Svc::build(seed, p, svc::Loop::Open)),
        _ => return None,
    })
}

/// Repetitions of a compile probe; its spans report medians.
const PROBE_REPS: usize = 9;

/// Time the three public compile steps of `Solve` on fresh copies of one
/// request: `shape_key`, a cold `skeleton`, and `bind` to it.  This is what a
/// front door does on a plan-cache miss, called here from outside so the
/// trace can show it; nothing is executed.
pub fn probe_solve<R: Solve>(
    tracer: &mut Tracer,
    next_op: &mut u64,
    p: usize,
    make: impl Fn() -> R,
) {
    let tuning = Tuning::from_env();
    let arena = Arc::new(ScratchArena::new());
    for _ in 0..PROBE_REPS {
        let req = make();
        let t0 = Instant::now();
        let key = std::hint::black_box(req.shape_key());
        let t1 = Instant::now();
        let skeleton = std::hint::black_box(req.skeleton(&tuning, p));
        let t2 = Instant::now();
        let compiled = std::hint::black_box(req.bind(&skeleton, &tuning, p, &arena));
        let t3 = Instant::now();
        drop((key, compiled));
        let op = *next_op;
        *next_op += 1;
        tracer.record(op, Kind::Op, t0, t3);
        tracer.record(op, Kind::ShapeKey, t0, t1);
        tracer.record(op, Kind::Skeleton, t1, t2);
        tracer.record(op, Kind::Bind, t2, t3);
    }
}
