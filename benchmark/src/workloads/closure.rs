//! `closure_semiring`: all-pairs shortest paths and reachability of one graph.

use crate::harness::{Ctx, Fnv, PhaseKind, PhaseOut, Recorder, Workload};
use crate::spec::{CLOSURE_DENSITY, CLOSURE_N, CLOSURE_POOL};
use crate::trace::Tracer;
use crate::workloads::{probe_solve, session, timed_build};
use paco_core::matrix::Matrix;
use paco_core::semiring::{BoolSemiring, MinPlus};
use paco_core::workload::random_digraph;
use paco_graph::seq::fw_seq;
use paco_service::{Apsp, Closure, Session, Tuning};
use std::time::Instant;

type Pair = (Matrix<MinPlus>, Matrix<BoolSemiring>);

/// The same graph, unweighted: an edge wherever a finite weight is.
pub fn unweighted(weights: &Matrix<MinPlus>) -> Matrix<BoolSemiring> {
    let n = weights.rows();
    Matrix::from_fn(n, n, |i, j| BoolSemiring(weights[(i, j)].0.is_finite()))
}

pub struct ClosureSemiring {
    p: usize,
    fw_base: usize,
    pool: Vec<Pair>,
    refs: Vec<Pair>,
    main: Session,
    p1: Session,
    cursor: [usize; 3],
}

impl ClosureSemiring {
    pub fn build(seed: u64, p: usize) -> Self {
        let fw_base = Tuning::from_env().fw_base;
        let pool: Vec<Pair> = (0..CLOSURE_POOL as u64)
            .map(|i| {
                let weights =
                    random_digraph(CLOSURE_N, CLOSURE_DENSITY, 50, seed.wrapping_mul(1000) + i);
                let edges = unweighted(&weights);
                (weights, edges)
            })
            .collect();
        let refs = pool
            .iter()
            .map(|(w, e)| (fw_seq(w, fw_base), fw_seq(e, fw_base)))
            .collect();
        Self {
            p,
            fw_base,
            pool,
            refs,
            main: session(p),
            p1: session(1),
            cursor: [0; 3],
        }
    }
}

impl Workload for ClosureSemiring {
    fn phase(&mut self, which: PhaseKind, ctx: Ctx<'_>) -> PhaseOut {
        // n³ ⊗ and n³ ⊕ per closure, two closures per operation.
        let ops = 4.0 * (CLOSURE_N as f64).powi(3);
        let fw_base = self.fw_base;
        let mut rec = Recorder::new(ctx);
        let cursor = &mut self.cursor[which as usize];
        loop {
            let (weights, edges) = &self.pool[*cursor % CLOSURE_POOL];
            let reference = &self.refs[*cursor % CLOSURE_POOL];
            *cursor += 1;
            let verify = |out: &Pair| out == reference;
            match which {
                PhaseKind::Main | PhaseKind::P1 => {
                    let session = if which == PhaseKind::Main {
                        &self.main
                    } else {
                        &self.p1
                    };
                    rec.op(
                        0,
                        ops,
                        || (weights.clone(), edges.clone()),
                        |(w, e)| {
                            (
                                session.run(Apsp { adj: w }),
                                session.run(Closure { adj: e }),
                            )
                        },
                        verify,
                    );
                }
                // Fresh copies, as the front door gets: see `mm.rs`.
                PhaseKind::Seq => rec.op(
                    0,
                    ops,
                    || (weights.clone(), edges.clone()),
                    |(w, e)| (fw_seq(&w, fw_base), fw_seq(&e, fw_base)),
                    verify,
                ),
            }
            if rec.expired() {
                break;
            }
        }
        rec.finish()
    }

    fn setup_once(&mut self) -> f64 {
        let (w, e) = self.pool[0].clone();
        let (session, build_s) = timed_build(self.p, || Session::new(self.p));
        let t0 = Instant::now();
        std::hint::black_box(session.run(Apsp { adj: w }));
        std::hint::black_box(session.run(Closure { adj: e }));
        drop(session);
        build_s + t0.elapsed().as_secs_f64()
    }

    fn probe_compile(&mut self, tracer: &mut Tracer, next_op: &mut u64) {
        // Both requests share the "closure" shape key and schedule.
        let weights = &self.pool[0].0;
        probe_solve(tracer, next_op, self.p, || Apsp {
            adj: weights.clone(),
        });
    }

    fn input_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for (w, _) in &self.pool {
            h.f64s(w.data().iter().map(|x| x.0));
        }
        h.0
    }

    fn flip_reference(&mut self) {
        for (w, e) in &mut self.refs {
            w.data_mut().iter_mut().for_each(|x| x.0 += 1.0);
            e.data_mut().iter_mut().for_each(|x| x.0 = !x.0);
        }
    }

    fn shutdown(self: Box<Self>) {}
}
