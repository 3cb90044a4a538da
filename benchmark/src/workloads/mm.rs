//! `mm_dense`: one big `MatMul<f64>` at a time through `Session::run`.

use crate::harness::{Ctx, Fnv, PhaseKind, PhaseOut, Recorder, Workload};
use crate::spec::{MM_N, MM_POOL};
use crate::trace::Tracer;
use crate::workloads::{probe_solve, product_matches, session, timed_build};
use paco_core::matrix::Matrix;
use paco_core::workload::random_matrix_f64;
use paco_matmul::co_mm::co_mm_alloc;
use paco_service::{MatMul, Session};
use std::time::Instant;

pub struct MmDense {
    p: usize,
    pool: Vec<(Matrix<f64>, Matrix<f64>)>,
    refs: Vec<Matrix<f64>>,
    main: Session,
    p1: Session,
    /// Next pool entry of each phase kind, so every phase walks the pool
    /// round-robin whatever the other phases did.
    cursor: [usize; 3],
}

impl MmDense {
    pub fn build(seed: u64, p: usize) -> Self {
        let pool: Vec<_> = (0..MM_POOL as u64)
            .map(|i| {
                (
                    random_matrix_f64(MM_N, MM_N, seed.wrapping_mul(1000) + 2 * i),
                    random_matrix_f64(MM_N, MM_N, seed.wrapping_mul(1000) + 2 * i + 1),
                )
            })
            .collect();
        let refs = pool.iter().map(|(a, b)| co_mm_alloc(a, b)).collect();
        Self {
            p,
            pool,
            refs,
            main: session(p),
            p1: session(1),
            cursor: [0; 3],
        }
    }
}

impl Workload for MmDense {
    fn phase(&mut self, which: PhaseKind, ctx: Ctx<'_>) -> PhaseOut {
        let flops = 2.0 * (MM_N as f64).powi(3);
        let mut rec = Recorder::new(ctx);
        let cursor = &mut self.cursor[which as usize];
        loop {
            let (a, b) = &self.pool[*cursor % MM_POOL];
            let reference = &self.refs[*cursor % MM_POOL];
            *cursor += 1;
            match which {
                PhaseKind::Main | PhaseKind::P1 => {
                    let session = if which == PhaseKind::Main {
                        &self.main
                    } else {
                        &self.p1
                    };
                    rec.op(
                        0,
                        flops,
                        || (a.clone(), b.clone()),
                        |(a, b)| session.run(MatMul { a, b }),
                        |out| product_matches(out, reference),
                    );
                }
                // Fresh copies here too: where a 4.5 MiB operand lands (huge
                // pages or not) moves this kernel by a fifth, and the front
                // door can only be given fresh copies.
                PhaseKind::Seq => rec.op(
                    0,
                    flops,
                    || (a.clone(), b.clone()),
                    |(a, b)| co_mm_alloc(&a, &b),
                    |out| product_matches(out, reference),
                ),
            }
            if rec.expired() {
                break;
            }
        }
        rec.finish()
    }

    fn setup_once(&mut self) -> f64 {
        let (a, b) = self.pool[0].clone();
        let (session, build_s) = timed_build(self.p, || Session::new(self.p));
        let t0 = Instant::now();
        std::hint::black_box(session.run(MatMul { a, b }));
        drop(session);
        build_s + t0.elapsed().as_secs_f64()
    }

    fn probe_compile(&mut self, tracer: &mut Tracer, next_op: &mut u64) {
        let (a, b) = &self.pool[0];
        probe_solve(tracer, next_op, self.p, || MatMul {
            a: a.clone(),
            b: b.clone(),
        });
    }

    fn input_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for (a, b) in &self.pool {
            h.f64s(a.data().iter().copied());
            h.f64s(b.data().iter().copied());
        }
        h.0
    }

    fn flip_reference(&mut self) {
        for r in &mut self.refs {
            r.data_mut().iter_mut().for_each(|v| *v += 1.0);
        }
    }

    fn shutdown(self: Box<Self>) {}
}
