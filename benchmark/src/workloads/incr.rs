//! `incr_updates`: edge-update batches and snapshots on one held closed graph.
//!
//! The stream is periodic and its composition is exact.  A period is
//! [`INCR_BLOCKS`] blocks of [`INCR_BLOCK_BATCHES`] batches; every block holds
//! exactly one *restore* batch, at a position the seed chooses, and every
//! other batch is *improving*.  An improving batch was checked at generation
//! time to take the dirty-rectangle path; a restore batch worsens one edge
//! first, so the whole batch is absorbed by exactly one full re-closure, and
//! assigns every edge changed since the last restore its original weight —
//! which is what makes the stream periodic, and every output known in advance.

use crate::harness::{Ctx, Fnv, PhaseKind, PhaseOut, Recorder, Workload};
use crate::spec::{
    INCR_BATCH_EDGES, INCR_BLOCKS, INCR_BLOCK_BATCHES, INCR_DENSITY, INCR_N, INCR_SNAPSHOT_EVERY,
};
use crate::trace::Tracer;
use crate::workloads::{probe_solve, timed_build};
use paco_core::matrix::Matrix;
use paco_core::semiring::MinPlus;
use paco_core::workload::{random_digraph, rng};
use paco_incr::{ClosedState, EdgeUpdate, UpdateStats};
use paco_service::{
    ClosedGraph, HandleRegistry, IncClose, IncDrop, IncSnapshot, IncUpdate, Session, Tuning,
};
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// One operation of the stream with its reference output.
#[derive(Debug, Clone)]
pub enum Op {
    Update {
        batch: Vec<EdgeUpdate<MinPlus>>,
        expect: UpdateStats,
    },
    /// Read the closure; `expect` is the fingerprint of the closed matrix.
    Snapshot { expect: u64 },
}

/// Whether an improving batch's dirty frontier is of typical size.  Frontiers
/// range from 4 to over 100 rows; left unfiltered, the median cost of a
/// pool's 60 batches moved by a fifth from seed to seed.
fn batch_work_is_typical(stats: &UpdateStats) -> bool {
    (16..=32).contains(&(stats.frontier_rows + stats.frontier_cols))
        && (12..=40).contains(&stats.blocks_probed)
}

/// Operations of one block: its batches and the snapshots among them.
pub const BLOCK_OPS: usize = INCR_BLOCK_BATCHES + INCR_BLOCK_BATCHES / INCR_SNAPSHOT_EVERY;

pub struct IncrStream {
    pub adj: Matrix<MinPlus>,
    /// One period, starting at a block boundary.
    pub ops: Vec<Op>,
    /// Index in `ops` of the first operation after the period's last restore:
    /// applying `ops[warm_from..]` to the closure of `adj` gives the state the
    /// period starts (and ends) in.
    pub warm_from: usize,
}

/// `ClosedState::apply_batch` under `tuning`'s knobs: the sequential function
/// the front door's `IncUpdate` ends up in.
pub fn apply(
    state: &mut ClosedState<MinPlus>,
    batch: &[EdgeUpdate<MinPlus>],
    tuning: &Tuning,
) -> UpdateStats {
    state.apply_batch(
        batch,
        tuning.incr_block,
        tuning.incr_fallback_percent,
        tuning.fw_base,
    )
}

pub fn fingerprint(closed: &Matrix<MinPlus>) -> u64 {
    let mut h = Fnv::default();
    h.f64s(closed.data().iter().map(|x| x.0));
    h.0
}

impl IncrStream {
    pub fn generate(seed: u64, tuning: &Tuning) -> Self {
        let n = INCR_N;
        let adj = random_digraph(n, INCR_DENSITY, 50, seed.wrapping_mul(1000) + 7);
        let mut r = rng(seed.wrapping_mul(1000) + 8);
        let total = INCR_BLOCKS * INCR_BLOCK_BATCHES;
        let restore_at: Vec<usize> = (0..INCR_BLOCKS)
            .map(|_| r.gen_range(0..INCR_BLOCK_BATCHES))
            .collect();
        let is_restore =
            |slot: usize| slot % INCR_BLOCK_BATCHES == restore_at[slot / INCR_BLOCK_BATCHES];
        let first = (total - INCR_BLOCK_BATCHES + restore_at[INCR_BLOCKS - 1] + 1) % total;

        // The edge a restore batch worsens first and puts back last.
        let kick = loop {
            let (u, v) = (r.gen_range(0..n), r.gen_range(0..n));
            if u != v && adj[(u, v)].0.is_finite() {
                break (u, v);
            }
        };

        let mut sim = ClosedState::close(adj.clone(), tuning.fw_base);
        let initial = sim.closed().clone();
        let mut dirty: Vec<(usize, usize)> = Vec::new();
        let mut per_slot: Vec<Vec<Op>> = vec![Vec::new(); total];
        for k in 0..total {
            let slot = (first + k) % total;
            if is_restore(slot) {
                let mut batch = vec![EdgeUpdate::new(kick.0, kick.1, MinPlus(adj[kick].0 + 1.0))];
                dirty.sort_unstable();
                dirty.dedup();
                batch.extend(
                    dirty
                        .drain(..)
                        .map(|(u, v)| EdgeUpdate::new(u, v, adj[(u, v)])),
                );
                batch.push(EdgeUpdate::new(kick.0, kick.1, adj[kick]));
                let expect = apply(&mut sim, &batch, tuning);
                assert_eq!(
                    expect.full_fallbacks, 1,
                    "a restore batch is one full re-closure"
                );
                per_slot[slot].push(Op::Update { batch, expect });
            } else {
                // Rejection-sample a batch of modest improvements ("a link
                // got slightly faster") that stays on the incremental path.
                loop {
                    let batch: Vec<_> = (0..INCR_BATCH_EDGES)
                        .map(|_| loop {
                            let (u, v) = (r.gen_range(0..n), r.gen_range(0..n));
                            let d = sim.closed()[(u, v)].0;
                            if u != v && d.is_finite() && d > 1.0 {
                                break EdgeUpdate::new(u, v, MinPlus(d - 1.0));
                            }
                        })
                        .collect();
                    let mut trial = sim.clone();
                    let expect = apply(&mut trial, &batch, tuning);
                    if expect.full_fallbacks == 0 && batch_work_is_typical(&expect) {
                        sim = trial;
                        dirty.extend(batch.iter().map(|e| (e.from, e.to)));
                        per_slot[slot].push(Op::Update { batch, expect });
                        break;
                    }
                }
            }
            if (slot + 1).is_multiple_of(INCR_SNAPSHOT_EVERY) {
                per_slot[slot].push(Op::Snapshot {
                    expect: fingerprint(sim.closed()),
                });
            }
        }
        assert!(*sim.closed() == initial, "the stream must be periodic");

        let ops: Vec<Op> = per_slot.iter().flatten().cloned().collect();
        // `first == 0`: the period ends on a restore and starts freshly closed.
        let warm_from = if first == 0 {
            ops.len()
        } else {
            per_slot[..first].iter().map(Vec::len).sum()
        };
        Self {
            adj,
            ops,
            warm_from,
        }
    }

    /// The batches that take a freshly closed `adj` to the state the period
    /// starts in.
    pub fn warm_batches(&self) -> impl Iterator<Item = &[EdgeUpdate<MinPlus>]> {
        self.ops[self.warm_from..].iter().filter_map(|op| match op {
            Op::Update { batch, .. } => Some(batch.as_slice()),
            Op::Snapshot { .. } => None,
        })
    }

    /// Exact totals of one period.
    pub fn totals(&self) -> UpdateStats {
        let mut t = UpdateStats::default();
        for op in &self.ops {
            if let Op::Update { expect, .. } = op {
                t.updates += expect.updates;
                t.incremental += expect.incremental;
                t.full += expect.full;
                t.full_fallbacks += expect.full_fallbacks;
                t.blocks_probed += expect.blocks_probed;
                t.blocks_repropagated += expect.blocks_repropagated;
                t.blocks_total += expect.blocks_total;
            }
        }
        t
    }
}

/// A session holding the graph, through the front door.
struct Held {
    session: Session,
    registry: Arc<HandleRegistry>,
    handle: ClosedGraph<MinPlus>,
}

impl Held {
    /// Returns the handle and the seconds opening it took (placing the
    /// workers excluded).
    fn open(p: usize, adj: Matrix<MinPlus>) -> (Self, f64) {
        let (session, build_s) = timed_build(p, || Session::new(p));
        let t0 = Instant::now();
        let registry = session.registry();
        let handle = session.run(IncClose {
            adj,
            registry: Arc::clone(&registry),
        });
        let held = Self {
            session,
            registry,
            handle,
        };
        (held, build_s + t0.elapsed().as_secs_f64())
    }

    fn update(&self, updates: Vec<EdgeUpdate<MinPlus>>) -> UpdateStats {
        self.session.run(IncUpdate {
            handle: self.handle,
            updates,
            registry: Arc::clone(&self.registry),
        })
    }

    fn snapshot(&self) -> Matrix<MinPlus> {
        self.session.run(IncSnapshot {
            handle: self.handle,
            registry: Arc::clone(&self.registry),
        })
    }
}

pub struct IncrUpdates {
    p: usize,
    tuning: Tuning,
    stream: IncrStream,
    main: Held,
    p1: Held,
    seq: ClosedState<MinPlus>,
    /// Next block of each phase kind.
    block: [usize; 3],
}

impl IncrUpdates {
    pub fn build(seed: u64, p: usize) -> Self {
        let tuning = Tuning::from_env();
        let stream = IncrStream::generate(seed, &tuning);
        let main = Held::open(p, stream.adj.clone()).0;
        let p1 = Held::open(1, stream.adj.clone()).0;
        let mut seq = ClosedState::close(stream.adj.clone(), tuning.fw_base);
        // Bring all three graphs to the state the period starts in.
        for batch in stream.warm_batches() {
            main.update(batch.to_vec());
            p1.update(batch.to_vec());
            apply(&mut seq, batch, &tuning);
        }
        Self {
            p,
            tuning,
            stream,
            main,
            p1,
            seq,
            block: [0; 3],
        }
    }
}

impl Workload for IncrUpdates {
    fn phase(&mut self, which: PhaseKind, ctx: Ctx<'_>) -> PhaseOut {
        let mut rec = Recorder::new(ctx);
        let Self {
            tuning,
            stream,
            main,
            p1,
            seq,
            block,
            ..
        } = self;
        let block = &mut block[which as usize];
        // Whole blocks only, so every phase has exactly the stream's mix.
        loop {
            let at = (*block % INCR_BLOCKS) * BLOCK_OPS;
            *block += 1;
            for op in &stream.ops[at..at + BLOCK_OPS] {
                match (op, which) {
                    (Op::Update { batch, expect }, PhaseKind::Seq) => rec.op(
                        0,
                        batch.len() as f64,
                        || (),
                        |()| apply(seq, batch, tuning),
                        |got| got == expect,
                    ),
                    (Op::Update { batch, expect }, _) => {
                        let held = if which == PhaseKind::Main {
                            &*main
                        } else {
                            &*p1
                        };
                        rec.op(
                            0,
                            batch.len() as f64,
                            || batch.clone(),
                            |b| held.update(b),
                            |got| got == expect,
                        );
                    }
                    (Op::Snapshot { expect }, PhaseKind::Seq) => rec.op(
                        0,
                        0.0,
                        || (),
                        |()| seq.closed().clone(),
                        |got| fingerprint(got) == *expect,
                    ),
                    (Op::Snapshot { expect }, _) => {
                        let held = if which == PhaseKind::Main {
                            &*main
                        } else {
                            &*p1
                        };
                        rec.op(
                            0,
                            0.0,
                            || (),
                            |()| held.snapshot(),
                            |got| fingerprint(got) == *expect,
                        );
                    }
                }
            }
            if rec.expired() {
                break;
            }
        }
        rec.finish()
    }

    fn setup_once(&mut self) -> f64 {
        let adj = self.stream.adj.clone();
        // The first batch after a restore applies to a freshly closed graph.
        let first = self.stream.ops[self.stream.warm_from % self.stream.ops.len()..]
            .iter()
            .find_map(|op| match op {
                Op::Update { batch, .. } => Some(batch.clone()),
                Op::Snapshot { .. } => None,
            })
            .expect("a period has batches");
        let (held, open_s) = Held::open(self.p, adj);
        let t0 = Instant::now();
        std::hint::black_box(held.update(first));
        std::hint::black_box(held.snapshot());
        held.session.run(IncDrop {
            handle: held.handle,
            registry: Arc::clone(&held.registry),
        });
        drop(held);
        open_s + t0.elapsed().as_secs_f64()
    }

    fn probe_compile(&mut self, tracer: &mut Tracer, next_op: &mut u64) {
        let (p, main) = (self.p, &self.main);
        probe_solve(tracer, next_op, p, || IncUpdate {
            handle: main.handle,
            updates: Vec::new(),
            registry: Arc::clone(&main.registry),
        });
    }

    fn input_hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.f64s(self.stream.adj.data().iter().map(|x| x.0));
        for op in &self.stream.ops {
            if let Op::Update { batch, .. } = op {
                for e in batch {
                    h.word(e.from as u64);
                    h.word(e.to as u64);
                    h.word(e.weight.0.to_bits());
                }
            }
        }
        h.0
    }

    fn flip_reference(&mut self) {
        for op in &mut self.stream.ops {
            match op {
                Op::Update { expect, .. } => expect.updates += 1,
                Op::Snapshot { expect } => *expect ^= 1,
            }
        }
    }

    fn shutdown(self: Box<Self>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_holds_exactly_fifteen_improving_and_one_restoring_batch() {
        let tuning = Tuning::default();
        let counts = |seed: u64| {
            let s = IncrStream::generate(seed, &tuning);
            assert_eq!(s.ops.len(), INCR_BLOCKS * BLOCK_OPS);
            let mut restore_positions = Vec::new();
            for block in s.ops.chunks(BLOCK_OPS) {
                let (mut improving, mut restoring, mut snapshots) = (0, 0, 0);
                for (i, op) in block.iter().enumerate() {
                    match op {
                        Op::Update { expect, batch } if expect.full_fallbacks == 1 => {
                            restoring += 1;
                            restore_positions.push(i);
                            assert_eq!(expect.full as usize, batch.len());
                        }
                        Op::Update { expect, batch } => {
                            improving += 1;
                            assert_eq!((expect.full, batch.len()), (0, INCR_BATCH_EDGES));
                            assert_eq!(expect.incremental as usize, INCR_BATCH_EDGES);
                        }
                        Op::Snapshot { .. } => snapshots += 1,
                    }
                }
                assert_eq!(
                    (improving, restoring, snapshots),
                    (INCR_BLOCK_BATCHES - 1, 1, 2)
                );
            }
            let t = s.totals();
            ((t.incremental, t.full_fallbacks), restore_positions)
        };
        let (a, pos_a) = counts(1);
        let (b, pos_b) = counts(2);
        // Counts do not depend on the seed; the order does.
        assert_eq!(a, b);
        assert_eq!(
            a,
            (
                (INCR_BLOCKS * (INCR_BLOCK_BATCHES - 1) * INCR_BATCH_EDGES) as u64,
                INCR_BLOCKS as u64
            )
        );
        assert_ne!(pos_a, pos_b);
    }

    #[test]
    fn the_stream_replays_to_its_reference_outputs_period_after_period() {
        let tuning = Tuning::default();
        let s = IncrStream::generate(3, &tuning);
        let mut state = ClosedState::close(s.adj.clone(), tuning.fw_base);
        let run = |state: &mut ClosedState<MinPlus>, ops: &[Op]| {
            for op in ops {
                match op {
                    Op::Update { batch, expect } => {
                        let got = apply(state, batch, &tuning);
                        assert_eq!(got, *expect);
                    }
                    Op::Snapshot { expect } => assert_eq!(fingerprint(state.closed()), *expect),
                }
            }
        };
        for batch in s.warm_batches() {
            apply(&mut state, batch, &tuning);
        }
        for _ in 0..2 {
            run(&mut state, &s.ops);
        }
    }
}
