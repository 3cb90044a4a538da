//! Processor-aware cache-oblivious (PACO) Floyd–Warshall.
//!
//! The same A/B/C/D recursion as [`crate::seq`], with the 1-PIECE
//! processor-list discipline of the paper (Sect. III-C/III-E, Fig. 6/8):
//! every recursive call carries an explicit [`ProcList`]; each fork splits the
//! list `⌊p/2⌋ : ⌈p/2⌉`; when the list is a singleton (or the block reaches
//! the base size) the entire sub-problem becomes one sequential leaf on that
//! processor.  The partitioning — not a work stealer — decides placement, and
//! it never consults the cache parameters: processor-aware, cache-oblivious.
//!
//! Since PR 3 the recursion is no longer *executed* directly: [`plan_fw`]
//! replays it **symbolically** and compiles it into a wave-based
//! [`Plan`]`<`[`LeafCall`]`>` (see [`paco_runtime::schedule`]), one pool
//! barrier per wave.
//!
//! The wave assignment (`layer`) is **dependency-exact and sibling-aligned**.
//! The replay records every leaf in program order together with its read and
//! write footprint on the closure table and, per fork, which leaves each of
//! its two branches recorded.  Footprint boundaries are coordinate-compressed
//! into a grid and each leaf lands in the earliest wave that
//!
//! * follows the actual data flow — a read after the footprint's last writer,
//!   a write after every read since the previous write, **same wave only when
//!   both run on the same worker** (its in-wave FIFO preserves program
//!   order).  This `+ 0` is what folds a worker's private B→D→B→D chain into
//!   one wave instead of four;
//! * is not before the **floor of any enclosing fork**: the later of the two
//!   waves the fork's branches could start in.  Without it the `+ 0` pulls B
//!   into A's wave on `p0` while its sibling C waits one wave on `p1`, and
//!   from then on each side only consumes what the other produced a wave
//!   earlier: at `p = 2` every wave held work for one processor.
//!
//! Two rules in the recursion keep the waves full once siblings start
//! together.  A `D` called from inside `B` breaks a `rows == cols` tie toward
//! *columns*, so B's workers keep their column strips through every phase the
//! way C's keep their row strips (swapping strips made B take four waves
//! where the symmetric C took one).  And a range shared out over
//! `procs.split_even()` — D's row/column cuts, B's and C's strip cuts — is cut
//! in the ratio `⌊p/2⌋ : ⌈p/2⌉` of the list halves that will work on it, the
//! paper's 1-PIECE rule, not in half; the via halvings, which only set
//! recursion order, stay even.  The wave count is then independent of `p` up
//! to rounding (61 at `n/base = 12` for powers of two, 65 otherwise), and
//! [`Plan::profile`] with [`LeafCall::cost`] reads 0.992 / 0.970 / 0.889 of
//! perfect at `p` = 2 / 4 / 8 — what the same leaves on the same owners would
//! reach with no barriers at all.
//!
//! Entry points:
//!
//! * [`FwRun`] — the prepared instance (plan + shared closure table) the
//!   service layer's `Session` schedules; leaves dispatch through the
//!   data-carrying [`LeafCall`] with a concrete [`NullTracker`], so the hot
//!   kernels stay fully monomorphized.  [`FwRun::from_plan`] binds a fresh
//!   adjacency matrix to an already-compiled (cached) [`FwPlan`] without
//!   replaying the recursion.
//! * [`fw_paco_traced`] — the *identical* plan replayed sequentially through
//!   the ideal distributed cache simulator, charging every leaf to the private
//!   cache of the processor the plan assigned it (task-boundary flush per
//!   leaf, the paper's accounting convention).

use crate::kernel::{FwAddr, FwTable};
use crate::seq::{a_co, b_co, c_co, d_co, halves};
use paco_cache_sim::{CacheParams, DistCacheSim, NullTracker, SimTracker, Tracker};
use paco_core::matrix::Matrix;
use paco_core::proc_list::{ProcId, ProcList};
use paco_core::semiring::IdempotentSemiring;
use paco_runtime::schedule::{Plan, Step};
use std::ops::Range;
use std::sync::Arc;

/// A prepared PACO Floyd–Warshall instance: the wave-flattened plan plus the
/// shared closure table its leaves relax.  This is the unit the service
/// layer's `Session` schedules — alone, in homogeneous batches, or mixed with
/// other workloads.
pub struct FwRun<S: IdempotentSemiring> {
    table: FwTable<S>,
    addr: FwAddr,
    compiled: Arc<FwPlan>,
    base: usize,
}

impl<S: IdempotentSemiring> FwRun<S> {
    /// Compile an instance for `p` processors with base-case side `base`.
    pub fn prepare(adj: &Matrix<S>, p: usize, base: usize) -> Self {
        let compiled = Arc::new(plan_fw(adj.rows(), p.max(1), base));
        Self::from_plan(adj, compiled, base)
    }

    /// Bind an adjacency matrix to an already-compiled plan.
    ///
    /// The plan must have been produced by [`plan_fw`] for this matrix's side
    /// `n` and the same `base` (the schedule is independent of the entries, so
    /// one compiled plan serves every `n × n` instance — this is what the
    /// service layer's skeleton cache shares across requests).
    pub fn from_plan(adj: &Matrix<S>, compiled: Arc<FwPlan>, base: usize) -> Self {
        Self::over(FwTable::from_matrix(adj), compiled, base)
    }

    /// [`Self::from_plan`] over an owned matrix, whose allocation becomes the
    /// table (see [`FwTable::from_owned`]): the caller's copy is the only
    /// `n²` buffer the run holds.
    pub fn from_owned(adj: Matrix<S>, compiled: Arc<FwPlan>, base: usize) -> Self {
        Self::over(FwTable::from_owned(adj), compiled, base)
    }

    fn over(table: FwTable<S>, compiled: Arc<FwPlan>, base: usize) -> Self {
        assert!(base >= 1);
        let addr = FwAddr::new(table.n());
        Self {
            table,
            addr,
            compiled,
            base,
        }
    }

    /// The compiled wave schedule.
    pub fn plan(&self) -> &Plan<LeafCall> {
        &self.compiled.plan
    }

    /// Run one leaf with the sequential cache-oblivious kernels.
    pub fn step(&self, _proc: ProcId, call: &LeafCall) {
        call.run(&self.table, self.base, &mut NullTracker, &self.addr);
    }

    /// The closure table being relaxed.  The distributed backend packs and
    /// unpacks ghost blocks straight off this table on each rank.
    pub fn table(&self) -> &FwTable<S> {
        &self.table
    }

    /// Read the closed matrix off the completed table.
    pub fn finish(self) -> Matrix<S> {
        self.table.into_matrix()
    }
}

/// PACO Floyd–Warshall replayed through the ideal distributed cache simulator:
/// the same plan, the same kernels, but each leaf's accesses are charged to
/// the private cache of its assigned processor, with a task-boundary flush
/// before each leaf.
pub fn fw_paco_traced<S: IdempotentSemiring>(
    adj: &Matrix<S>,
    p: usize,
    base: usize,
    params: CacheParams,
) -> (Matrix<S>, DistCacheSim) {
    assert!(base >= 1);
    let table = FwTable::from_matrix(adj);
    let addr = FwAddr::new(table.n());
    let plan = plan_fw(table.n(), p, base);
    let mut tracker = SimTracker::new(p, params);
    plan.plan.for_each(|_, proc, call| {
        tracker.set_proc(proc);
        tracker.task_boundary();
        call.run(&table, base, &mut tracker, &addr);
    });
    (table.to_matrix(), tracker.into_sim())
}

/// A pending leaf: which of the four A/B/C/D roles to run on which block.
///
/// Carrying the call as data (rather than a boxed `FnOnce(&mut dyn Tracker)`)
/// lets every consumer invoke the hot kernels with a *concrete* tracker type —
/// `NullTracker` natively (fully monomorphized, the per-cell tracker hooks
/// compile away exactly as in `fw_seq`/`fw_po`) and `SimTracker` in the traced
/// replay — instead of paying virtual dispatch per cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeafCall {
    /// Diagonal self-closure of `r × r`.
    A {
        /// The diagonal vertex range.
        r: Range<usize>,
    },
    /// Row-aligned closure of `v × cols`.
    B {
        /// The via-vertex range (the block's rows).
        v: Range<usize>,
        /// The block's columns.
        cols: Range<usize>,
    },
    /// Column-aligned closure of `rows × v`.
    C {
        /// The via-vertex range (the block's columns).
        v: Range<usize>,
        /// The block's rows.
        rows: Range<usize>,
    },
    /// Disjoint accumulate `rows × cols ⊕= (rows × via) ⊗ (via × cols)`.
    D {
        /// The block's rows.
        rows: Range<usize>,
        /// The block's columns.
        cols: Range<usize>,
        /// The via-vertex range.
        via: Range<usize>,
    },
}

impl LeafCall {
    /// Run the call sequentially with the cache-oblivious kernels of
    /// [`crate::seq`].
    pub fn run<S: IdempotentSemiring, T: Tracker + ?Sized>(
        &self,
        table: &FwTable<S>,
        base: usize,
        tracker: &mut T,
        addr: &FwAddr,
    ) {
        match self {
            LeafCall::A { r } => a_co(table, r.clone(), base, tracker, addr),
            LeafCall::B { v, cols } => b_co(table, v.clone(), cols.clone(), base, tracker, addr),
            LeafCall::C { v, rows } => c_co(table, v.clone(), rows.clone(), base, tracker, addr),
            LeafCall::D { rows, cols, via } => d_co(
                table,
                rows.clone(),
                cols.clone(),
                via.clone(),
                base,
                tracker,
                addr,
            ),
        }
    }

    /// Semiring relaxations the leaf performs — the unit
    /// [`Plan::profile`] weighs Floyd–Warshall plans in.
    pub fn cost(&self) -> u64 {
        let volume = match self {
            LeafCall::A { r } => r.len().pow(3),
            LeafCall::B { v, cols } => v.len().pow(2) * cols.len(),
            LeafCall::C { v, rows } => v.len().pow(2) * rows.len(),
            LeafCall::D { rows, cols, via } => rows.len() * cols.len() * via.len(),
        };
        volume as u64
    }

    /// The rectangles of the closure table this leaf reads (a superset of the
    /// cells it writes — every role is an in-place `⊕=` update).
    ///
    /// Public because the distributed backend derives each superstep's
    /// exchange set from exactly these footprints.
    pub fn read_rects(&self) -> Vec<(Range<usize>, Range<usize>)> {
        match self {
            LeafCall::A { r } => vec![(r.clone(), r.clone())],
            LeafCall::B { v, cols } => vec![(v.clone(), v.clone()), (v.clone(), cols.clone())],
            LeafCall::C { v, rows } => vec![(rows.clone(), v.clone()), (v.clone(), v.clone())],
            LeafCall::D { rows, cols, via } => vec![
                (rows.clone(), via.clone()),
                (via.clone(), cols.clone()),
                (rows.clone(), cols.clone()),
            ],
        }
    }

    /// The single rectangle this leaf writes (the distributed backend's
    /// writeback set).
    pub fn write_rect(&self) -> (Range<usize>, Range<usize>) {
        match self {
            LeafCall::A { r } => (r.clone(), r.clone()),
            LeafCall::B { v, cols } => (v.clone(), cols.clone()),
            LeafCall::C { v, rows } => (rows.clone(), v.clone()),
            LeafCall::D { rows, cols, via: _ } => (rows.clone(), cols.clone()),
        }
    }
}

/// The compiled Floyd–Warshall schedule.
#[derive(Debug, Clone)]
pub struct FwPlan {
    /// The wave-flattened schedule.
    pub plan: Plan<LeafCall>,
}

/// Compile the PACO Floyd–Warshall recursion for an `n × n` instance on `p`
/// processors into a wave-flattened [`Plan`].
///
/// The recursion is replayed symbolically to a program-ordered leaf list
/// (preserving the 1-PIECE processor assignment), then each leaf is layered
/// into the earliest wave its exact read/write footprint and its enclosing
/// forks allow — see the module docs.  The schedule depends only on
/// `(n, p, base)`, never on the matrix entries.
pub fn plan_fw(n: usize, p: usize, base: usize) -> FwPlan {
    assert!(p >= 1);
    assert!(base >= 1);
    let mut rec = Recorder {
        leaves: Vec::new(),
        forks: Vec::new(),
        base,
    };
    rec.a(ProcList::all(p), 0..n);
    FwPlan {
        plan: layer(p, rec.leaves, &rec.forks),
    }
}

/// Dependency-exact, sibling-aligned wave assignment for a program-ordered
/// leaf list.
///
/// Every rectangle boundary is coordinate-compressed into grid lines, so each
/// footprint is an exact union of grid cells.  Per cell we track the last
/// write `(wave, proc)` and the reads since it `(max wave, proc, mixed)`;
/// the *dependency depth* of a leaf on worker `q` is
///
/// * `≥ wave(writer) + 1` for every read cell whose writer ran elsewhere
///   (`+ 0` on the same worker: in-wave FIFO keeps program order), covering
///   RAW and — since writes are a subset of reads — WAW, and
/// * `≥ wave(reader) + 1` for every written cell read elsewhere since its
///   last write (WAR; `mixed` readers conservatively cost the `+ 1`).
///
/// The `+ 0` is what folds a worker's private B→D→B→D chain into one wave,
/// so it stays.  Alone, though, it also pulls B into A's wave on `p0` while
/// its sibling C waits a wave on `p1`, and from then on the two sides only
/// ever consume what the other produced a wave earlier — no wave holds work
/// for both.  So each fork `(first, second, end)` with two non-empty
/// branches sets a **floor** when layering reaches its first leaf: the larger
/// dependency depth of the two branches' first leaves, against the grid as
/// it stands at fork entry (forks opening on the same leaf are recorded, and
/// so opened, outermost first).  A leaf lands at the maximum of its own
/// dependency depth and every enclosing floor: siblings start together.
///
/// Waves are emitted in program order, so same-worker steps inside one wave
/// replay the recursion's sequential order.
fn layer(
    p: usize,
    leaves: Vec<(ProcId, LeafCall)>,
    forks: &[(usize, usize, usize)],
) -> Plan<LeafCall> {
    if leaves.is_empty() {
        return Plan::empty(p);
    }
    let mut bounds: Vec<usize> = Vec::new();
    for (_, call) in &leaves {
        for (rows, cols) in call.read_rects() {
            bounds.extend([rows.start, rows.end, cols.start, cols.end]);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();
    let m = bounds.len() - 1;
    let span = |r: &Range<usize>| -> Range<usize> {
        let lo = bounds
            .binary_search(&r.start)
            .expect("endpoint is a grid line");
        let hi = bounds
            .binary_search(&r.end)
            .expect("endpoint is a grid line");
        lo..hi
    };
    #[derive(Clone, Copy, Default)]
    struct Cell {
        /// `(wave, proc)` of the last write to this cell.
        writer: Option<(usize, ProcId)>,
        /// `(max wave, proc, mixed)` of the reads since the last write.
        readers: Option<(usize, ProcId, bool)>,
    }
    let dependency_depth = |grid: &[Cell], (q, call): &(ProcId, LeafCall)| -> usize {
        let mut d = 0usize;
        for (rows, cols) in &call.read_rects() {
            for ri in span(rows) {
                for ci in span(cols) {
                    if let Some((wd, wp)) = grid[ri * m + ci].writer {
                        d = d.max(wd + usize::from(wp != *q));
                    }
                }
            }
        }
        let (w_rows, w_cols) = call.write_rect();
        for ri in span(&w_rows) {
            for ci in span(&w_cols) {
                if let Some((rd, rp, mixed)) = grid[ri * m + ci].readers {
                    d = d.max(rd + usize::from(mixed || rp != *q));
                }
            }
        }
        d
    };
    let mut grid: Vec<Cell> = vec![Cell::default(); m * m];
    let mut depths = Vec::with_capacity(leaves.len());
    // `(end, floor)` of the forks enclosing the current leaf, innermost last;
    // each floor already includes the ones below it.
    let mut floors: Vec<(usize, usize)> = Vec::new();
    let mut forks = forks.iter().peekable();
    for (i, leaf) in leaves.iter().enumerate() {
        while floors.last().is_some_and(|&(end, _)| end <= i) {
            floors.pop();
        }
        let own = dependency_depth(&grid, leaf);
        while let Some(&(_, second, end)) = forks.next_if(|f| f.0 == i) {
            if i < second && second < end {
                let floor = own
                    .max(dependency_depth(&grid, &leaves[second]))
                    .max(floors.last().map_or(0, |f| f.1));
                floors.push((end, floor));
            }
        }
        let d = own.max(floors.last().map_or(0, |f| f.1));
        let (q, call) = leaf;
        for (rows, cols) in &call.read_rects() {
            for ri in span(rows) {
                for ci in span(cols) {
                    let cell = &mut grid[ri * m + ci];
                    cell.readers = Some(match cell.readers {
                        None => (d, *q, false),
                        Some((rd, rp, mixed)) => (rd.max(d), rp, mixed || rp != *q),
                    });
                }
            }
        }
        let (w_rows, w_cols) = call.write_rect();
        for ri in span(&w_rows) {
            for ci in span(&w_cols) {
                grid[ri * m + ci] = Cell {
                    writer: Some((d, *q)),
                    readers: None,
                };
            }
        }
        depths.push(d);
    }
    let max_d = *depths.iter().max().unwrap();
    let mut waves: Vec<Vec<Step<LeafCall>>> = vec![Vec::new(); max_d + 1];
    for ((proc, job), d) in leaves.into_iter().zip(depths) {
        waves[d].push(Step { proc, job });
    }
    Plan::from_waves(p, waves)
}

/// Cut `r` in the ratio `|p1| : |p2|` of `procs.split_even()` — the paper's
/// 1-PIECE rule: data is divided like the processor list that will work on
/// it.  Identical to [`halves`] whenever the list splits evenly.
fn cut(procs: ProcList, r: &Range<usize>) -> (ProcList, ProcList, Range<usize>, Range<usize>) {
    let (p1, p2) = procs.split_even();
    let mid = r.start + r.len() * p1.len() / procs.len();
    (p1, p2, r.start..mid, mid..r.end)
}

/// Symbolic replay of the A/B/C/D recursion to a program-ordered leaf list
/// plus, per fork, the leaf-index ranges of its two branches.
///
/// Program order is a valid serialization of the recursion (it is exactly the
/// order `fw_seq` relaxes in), so the layering above can use it as its
/// topological baseline.  D's row/column cuts and the strip cuts of B and C
/// are proportional ([`cut`]); the via/`v` halvings only set recursion
/// *order* and stay even, as does the quadrant cut of B and C.
struct Recorder {
    leaves: Vec<(ProcId, LeafCall)>,
    /// `(first, second, end)`: branch one recorded leaves `first..second`,
    /// branch two `second..end`.  In fork-entry (pre-) order.
    forks: Vec<(usize, usize, usize)>,
    base: usize,
}

impl Recorder {
    fn leaf(&mut self, proc: ProcId, call: LeafCall) {
        self.leaves.push((proc, call));
    }

    /// Two parallel branches on the two halves of a processor list.
    fn fork(&mut self, f1: impl FnOnce(&mut Self), f2: impl FnOnce(&mut Self)) {
        let slot = self.forks.len();
        let first = self.leaves.len();
        self.forks.push((first, first, first));
        f1(self);
        let second = self.leaves.len();
        f2(self);
        self.forks[slot] = (first, second, self.leaves.len());
    }

    /// The A role: close the diagonal block `r × r`.
    fn a(&mut self, procs: ProcList, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        if procs.len() == 1 || r.len() <= self.base {
            return self.leaf(procs.first(), LeafCall::A { r });
        }
        let (r1, r2) = halves(&r);
        let (p1, p2) = procs.split_even();
        // Phase 1: via ∈ r1.  B and C write disjoint off-diagonal blocks.
        self.a(procs, r1.clone());
        self.fork(
            |s| s.b_role(p1, r1.clone(), r2.clone()),
            |s| s.c_role(p2, r1.clone(), r2.clone()),
        );
        self.d(procs, r2.clone(), r2.clone(), r1.clone(), false);
        // Phase 2: via ∈ r2.
        self.a(procs, r2.clone());
        self.fork(
            |s| s.b_role(p1, r2.clone(), r1.clone()),
            |s| s.c_role(p2, r2.clone(), r1.clone()),
        );
        self.d(procs, r1.clone(), r1.clone(), r2.clone(), false);
    }

    /// The B role: close the row-aligned block `v × cols`.  Its processors
    /// own column strips, through the nested D updates too (`tie_cols`).
    fn b_role(&mut self, procs: ProcList, v: Range<usize>, cols: Range<usize>) {
        if v.is_empty() || cols.is_empty() {
            return;
        }
        if procs.len() == 1 || (v.len() <= self.base && cols.len() <= self.base) {
            return self.leaf(procs.first(), LeafCall::B { v, cols });
        }
        if v.len() <= self.base {
            let (p1, p2, c1, c2) = cut(procs, &cols);
            return self.fork(
                |s| s.b_role(p1, v.clone(), c1),
                |s| s.b_role(p2, v.clone(), c2),
            );
        }
        let (v1, v2) = halves(&v);
        if cols.len() <= self.base {
            self.b_role(procs, v1.clone(), cols.clone());
            self.d(procs, v2.clone(), cols.clone(), v1.clone(), true);
            self.b_role(procs, v2.clone(), cols.clone());
            return self.d(procs, v1, cols, v2, true);
        }
        // The quadrant cut stays even: a larger share for the larger list is
        // stranded on one worker as soon as its block reaches `base`.
        let (c1, c2) = halves(&cols);
        let (p1, p2) = procs.split_even();
        // Phase 1: via ∈ v1, then phase 2: via ∈ v2.
        for (via, rest) in [(&v1, &v2), (&v2, &v1)] {
            self.fork(
                |s| s.b_role(p1, via.clone(), c1.clone()),
                |s| s.b_role(p2, via.clone(), c2.clone()),
            );
            self.fork(
                |s| s.d(p1, rest.clone(), c1.clone(), via.clone(), true),
                |s| s.d(p2, rest.clone(), c2.clone(), via.clone(), true),
            );
        }
    }

    /// The C role: close the column-aligned block `rows × v`.  Its
    /// processors own row strips.
    fn c_role(&mut self, procs: ProcList, v: Range<usize>, rows: Range<usize>) {
        if v.is_empty() || rows.is_empty() {
            return;
        }
        if procs.len() == 1 || (v.len() <= self.base && rows.len() <= self.base) {
            return self.leaf(procs.first(), LeafCall::C { v, rows });
        }
        if v.len() <= self.base {
            let (p1, p2, r1, r2) = cut(procs, &rows);
            return self.fork(
                |s| s.c_role(p1, v.clone(), r1),
                |s| s.c_role(p2, v.clone(), r2),
            );
        }
        let (v1, v2) = halves(&v);
        if rows.len() <= self.base {
            self.c_role(procs, v1.clone(), rows.clone());
            self.d(procs, rows.clone(), v2.clone(), v1.clone(), false);
            self.c_role(procs, v2.clone(), rows.clone());
            return self.d(procs, rows, v1, v2, false);
        }
        // Even quadrant cut, as in `b_role`.
        let (r1, r2) = halves(&rows);
        let (p1, p2) = procs.split_even();
        // Phase 1: via ∈ v1, then phase 2: via ∈ v2.
        for (via, rest) in [(&v1, &v2), (&v2, &v1)] {
            self.fork(
                |s| s.c_role(p1, via.clone(), r1.clone()),
                |s| s.c_role(p2, via.clone(), r2.clone()),
            );
            self.fork(
                |s| s.d(p1, r1.clone(), rest.clone(), via.clone(), false),
                |s| s.d(p2, r2.clone(), rest.clone(), via.clone(), false),
            );
        }
    }

    /// The D role: disjoint accumulate, split on the longest dimension
    /// (row/column cuts fork; via cuts stay ordered — and, because both via
    /// halves keep the same processor list, the ordered halves land on the
    /// same workers and share waves through the per-worker FIFO).  A
    /// `rows == cols` tie cuts rows, or columns under `tie_cols`, so that a
    /// caller's strip ownership carries through.
    fn d(
        &mut self,
        procs: ProcList,
        rows: Range<usize>,
        cols: Range<usize>,
        via: Range<usize>,
        tie_cols: bool,
    ) {
        if rows.is_empty() || cols.is_empty() || via.is_empty() {
            return;
        }
        if procs.len() == 1
            || (rows.len() <= self.base && cols.len() <= self.base && via.len() <= self.base)
        {
            return self.leaf(procs.first(), LeafCall::D { rows, cols, via });
        }
        let rows_first = rows.len() > cols.len() || (rows.len() == cols.len() && !tie_cols);
        if rows_first && rows.len() >= via.len() {
            let (p1, p2, r1, r2) = cut(procs, &rows);
            self.fork(
                |s| s.d(p1, r1, cols.clone(), via.clone(), tie_cols),
                |s| s.d(p2, r2, cols.clone(), via.clone(), tie_cols),
            );
        } else if cols.len() >= via.len() {
            let (p1, p2, c1, c2) = cut(procs, &cols);
            self.fork(
                |s| s.d(p1, rows.clone(), c1, via.clone(), tie_cols),
                |s| s.d(p2, rows.clone(), c2, via.clone(), tie_cols),
            );
        } else {
            // A via cut accumulates into the same cells: the halves stay
            // ordered (same procs ⇒ same leaves ⇒ in-wave FIFO ordering).
            let (v1, v2) = halves(&via);
            self.d(procs, rows.clone(), cols.clone(), v1, tie_cols);
            self.d(procs, rows, cols, v2, tie_cols);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::fw_reference;
    use crate::seq::{fw_seq, fw_seq_traced};
    use paco_core::workload::{random_adjacency, random_digraph};
    use paco_runtime::WorkerPool;

    /// Prepare-bind-execute helper replicating the retired `fw_paco_with_base`
    /// free function over [`FwRun`].
    fn fw_paco_with_base<S: IdempotentSemiring>(
        adj: &Matrix<S>,
        pool: &WorkerPool,
        base: usize,
    ) -> Matrix<S> {
        let run = FwRun::prepare(adj, pool.p(), base);
        run.plan().execute(pool, |proc, call| run.step(proc, call));
        run.finish()
    }

    #[test]
    fn matches_reference_for_various_p_and_sizes() {
        for &(n, base) in &[(16usize, 4usize), (65, 8), (100, 16), (128, 32)] {
            let adj = random_digraph(n, 0.2, 60, 3 * n as u64);
            let expect = fw_reference(&adj);
            for p in [1usize, 2, 3, 5, 7] {
                let pool = WorkerPool::new(p);
                assert_eq!(
                    fw_paco_with_base(&adj, &pool, base),
                    expect,
                    "n={n} base={base} p={p}"
                );
            }
        }
    }

    #[test]
    fn bool_transitive_closure_matches_reference() {
        let adj = random_adjacency(96, 0.06, 21);
        let expect = fw_reference(&adj);
        for p in [2usize, 4, 6] {
            let pool = WorkerPool::new(p);
            assert_eq!(fw_paco_with_base(&adj, &pool, 16), expect, "p={p}");
        }
    }

    #[test]
    fn empty_graph() {
        let adj: Matrix<paco_core::semiring::MinPlus> =
            Matrix::from_fn(0, 0, |_, _| unreachable!());
        let pool = WorkerPool::new(3);
        assert_eq!(
            fw_paco_with_base(&adj, &pool, crate::kernel::DEFAULT_BASE).rows(),
            0
        );
    }

    #[test]
    fn traced_matches_native_and_balances_misses() {
        let n = 128;
        let adj = random_digraph(n, 0.2, 40, 9);
        let expect = fw_reference(&adj);
        let params = CacheParams::new(1024, 8);
        for p in [2usize, 3, 5] {
            let (closed, sim) = fw_paco_traced(&adj, p, 16, params);
            assert_eq!(closed, expect, "p={p}");
            assert!(sim.q_sum() > 0);
            // Every processor the partitioning used must have been charged.
            assert!(sim.q_max() > 0, "p={p}");
        }
    }

    #[test]
    fn overall_misses_stay_close_to_sequential_optimum() {
        // Q^Σ_p of PACO should stay within a modest factor of Q₁, far from p·Q₁.
        let n = 128;
        let adj = random_digraph(n, 0.25, 30, 17);
        let params = CacheParams::new(2048, 8);
        let (_, seq) = fw_seq_traced(&adj, 16, params);
        let q1 = seq.q_sum() as f64;
        let p = 4;
        let (_, par) = fw_paco_traced(&adj, p, 16, params);
        let qp = par.q_sum() as f64;
        assert!(
            qp >= 0.9 * q1,
            "parallel total misses cannot beat Q1 by much"
        );
        assert!(
            qp < 3.0 * q1,
            "Q^Σ_p = {qp} should stay well below p·Q₁ = {}",
            p as f64 * q1
        );
    }

    #[test]
    fn wave_count_is_bounded_independently_of_p() {
        // Per phase the wave count is a constant, so it is the same at every
        // p up to proportional-cut rounding: 61 for powers of two, 65 otherwise.
        for &(n, base) in &[(384usize, 32usize), (128, 8)] {
            for p in 2..=8 {
                let waves = plan_fw(n, p, base).plan.barriers();
                assert!(waves <= 65, "n={n} base={base} p={p}: {waves} waves");
            }
        }
    }

    #[test]
    fn exact_layering_beats_the_front_clock_ceilings() {
        // PR 3's conservative per-processor wave clock produced 110 waves at
        // p = 4 and 152 at p = 8 for n = 128, base = 8.  The dependency-exact
        // layering must never regress past those ceilings.
        let b4 = plan_fw(128, 4, 8).plan.barriers();
        let b8 = plan_fw(128, 8, 8).plan.barriers();
        println!("n=128 base=8: p=4 -> {b4} waves (was 110), p=8 -> {b8} waves (was 152)");
        assert!(b4 <= 110, "p=4: {b4} waves, front-clock ceiling was 110");
        assert!(b8 <= 152, "p=8: {b8} waves, front-clock ceiling was 152");
    }

    #[test]
    fn layered_waves_never_overlap_read_write_footprints_across_procs() {
        // Structural check of the layering: inside one wave, a cell written
        // by one processor must be neither read nor written by any other,
        // whichever of the two steps comes first in program order (reads
        // include the write rectangle: every role updates in place).
        let overlap = |a: &(Range<usize>, Range<usize>), b: &(Range<usize>, Range<usize>)| {
            a.0.start < b.0.end && b.0.start < a.0.end && a.1.start < b.1.end && b.1.start < a.1.end
        };
        for &(n, base) in &[(384usize, 32usize), (512, 32), (100, 16), (33, 4), (7, 1)] {
            for p in 2..=8 {
                let fw = plan_fw(n, p, base);
                for wave in fw.plan.waves() {
                    for a in wave {
                        let write = a.job.write_rect();
                        for b in wave.iter().filter(|b| b.proc != a.proc) {
                            for read in b.job.read_rects() {
                                assert!(
                                    !overlap(&write, &read),
                                    "n={n} base={base} p={p}: write {write:?} on proc {} \
                                     overlaps read {read:?} on proc {} in one wave",
                                    a.proc,
                                    b.proc
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plan_barriers_grow_linearly_with_n_not_faster() {
        // Per A-phase the wave count is bounded by a constant in n (it only
        // depends on p): doubling n doubles the A-chain, so barriers at most
        // double (plus a constant).
        let p = 4;
        let base = 8;
        let b128 = plan_fw(128, p, base).plan.barriers();
        let b256 = plan_fw(256, p, base).plan.barriers();
        assert!(
            (b256 as f64) <= 2.3 * b128 as f64,
            "barriers must scale with the A-chain: b(128)={b128}, b(256)={b256}"
        );
    }

    #[test]
    fn single_processor_plan_is_one_leaf_no_fork_barriers() {
        let fw = plan_fw(512, 1, 16);
        assert_eq!(fw.plan.barriers(), 1);
        assert_eq!(fw.plan.steps(), 1);
    }

    #[test]
    fn bound_runs_share_one_compiled_plan() {
        // One compiled plan, many bound instances: from_plan must reproduce
        // prepare() exactly (the skeleton-cache contract).
        let compiled = Arc::new(plan_fw(48, 3, 8));
        let pool = WorkerPool::new(3);
        for seed in [5u64, 6, 7] {
            let adj = random_digraph(48, 0.25, 30, seed);
            let run = FwRun::from_plan(&adj, Arc::clone(&compiled), 8);
            run.plan().execute(&pool, |proc, call| run.step(proc, call));
            assert_eq!(run.finish(), fw_reference(&adj), "seed={seed}");
        }
        assert_eq!(Arc::strong_count(&compiled), 1);
    }

    #[test]
    fn batch_matches_individual_runs_and_shares_barriers() {
        let pool = WorkerPool::new(3);
        let base = 8;
        let adjs: Vec<_> = (0..5)
            .map(|i| random_digraph(24 + 8 * i, 0.25, 30, 100 + i as u64))
            .collect();
        let expect: Vec<_> = adjs.iter().map(fw_reference).collect();
        let runs: Vec<FwRun<_>> = adjs
            .iter()
            .map(|adj| FwRun::prepare(adj, pool.p(), base))
            .collect();
        let plan_refs: Vec<&Plan<LeafCall>> = runs.iter().map(|r| r.plan()).collect();
        let batched = Plan::batch_refs(&plan_refs);
        batched.execute(&pool, |proc, (inst, call)| runs[*inst].step(proc, call));
        let got: Vec<_> = runs.into_iter().map(FwRun::finish).collect();
        assert_eq!(got, expect);

        // The batched plan's barrier count is the max of the constituents',
        // not the sum.
        let plans: Vec<_> = adjs
            .iter()
            .map(|a| plan_fw(a.rows(), pool.p(), base).plan)
            .collect();
        let sum: usize = plans.iter().map(|p| p.barriers()).sum();
        let max = plans.iter().map(|p| p.barriers()).max().unwrap();
        let batched = Plan::batch(plans);
        assert_eq!(batched.barriers(), max);
        assert!(batched.barriers() < sum);
    }

    #[test]
    fn plan_agrees_with_seq_for_awkward_sizes() {
        for &(n, p, base) in &[(33usize, 5usize, 4usize), (77, 3, 8), (64, 8, 4)] {
            let adj = random_digraph(n, 0.3, 25, n as u64 * 7 + p as u64);
            let pool = WorkerPool::new(p);
            assert_eq!(
                fw_paco_with_base(&adj, &pool, base),
                fw_seq(&adj, base),
                "n={n} p={p} base={base}"
            );
        }
    }
}
