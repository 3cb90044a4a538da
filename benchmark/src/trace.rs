//! Spans recorded by the benchmark around each public call into the system.
//!
//! Spans are kept in memory and written as JSON lines when the run ends.
//! Span ids are computed, not allocated — `op * SLOTS + slot` — so the
//! threads of an open-loop run (generator, collector) record into their own
//! buffers without sharing a counter, and every span of one operation names
//! the same root.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// What a span timed.  The discriminant is the span's slot within its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Root of one operation: from its start (open loop: its due time) to
    /// its verified result.
    Op = 0,
    /// Cloning the operation's input out of the pool.
    Clone = 1,
    /// The synchronous front door: `Session::run`, or the plain sequential
    /// function in a sequential phase.
    Call = 2,
    /// `Client::submit`.
    Submit = 3,
    /// `Ticket::wait`.
    Wait = 4,
    /// Comparing the output with the reference.
    Verify = 5,
    /// `Solve::shape_key`, called by the benchmark on a probe request.
    ShapeKey = 6,
    /// `Solve::skeleton` (cold compile), on a probe request.
    Skeleton = 7,
    /// `Solve::bind`, on a probe request.
    Bind = 8,
}

const SLOTS: u64 = 16;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Clone => "clone",
            Kind::Call => "call",
            Kind::Submit => "Client::submit",
            Kind::Wait => "Ticket::wait",
            Kind::Verify => "verify",
            Kind::ShapeKey => "Solve::shape_key",
            Kind::Skeleton => "Solve::skeleton",
            Kind::Bind => "Solve::bind",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub op: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn id(&self) -> u64 {
        self.op * SLOTS + self.kind as u64
    }

    /// The span that caused this one: the operation's root.
    pub fn parent(&self) -> Option<u64> {
        (self.kind != Kind::Op).then_some(self.op * SLOTS)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer.  All tracers of a run share `origin`.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn record(&mut self, op: u64, kind: Kind, start: Instant, end: Instant) {
        self.spans.push(Span {
            op,
            kind,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        });
    }
}

/// Record into `tracer` when tracing is on; free when it is off.
pub fn record(tracer: &mut Option<&mut Tracer>, op: u64, kind: Kind, start: Instant, end: Instant) {
    if let Some(t) = tracer {
        t.record(op, kind, start, end);
    }
}

/// Self time per span kind: a span's duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlaps
/// between children counted once).  Returns `(count, total self ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<Kind, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent() {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<Kind, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id()) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let entry = out.entry(s.kind).or_default();
        entry.0 += 1;
        entry.1 += s.dur_ns() - covered;
    }
    out
}

/// Durations (ns) of every span of `kind`.
pub fn durations(spans: &[Span], kind: Kind) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Write one JSON object per span: `id`, `parent`, `op`, `name`, `start_us`, `end_us`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj(vec![
            ("id", Json::Num(s.id() as f64)),
            (
                "parent",
                s.parent().map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("op", Json::Num(s.op as f64)),
            ("name", Json::str(s.kind.name())),
            ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
            ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
        ]);
        writeln!(out, "{}", line.compact())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            kind,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = [
            span(0, Kind::Op, 100, 1100),
            span(0, Kind::Clone, 150, 250),
            span(0, Kind::Call, 250, 950),
            span(0, Kind::Verify, 950, 1050),
            span(1, Kind::Op, 2000, 2500),
            span(1, Kind::Call, 2100, 2400),
        ];
        let st = self_times(&spans);
        // op 0: 1000 − (100 + 700 + 100) = 100; op 1: 500 − 300 = 200.
        assert_eq!(st[&Kind::Op], (2, 300));
        assert_eq!(st[&Kind::Call], (2, 1000));
        assert_eq!(st[&Kind::Clone], (1, 100));
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_overlaps_count_once() {
        // Open loop: the clone ran before the due time (outside the root),
        // submit and wait overlap by 50 ns.
        let spans = [
            span(7, Kind::Op, 1000, 2000),
            span(7, Kind::Clone, 800, 950),
            span(7, Kind::Submit, 990, 1200),
            span(7, Kind::Wait, 1150, 1900),
        ];
        let st = self_times(&spans);
        // Covered: [1000,1200] ∪ [1200,1900] = 900 → self 100.
        assert_eq!(st[&Kind::Op], (1, 100));
        assert_eq!(spans[1].parent(), Some(spans[0].id()));
        assert_eq!(spans[0].parent(), None);
    }

    #[test]
    fn span_ids_are_unique_per_operation_and_slot() {
        let mut ids = std::collections::BTreeSet::new();
        for op in 0..4 {
            for kind in [
                Kind::Op,
                Kind::Clone,
                Kind::Call,
                Kind::Submit,
                Kind::Wait,
                Kind::Verify,
            ] {
                assert!(ids.insert(span(op, kind, 0, 1).id()));
            }
        }
    }
}
