//! Spans recorded by the benchmark's own code around each call into a
//! layer, kept in memory and written out once the run is over.
//!
//! A span is `{op, id, parent, name, start_ns, end_ns, kind}`; spans of one
//! operation share `op`. A layer's *self time* is its span minus its
//! children. Two kinds of child exist:
//!
//! * `call` — the child ran inside the parent's interval (client decode
//!   and verify inside the operation);
//! * `replay` — the same work repeated *after* the operation as a direct
//!   call without the socket (the server's decode / answer / encode), and
//!   charged to the span it explains (`server.roundtrip_raw`), whose self
//!   time is then what the direct calls do not explain: reactor, worker
//!   hand-off, locks and the socket itself.
//!
//! `probe` spans time a layer beside the operation and explain nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Call,
    Replay,
    Probe,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub kind: Kind,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (ids start at 1).
    pub fn begin(&mut self, op: u64, name: &'static str, parent: u32, kind: Kind) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            kind,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Times one call into a layer.
    pub fn call<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: u32,
        kind: Kind,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(op, name, parent, kind);
        let out = f();
        self.end(id);
        out
    }

    pub fn dur_ns(&self, id: u32) -> u64 {
        self.spans[id as usize - 1].dur_ns()
    }

    /// Appends another tracer's spans (a second client thread's), keeping
    /// ids unique and parents pointing at the right span.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            s
        }));
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let kind = match s.kind {
                Kind::Call => "call",
                Kind::Replay => "replay",
                Kind::Probe => "probe",
            };
            writeln!(
                out,
                "{{\"op_id\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"kind\":\"{kind}\"}}",
                s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub self_ns: i64,
}

/// Per span id, the summed duration of its `call` and `replay` children.
fn children_ns(spans: &[Span]) -> BTreeMap<u32, i64> {
    let mut children: BTreeMap<u32, i64> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.parent != 0 && s.kind != Kind::Probe)
    {
        *children.entry(s.parent).or_default() += s.dur_ns() as i64;
    }
    children
}

/// Self time per layer over `spans`, plus the summed duration of the root
/// spans. The rows (probes excluded) sum to that total by construction, so
/// a negative self time means the replayed calls cost more than the span
/// they were meant to explain.
pub fn self_times(spans: &[Span]) -> (Vec<SelfTime>, u64) {
    let children = children_ns(spans);
    let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    let mut total = 0u64;
    for s in spans.iter().filter(|s| s.kind != Kind::Probe) {
        if s.parent == 0 {
            total += s.dur_ns();
        }
        let row = rows.entry(s.name).or_insert(SelfTime {
            name: s.name,
            count: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.self_ns += s.dur_ns() as i64 - children.get(&s.id).copied().unwrap_or(0);
    }
    let mut rows: Vec<SelfTime> = rows.into_values().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
    (rows, total)
}

/// Per span name and operation, the summed duration in microseconds (an
/// operation may cross a layer twice: request and response frames).
pub fn per_op_us(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
    let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default().entry(s.op).or_default() += s.dur_ns() as f64 / 1e3;
    }
    out
}

/// Per operation, the self time in microseconds of spans called `name`.
pub fn self_us_of(spans: &[Span], name: &str) -> Vec<f64> {
    let children = children_ns(spans);
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.dur_ns() as i64 - children.get(&s.id).copied().unwrap_or(0)) as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64, kind: Kind) -> Span {
        Span {
            op: 1,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            kind,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_rows_sum_to_the_roots() {
        let spans = vec![
            span(1, 0, "op", 0, 1_000, Kind::Call),
            span(2, 1, "roundtrip", 100, 700, Kind::Call),
            span(3, 1, "verify", 700, 950, Kind::Call),
            // Replayed after the op, charged to the round trip.
            span(4, 2, "answer", 2_000, 2_400, Kind::Replay),
            // A probe explains nothing.
            span(5, 2, "bptree", 3_000, 3_500, Kind::Probe),
        ];
        let (rows, total) = self_times(&spans);
        assert_eq!(total, 1_000);
        let of = |n: &str| rows.iter().find(|r| r.name == n).unwrap().self_ns;
        assert_eq!(of("op"), 1_000 - 600 - 250);
        assert_eq!(of("roundtrip"), 600 - 400);
        assert_eq!(of("verify"), 250);
        assert_eq!(of("answer"), 400);
        assert!(rows.iter().all(|r| r.name != "bptree"));
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<i64>(), total as i64);
        assert_eq!(self_us_of(&spans, "roundtrip"), vec![0.2]);
        assert_eq!(per_op_us(&spans)["bptree"][&1], 0.5);
    }

    #[test]
    fn absorb_keeps_ids_unique_and_parents_attached() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.begin(1, "op", 0, Kind::Call);
        a.call(1, "child", root, Kind::Call, || ());
        a.end(root);
        let mut b = Tracer::new(origin);
        let root_b = b.begin(2, "op", 0, Kind::Call);
        b.call(2, "child", root_b, Kind::Call, || ());
        b.end(root_b);
        a.absorb(b);
        let ids: Vec<u32> = a.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        assert_eq!(a.spans[3].parent, 3);
        assert_eq!(a.spans[2].parent, 0);
    }
}
