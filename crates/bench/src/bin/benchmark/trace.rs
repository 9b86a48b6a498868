//! Span recorder for the traced run (`--trace 1`).
//!
//! Every call the benchmark makes into a layer goes through [`Tracer::time`]
//! (a leaf span) or an [`Tracer::open`] / [`Tracer::close`] pair (a span with
//! children). The wall time of the call is taken either way — the phases need
//! it — but a span is only *recorded* when the tracer is enabled, so the
//! untraced run pays for two clock reads per call and nothing else. Spans stay
//! in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval. `parent` is the span that caused it; spans of one
/// operation (one update, one read, one pipeline run) share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
}

/// Handle of a span that is still open.
pub struct OpenSpan {
    index: Option<usize>,
    started: Instant,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            next_op: 1,
        }
    }

    /// A tracer for another thread: same clock origin and switch, its own
    /// span list, and operation ids from its own `lane` (1, 2, …; this
    /// tracer is lane 0) so they cannot collide.
    pub fn fork(&self, lane: u64) -> Tracer {
        Tracer {
            origin: self.origin,
            enabled: self.enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            next_op: (lane << 48) + 1,
        }
    }

    /// Fold a forked tracer's spans in, re-numbering them and hanging its
    /// root spans under the span currently open here.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        let under = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset).or(under),
            ..s
        }));
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (the traced run alternates passes to
    /// measure its own overhead). Only between operations: an open span
    /// would be lost.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    /// Start a new operation: spans recorded until the next call share its
    /// id.
    pub fn next_op(&mut self) {
        self.op = self.next_op;
        self.next_op += 1;
    }

    fn now_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> OpenSpan {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name,
                start_ns: self.now_ns(started),
                end_ns: 0,
                op: self.op,
            });
            self.stack.push(id);
            id as usize
        });
        OpenSpan { index, started }
    }

    pub fn close(&mut self, span: OpenSpan) -> Duration {
        let ended = Instant::now();
        if let Some(index) = span.index {
            self.spans[index].end_ns = self.now_ns(ended);
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index as u32), "spans closed out of order");
        }
        ended.duration_since(span.started)
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, Duration) {
        let span = self.open(name);
        let out = call();
        (out, self.close(span))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every recorded span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write the spans as JSON lines, then the per-name totals.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        for (name, t) in self_times(&self.spans) {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"spans\":{},\"total_ns\":{},\"self_ns\":{}}}",
                name, t.count, t.total_ns, t.self_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover: children are clipped to the parent and
/// overlapping children (two threads under one phase span) are counted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span(0, None, "run", 0, 100),
            span(1, Some(0), "stage", 10, 60),
            span(2, Some(1), "leaf", 20, 30),
            span(3, Some(0), "stage", 70, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"].total_ns, 100);
        assert_eq!(t["run"].self_ns, 100 - 50 - 20);
        assert_eq!(t["stage"].count, 2);
        assert_eq!(t["stage"].total_ns, 70);
        assert_eq!(t["stage"].self_ns, 70 - 10);
        assert_eq!(t["leaf"].self_ns, 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = [
            span(0, None, "phase", 100, 200),
            // Two threads under one phase: 110..160 and 140..190 overlap.
            span(1, Some(0), "reader", 110, 160),
            span(2, Some(0), "writer", 140, 190),
            // A child that outlives its parent is clipped at the parent's end.
            span(3, Some(0), "late", 195, 260),
        ];
        let t = self_times(&spans);
        // Covered: 110..190 (80) + 195..200 (5).
        assert_eq!(t["phase"].self_ns, 100 - 85);
        assert_eq!(t["late"].self_ns, 65);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, d) = tr.time("x", || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() > 0 || d.is_zero());
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn spans_nest_share_an_op_and_survive_a_fork() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let outer = tr.open("outer");
        tr.time("inner", || ());
        let mut forked = tr.fork(1);
        forked.next_op();
        forked.time("other-thread", || ());
        tr.absorb(forked);
        tr.close(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!(s[0].op, s[1].op);
        assert_eq!(
            (s[2].name, s[2].parent, s[2].id),
            ("other-thread", Some(0), 2)
        );
        assert_ne!(s[2].op, s[0].op);
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
