//! In-memory spans recorded from the benchmark's own code, around its
//! calls into each layer (spans inside the engine are a later change).
//!
//! A span has a name, a start, an end, the span that caused it, and
//! the id of the op it belongs to. Spans stay in memory until the run
//! ends; a disabled tracer reads no clock, so the untraced run executes
//! the same code without the cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`, e.g. `query.parse`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (0 while open).
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<u32>,
    /// Op id shared by every span of one op.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

impl SpanId {
    /// No parent: a top-level span.
    pub const NONE: SpanId = SpanId(None);
}

/// A per-thread span buffer.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Per-name totals: `(spans, total ns, self ns)`.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64, u64)>;

impl Tracer {
    /// A tracer whose offsets count from `origin`. Disabled tracers
    /// record nothing.
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: parent.0,
            op,
        });
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    /// A top-level span.
    pub fn root(&mut self, name: &'static str, op: u64) -> SpanId {
        self.begin(name, SpanId::NONE, op)
    }

    /// Close a span; returns its duration in nanoseconds (0 when
    /// disabled).
    pub fn end(&mut self, id: SpanId) -> u64 {
        let Some(i) = id.0 else { return 0 };
        let now = self.now();
        let span = &mut self.spans[i as usize];
        span.end_ns = now;
        span.dur_ns()
    }

    /// Record an interval measured elsewhere (the per-operator times an
    /// `AnalyzeReport` hands back, the stages of a request taken apart).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: parent.0,
            op,
        });
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    /// Start offset of an open or closed span.
    pub fn start_of(&self, id: SpanId) -> u64 {
        id.0.map_or(0, |i| self.spans[i as usize].start_ns)
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals; a span's self time is its duration minus the
    /// time its direct children cover.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out = SelfTimes::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// For every span named `whole`, the share of its duration that its
    /// direct children do not account for (negative where they
    /// over-account: stages measured one by one can add up to more).
    pub fn residual_shares(&self, whole: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == whole && s.dur_ns() > 0)
            .map(|(s, covered)| (s.dur_ns() as f64 - covered as f64) / s.dur_ns() as f64)
            .collect()
    }

    /// Append another thread's spans (parent indexes are rebased).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans as a JSON array (one object per span).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            ));
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let op = t.root("op", 7);
        t.record("query.parse", op, 7, 10, 30);
        t.record("query.exec", op, 7, 40, 50);
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        let st = t.self_times();
        assert_eq!(st["op"], (1, 100, 20));
        assert_eq!(st["query.parse"], (1, 30, 30));
        assert_eq!(t.residual_shares("op"), vec![0.2]);
        assert!(t.spans().iter().all(|s| s.op == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let op = t.root("op", 1);
        let child = t.begin("query.parse", op, 1);
        assert_eq!(t.end(child), 0);
        t.end(op);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = Tracer::new(Instant::now(), true);
        let r = a.root("op", 1);
        a.end(r);
        let mut b = Tracer::new(Instant::now(), true);
        let r = b.root("op", 2);
        let c = b.begin("query.parse", r, 2);
        b.end(c);
        b.end(r);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.spans_json().contains("\"op\":2"));
    }
}
