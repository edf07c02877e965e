//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, request id). Spans are recorded
//! from the benchmark's own files only — around the public functions of
//! `pop-grid`, `pop-stencil`, `pop-core`, `pop-comm`, `pop-ocean`,
//! `pop-ranksim` and `pop-serve` — kept in a `Vec` while the run lasts and
//! written as Chrome-trace JSON when it ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.
//!
//! With tracing off (`Tracer::off`) every call is a branch on a `bool`, so
//! the untraced pass that yields the end-to-end numbers pays nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (or one step) share an identifier; 0 = none.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open scoped spans, innermost last.
    stack: Vec<usize>,
}

/// Single-threaded span recorder (the benchmark drives every workload from
/// one generator thread).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let now = self.tracer.now_ns();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[idx].end_ns = now;
            let top = inner.stack.pop();
            debug_assert_eq!(top, Some(idx), "scoped spans close innermost first");
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a scoped span, child of the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_id(name, 0)
    }

    /// Open a scoped span tagged with a request/step identifier.
    pub fn span_id(&self, name: &'static str, id: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                idx: None,
            };
        }
        let start = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let idx = inner.spans.len();
        inner.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            id,
        });
        inner.stack.push(idx);
        SpanGuard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Record a span whose ends were observed elsewhere (a served request:
    /// due time → response). Its parent is the innermost open scoped span.
    /// Returns the span's index so children can name it.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        id: u64,
    ) -> Option<usize> {
        let parent = self.inner.borrow().stack.last().copied();
        self.record_under(name, self.ns_of(start), self.ns_of(end), parent, id)
    }

    /// Record a span under an explicit parent.
    pub fn record_under(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut inner = self.inner.borrow_mut();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
        });
        Some(inner.spans.len() - 1)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: usize,
    /// Σ span durations (s).
    pub total_s: f64,
    /// Σ self times (s): duration minus the union of direct children.
    pub self_s: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus what its direct children
/// cover of it (children may overlap one another — concurrent requests —
/// so the union is taken, not the sum).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start_ns, sp.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(sp, kids)| sp.dur_ns() - covered_ns(kids, sp.start_ns, sp.end_ns))
        .collect()
}

/// Calls, total and self time per span name (sorted by name).
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (sp, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(sp.name).or_default();
        e.calls += 1;
        e.total_s += sp.dur_ns() as f64 * 1e-9;
        e.self_s += self_ns as f64 * 1e-9;
    }
    out
}

/// Chrome trace-event JSON (complete events, µs timestamps). Scoped spans
/// share `tid` 0; spans with a request id get `tid = 1 + id % 64` so
/// concurrent requests do not draw over one another.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (k, sp) in spans.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let tid = if sp.id == 0 { 0 } else { 1 + sp.id % 64 };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
            sp.name,
            tid,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns() as f64 / 1e3,
            k,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.id
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // step [0,100] → solve [10,90] → apply [20,30], apply [40,70]
        let spans = vec![
            sp("step", 0, 100, None),
            sp("solve", 10, 90, Some(0)),
            sp("apply", 20, 30, Some(1)),
            sp("apply", 40, 70, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
        let layers = by_layer(&spans);
        assert_eq!(layers["apply"].calls, 2);
        assert!((layers["apply"].total_s - 40e-9).abs() < 1e-15);
        assert!((layers["solve"].self_s - 40e-9).abs() < 1e-15);
        // Self times of a tree add up to the root's duration.
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two concurrent requests under one phase: the union covers [10,80].
        let spans = vec![
            sp("phase", 0, 100, None),
            sp("req", 10, 60, Some(0)),
            sp("req", 40, 80, Some(0)),
            // A child poking out of its parent is clipped to it.
            sp("req", 90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn scoped_spans_nest_and_off_records_nothing() {
        let t = Tracer::new(true);
        {
            let _a = t.span("outer");
            {
                let _b = t.span_id("inner", 7);
            }
            let now = Instant::now();
            t.record("async", now, now, 9);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].id, 7);
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));

        let off = Tracer::off();
        {
            let _a = off.span("outer");
        }
        assert!(off.spans().is_empty());
    }
}
