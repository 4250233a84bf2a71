//! In-memory spans recorded around the pipeline's public calls.
//!
//! A span has a name, a start and end (seconds since the process's
//! origin instant), the span that caused it and the worker that ran it.
//! Spans are kept in memory and written out once the run is over; an
//! untraced run records nothing.

use simcore::json::Json;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary or call the span covers (`capture`, `hh/home1/0..40`, …).
    pub name: String,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin.
    pub end: f64,
    /// The span that caused this one (`None` for a top-level span).
    pub parent: Option<SpanId>,
    /// Worker that ran the span: 0 for the main thread, 1.. for executor
    /// workers in order of first appearance.
    pub worker: usize,
}

impl Span {
    /// Length of the interval in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("start_s", Json::F64(self.start)),
            ("end_s", Json::F64(self.end)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
            ),
            ("worker", Json::U64(self.worker as u64)),
        ])
    }
}

/// Span recorder. Disabled tracers only read the clock.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer measuring from `origin`; `enabled` decides whether spans
    /// are kept.
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            spans: enabled.then(Vec::new),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a main-thread span under `parent`; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = self.now();
        self.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent,
            worker: 0,
        })
    }

    /// End the span `id` now.
    pub fn close(&mut self, id: Option<SpanId>) {
        let now = self.now();
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), id) {
            spans[id].end = now;
        }
    }

    /// Record a finished span (one measured on a worker thread).
    pub fn push(&mut self, span: Span) -> Option<SpanId> {
        let spans = self.spans.as_mut()?;
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// The recorded spans (empty when disabled).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// The spans as JSON lines, one object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        self.spans()
            .iter()
            .map(|s| s.to_json().dump() + "\n")
            .collect()
    }
}

/// Direct children of `parent`.
pub fn children(spans: &[Span], parent: SpanId) -> impl Iterator<Item = &Span> {
    spans.iter().filter(move |s| s.parent == Some(parent))
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (parallel
/// workers) count once; child time outside the parent is ignored.
pub fn self_time(spans: &[Span], id: SpanId) -> f64 {
    let parent = &spans[id];
    let mut cover: Vec<(f64, f64)> = children(spans, id)
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    cover.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in cover {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
        }
        reach = reach.max(b);
    }
    parent.dur() - covered
}

/// Worker idle time of a fork-join section: `jobs` workers were held for
/// the section's span `section`, and its children are the units of work.
pub fn worker_idle(spans: &[Span], section: SpanId, jobs: usize) -> f64 {
    let busy: f64 = children(spans, section).map(Span::dur).sum();
    jobs as f64 * spans[section].dur() - busy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<SpanId>, worker: usize) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            worker,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 0.0, 10.0, None, 0),
            span("a", 1.0, 4.0, Some(0), 0),
            // Overlaps `a` on another worker: [3, 6) adds only [4, 6).
            span("b", 3.0, 6.0, Some(0), 1),
            span("c", 8.0, 12.0, Some(0), 0), // clipped to [8, 10)
            span("grandchild", 0.0, 10.0, Some(1), 0), // not a direct child
        ];
        let st = self_time(&spans, 0);
        assert!((st - (10.0 - 5.0 - 2.0)).abs() < 1e-12, "{st}");
        // A leaf's self time is its duration.
        assert_eq!(self_time(&spans, 2), 3.0);
        // A child covering its parent leaves nothing.
        assert_eq!(self_time(&spans, 1), 0.0);
    }

    #[test]
    fn worker_idle_is_held_capacity_minus_busy_time() {
        // Two workers held for 10 s; worker 1 runs 4 + 5 s, worker 2 runs 6 s.
        let spans = vec![
            span("fork_join", 0.0, 10.0, None, 0),
            span("hh0", 0.0, 4.0, Some(0), 1),
            span("hh1", 0.0, 6.0, Some(0), 2),
            span("hh2", 4.0, 9.0, Some(0), 1),
            span("merge", 10.0, 11.0, None, 0),
        ];
        assert_eq!(worker_idle(&spans, 0, 2), 20.0 - 15.0);
        assert_eq!(worker_idle(&spans, 0, 1), 10.0 - 15.0);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.open("run", None);
        t.close(id);
        assert_eq!(id, None);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn enabled_tracer_links_parents_and_serialises() {
        let mut t = Tracer::new(Instant::now(), true);
        let run = t.open("run", None);
        let child = t.open("capture", run);
        t.close(child);
        t.close(run);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"name\":\"capture\"") && lines[1].contains("\"parent\":0"));
    }
}
