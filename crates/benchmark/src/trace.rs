//! In-memory spans around the harness's calls into each layer.
//!
//! The traced run wraps one span around every call the harness makes
//! into a layer's public functions (one span per *batch* on the ladder,
//! with the batch's call count recorded), keeps them in memory, writes
//! them when the run ends, and derives each layer's **self time**: a
//! span's duration minus the part its child spans cover. No source
//! outside this crate is instrumented; moving the spans into the program
//! is a later change.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// Layer name (`crate.module.function`).
    pub name: String,
    /// Workload the span belongs to.
    pub workload: String,
    /// Repeat (or ladder batch) index within the run.
    pub repeat: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Calls into the layer this span covers (a batch records many).
    pub calls: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; hand it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<u32>);

/// Collects spans. A disabled tracer records nothing and costs one
/// branch per call, so the untraced run executes the same harness code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    repeat: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer for `workload`; `enabled` false makes every call a no-op.
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_string(),
            repeat: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between repeats (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "cannot toggle the tracer inside a span");
        self.enabled = enabled;
    }

    /// Stamp subsequent spans with this repeat index.
    pub fn set_repeat(&mut self, repeat: u32) {
        self.repeat = repeat;
    }

    /// Open a span named `name` under whatever span is open now.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            workload: self.workload.clone(),
            repeat: self.repeat,
            start_ns: 0,
            end_ns: 0,
            calls: 0,
        });
        self.stack.push(id);
        // Stamp last so the bookkeeping above is outside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        Open(Some(id))
    }

    /// Close `open`, recording how many calls it covered. Spans close in
    /// the reverse of the order they opened.
    pub fn end(&mut self, open: Open, calls: u64) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, for the file written at exit.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                        ("name", Json::str(&s.name)),
                        ("workload", Json::str(&s.workload)),
                        ("repeat", Json::Num(f64::from(s.repeat))),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("calls", Json::Num(s.calls as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus its children's. Index
/// `i` is span `i`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Everything recorded under one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Calls summed over the spans.
    pub calls: u64,
    /// Wall time summed over the spans.
    pub total_ns: u64,
    /// Self time summed over the spans.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Wall time per recorded call (0 when no call was recorded).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Group spans by name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<String, LayerTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let layer = out.entry(s.name.clone()).or_default();
        layer.calls += s.calls;
        layer.total_ns += s.duration_ns();
        layer.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start: u64, end: u64, calls: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            workload: "synthetic".into(),
            repeat: 0,
            start_ns: start,
            end_ns: end,
            calls,
        }
    }

    /// root 0..1000 { a 100..400 { leaf 150..250 }, a 500..900, b 900..950 }
    fn tree() -> Vec<Span> {
        vec![
            span(0, None, "root", 0, 1000, 1),
            span(1, Some(0), "a", 100, 400, 10),
            span(2, Some(1), "leaf", 150, 250, 100),
            span(3, Some(0), "a", 500, 900, 20),
            span(4, Some(0), "b", 900, 950, 0),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_times(&tree()), vec![250, 200, 100, 400, 50]);
        let total: u64 = self_times(&tree()).iter().sum();
        assert_eq!(total, 1000, "self times partition the root span");
    }

    #[test]
    fn layers_sum_calls_and_times_by_name() {
        let layers = by_layer(&tree());
        let a = &layers["a"];
        assert_eq!((a.calls, a.total_ns, a.self_ns), (30, 700, 600));
        assert_eq!(a.ns_per_call(), 700.0 / 30.0);
        assert_eq!(layers["b"].ns_per_call(), 0.0, "no calls recorded, no per-call time");
        assert_eq!(layers["leaf"].self_ns, 100);
        assert_eq!(layers["root"].self_ns, 250);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", true);
        t.set_repeat(3);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner, 5);
        t.end(outer, 1);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].calls, spans[1].repeat), (Some(0), 5, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.to_json().as_arr().map(<[Json]>::len), Some(2));

        let mut off = Tracer::new("w", false);
        let open = off.begin("x");
        off.end(open, 9);
        assert!(off.spans().is_empty());
    }
}
