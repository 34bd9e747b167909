//! Benchmark-side spans around the calls into each layer.
//!
//! The staged walk wraps every call it makes in a span — name, start,
//! end, the span that caused it, and the frame it belongs to — kept in
//! memory and written out when the walk ends. A span's self time is its
//! duration minus the part of that interval its children cover, so the
//! self times under one frame span add up to the frame's duration exactly
//! and what the frame span keeps for itself is the unattributed residual.

use crate::json::Value;
use std::time::Instant;

/// Frame id of spans that belong to no frame (one-time set-up).
pub const NO_FRAME: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub frame: u32,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    frame: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), frame: 0 }
    }

    pub fn set_frame(&mut self, frame: u32) {
        self.frame = frame;
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, child of the span open now.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_us = self.micros(Instant::now());
        self.spans.push(Span {
            name,
            frame: self.frame,
            parent: self.stack.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.micros(Instant::now());
        out
    }

    /// Record a span timed elsewhere (on a rank thread of a collective
    /// call) as a child of the span open now.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start_us, end_us) = (self.micros(start), self.micros(end));
        self.spans.push(Span {
            name,
            frame: self.frame,
            parent: self.stack.last().copied(),
            start_us,
            end_us,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("name", Value::Str(s.name.into())),
                        ("frame", Value::Num(s.frame as f64)),
                        ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                        ("start_us", Value::Num(s.start_us)),
                        ("end_us", Value::Num(s.end_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, in microseconds: its duration minus the part
/// of its interval covered by its children (their union, clipped to the
/// parent, so overlapping or straddling children are not counted twice).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut edge) = (0.0, f64::NEG_INFINITY);
            for (lo, hi) in kids {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Whether `ancestor` is `id` or lies on its parent chain.
pub fn descends_from(spans: &[Span], mut id: usize, ancestor: usize) -> bool {
    loop {
        if id == ancestor {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    }
}

/// What the root span keeps for itself, as a percentage of its duration:
/// the time of one frame that no layer span accounts for.
pub fn residual_pct(spans: &[Span], root: usize) -> f64 {
    let d = spans[root].duration_us();
    if d <= 0.0 {
        return 0.0;
    }
    self_times_us(spans)[root] / d * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span { name, frame: 0, parent, start_us, end_us }
    }

    #[test]
    fn self_time_with_nested_and_sibling_children() {
        let spans = vec![
            span("frame", None, 0.0, 100.0),
            span("a", Some(0), 10.0, 40.0),       // sibling 1
            span("b", Some(0), 40.0, 90.0),       // sibling 2, touching
            span("a.inner", Some(1), 15.0, 25.0), // nested: charged to a, not frame
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 20.0, 50.0, 10.0]);
    }

    #[test]
    fn overlapping_and_straddling_children_count_once() {
        let spans = vec![
            span("world", None, 0.0, 100.0),
            span("rank0", Some(0), 10.0, 60.0),
            span("rank1", Some(0), 50.0, 80.0), // overlaps rank0 by 10
            span("late", Some(0), 95.0, 120.0), // straddles the parent's end
        ];
        // covered: [10, 80] = 70, plus [95, 100] = 5
        assert_eq!(self_times_us(&spans)[0], 25.0);
    }

    #[test]
    fn self_times_under_a_root_sum_to_its_duration() {
        let spans = vec![
            span("frame", None, 0.0, 1000.0),
            span("read", Some(0), 0.0, 300.0),
            span("parse", Some(1), 100.0, 250.0),
            span("render", Some(0), 310.0, 990.0),
            span("brick", Some(3), 320.0, 400.0),
            span("cast", Some(3), 400.0, 985.0),
            span("side", None, 2000.0, 2500.0), // another root: not part of the frame
        ];
        let selfs = self_times_us(&spans);
        let under_root: f64 =
            (0..spans.len()).filter(|&i| descends_from(&spans, i, 0)).map(|i| selfs[i]).sum();
        assert_eq!(under_root, 1000.0);
        // the frame keeps [300, 310] and [990, 1000] for itself
        assert_eq!(residual_pct(&spans, 0), 2.0);
        assert!(!descends_from(&spans, 6, 0));
    }

    #[test]
    fn tracer_nests_scopes_and_recorded_spans() {
        let mut t = Tracer::new();
        t.set_frame(3);
        t.scope("frame", |t| {
            t.scope("a", |t| {
                let now = Instant::now();
                t.record("a.rank0", now, now);
            });
            t.scope("b", |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.frame)).collect();
        assert_eq!(
            names,
            vec![("frame", None, 3), ("a", Some(0), 3), ("a.rank0", Some(1), 3), ("b", Some(0), 3)]
        );
        assert!(t.spans().iter().all(|s| s.end_us >= s.start_us));
        let parsed = Value::parse(&t.to_json().to_line()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 4);
    }
}
