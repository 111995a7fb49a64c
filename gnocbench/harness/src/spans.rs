//! In-memory span recorder for the traced run, plus the statistics the
//! benchmark derives from spans and samples.
//!
//! A span is `(name, start, end, parent, unit)`. Spans are kept in memory
//! and written out as JSON lines when the run ends. A layer's self time is
//! the sum over its spans of the span's duration minus the time its child
//! spans cover.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The unit of work (scenario, seed, request) the span belongs to.
    pub unit: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans when enabled; a disabled tracer only runs the
/// closures, so untraced code paths pay nothing but a branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self::with_origin(on, Instant::now())
    }

    /// A tracer whose clock starts at `origin`, so intervals measured with
    /// `Instant`s elsewhere can be recorded on the same timeline.
    pub fn with_origin(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; nested calls become children.
    pub fn span<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a finished top-level interval measured elsewhere.
    pub fn record(&mut self, name: &'static str, unit: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            unit,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// durations of its direct children (children never overlap: they run
/// inside their parent on the same thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&child_ns) {
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*kids);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Durations in seconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Total duration in seconds of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum()
}

/// Spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Value::Object(vec![
            ("name".into(), Value::Str(s.name.into())),
            ("start_ns".into(), Value::U64(s.start_ns)),
            ("end_ns".into(), Value::U64(s.end_ns)),
            (
                "parent".into(),
                s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
            ),
            ("unit".into(), Value::U64(s.unit)),
        ]);
        out.push_str(&serde_json::to_string(&line).expect("a span serializes"));
        out.push('\n');
    }
    out
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // unit [0,100) → a [10,40) → b [15,25)
        //              → c [50,90)
        // and a second root `a` [200,210) with no children.
        let spans = vec![
            span("unit", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 90, Some(0)),
            span("a", 200, 210, None),
        ];
        let st = self_times(&spans);
        let ns = |name: &str| (st[name] * 1e9).round() as u64;
        assert_eq!(ns("unit"), 100 - 30 - 40);
        assert_eq!(ns("a"), (30 - 10) + 10);
        assert_eq!(ns("b"), 10);
        assert_eq!(ns("c"), 40);
        // Self times partition the root intervals exactly.
        let sum: u64 = ["unit", "a", "b", "c"].iter().map(|n| ns(n)).sum();
        assert_eq!(sum, 100 + 10);
    }

    #[test]
    fn tracer_nests_and_records() {
        let origin = Instant::now();
        let mut t = Tracer::with_origin(true, origin);
        t.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        t.record("x", 1, origin, Instant::now());
        let s = t.into_spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", 0, |t| t.span("inner", 0, |_| 5));
        assert_eq!(v, 5);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
