//! Spans recorded from outside the program, around the benchmark's calls
//! into each layer, kept in memory and written out when the run ends —
//! plus the arithmetic on them: percentiles and self time.
//!
//! On the ladder the same operation is issued at successive public entry
//! points one after the other, so a span's `parent` is the span of the same
//! operation on the rung above, and its children are not nested in time.
//! Self time is still "duration minus what the children cover": the rung's
//! own work is what remains after subtracting the rungs below it.

use std::time::Instant;

use svr_server::Json;

/// Samples needed before a p99 is reported (ten samples lie beyond it).
pub const P99_MIN_SAMPLES: usize = 1_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` as a span; returns its result and the span's index.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, parent, op, start, end))
    }

    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per-span self time in nanoseconds: duration minus the durations of
    /// the spans naming it as parent. Negative when the rungs below, timed
    /// separately, happened to run slower than the rung itself.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_ns() as i64;
            }
        }
        own
    }

    /// Median self time, in microseconds, of the spans called `name`.
    pub fn self_median_us(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let mut of_name: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        median(&mut of_name)
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("op", Json::from(s.op)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::from(workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; sorts `values` in place. 0 for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// A latency distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// Present only with at least [`P99_MIN_SAMPLES`] samples.
    pub p99: Option<f64>,
}

pub fn summarize(values: &mut [f64]) -> Summary {
    values.sort_by(f64::total_cmp);
    Summary {
        samples: values.len(),
        p50: percentile(values, 0.5),
        p99: (values.len() >= P99_MIN_SAMPLES).then(|| percentile(values, 0.99)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reader a consumer of `trace-<workload>.json` would write.
    fn from_json(json: &Json) -> Option<Trace> {
        let mut trace = Trace::new();
        for s in json.get("spans")?.as_array()? {
            trace.spans.push(Span {
                name: s.get("name")?.as_str()?.to_string(),
                start_ns: s.get("start_ns")?.as_u64()?,
                end_ns: s.get("end_ns")?.as_u64()?,
                parent: match s.get("parent")? {
                    Json::Null => None,
                    p => Some(p.as_u64()? as usize),
                },
                op: s.get("op")?.as_u64()?,
            });
        }
        Some(trace)
    }

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_every_child_once() {
        let mut t = Trace::new();
        // Two operations on a three-rung ladder; `execute` has two children.
        t.spans = vec![
            span("execute", 0, 100, None, 0),
            span("parse", 100, 120, Some(0), 0),
            span("engine", 120, 190, Some(0), 0),
            span("index", 190, 240, Some(2), 0),
            span("execute", 300, 420, None, 1),
            span("parse", 420, 450, Some(4), 1),
            span("engine", 450, 520, Some(4), 1),
        ];
        assert_eq!(t.self_ns(), vec![10, 20, 20, 50, 20, 30, 70]);
        // Median of {10, 20} by nearest rank is the lower one.
        assert_eq!(t.self_median_us("execute"), 0.010);
        assert_eq!(t.self_median_us("index"), 0.050);
    }

    #[test]
    fn self_time_may_be_negative_when_a_lower_rung_ran_slower() {
        let mut t = Trace::new();
        t.spans = vec![span("a", 0, 10, None, 0), span("b", 10, 25, Some(0), 0)];
        assert_eq!(t.self_ns(), vec![-5, 15]);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        let s = summarize(&mut few);
        assert_eq!((s.samples, s.p99), (999, None));
        let mut enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&mut enough);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, Some(989.0));
    }

    #[test]
    fn spans_survive_a_json_round_trip() {
        let mut t = Trace::new();
        let (_, root) = t.span("execute", None, 7, || ());
        t.span("engine", Some(root), 7, || ());
        let text = t.to_json("ranked_read").to_string();
        let back = from_json(&svr_server::json::parse(text.as_bytes()).unwrap()).unwrap();
        assert_eq!(back.spans, t.spans);
    }
}
