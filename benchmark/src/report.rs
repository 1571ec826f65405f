//! Metric names, units and the result line. The names and units here are
//! the ones `BENCHMARK.json` declares; a test keeps the two in step.

use svr_server::Json;

use crate::host;
use crate::trace::{median, summarize, Summary};
use crate::workloads::Outcome;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a timing (printed beside it).
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: None,
        }
    }

    pub fn of(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            samples: Some(samples),
            ..Metric::new(name, unit, value)
        }
    }
}

/// The p99 when the sample supports one, else the largest percentile that
/// still has ten samples beyond it (the median at worst); the sample count
/// printed beside the value says which.
fn tail(values: &mut [f64], summary: &Summary) -> f64 {
    summary.p99.unwrap_or_else(|| {
        let beyond = 10.0_f64.min(values.len() as f64 / 2.0);
        let p = 1.0 - beyond / values.len().max(1) as f64;
        crate::trace::percentile(values, p.max(0.5))
    })
}

/// The end-to-end metrics of one untraced run, in `BENCHMARK.json` order.
/// `failed_ops_share` travels as the result line's `failed` / `attempted`.
pub fn end_to_end(out: &mut Outcome) -> Vec<Metric> {
    let q = summarize(&mut out.query_ms);
    let u = summarize(&mut out.update_ms);
    let r = summarize(&mut out.reopen_ms);
    let (q99, u99) = (tail(&mut out.query_ms, &q), tail(&mut out.update_ms, &u));
    vec![
        Metric::of(
            "setup_s",
            "s",
            median(&mut out.setup_s.clone()),
            out.setup_s.len(),
        ),
        Metric::of("query_p50_ms", "ms", q.p50, q.samples),
        Metric::of("query_p99_ms", "ms", q99, q.samples),
        Metric::of(
            "queries_per_s",
            "1/s",
            q.samples as f64 / out.query_phase_s,
            q.samples,
        ),
        Metric::of("update_p50_ms", "ms", u.p50, u.samples),
        Metric::of("update_p99_ms", "ms", u99, u.samples),
        Metric::of(
            "updates_per_s",
            "1/s",
            u.samples as f64 / out.update_phase_s,
            u.samples,
        ),
        Metric::of("reopen_p50_ms", "ms", r.p50, r.samples),
        Metric::new("index_bytes_per_posting", "B", out.index_bytes_per_posting),
        Metric::new("peak_rss_mb", "MiB", host::peak_rss_mb()),
    ]
}

pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        match m.samples {
            Some(n) => println!("  {:<44} {:>16.6} {:<6} n={n}", m.name, m.value, m.unit),
            None => println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &[Metric::new("setup_s", "s", 1.25)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn tail_falls_back_below_a_thousand_samples() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.p99, None);
        // Ten samples beyond it: the 90th of 100.
        assert_eq!(tail(&mut v, &s), 90.0);
    }
}
