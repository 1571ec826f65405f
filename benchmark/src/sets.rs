//! The full set: every workload in a child process of its own, `--sets`
//! times, with the agreement check between sets.
//!
//! A metric's spread is the distance between the first and third quartile
//! of its values over the sets, as a share of their median — the same
//! statistic (Python's `statistics.quantiles(values, n=4)`) the acceptance
//! procedure applies — and must stay within the bound `BENCHMARK.json`
//! fixes for the metric.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use svr_server::Json;

use crate::workloads::{spec_named, SPECS};
use crate::Args;

/// Per-layer counters that repeat exactly when one client runs a fixed
/// operation count (`--ops`): identical across sets of one seed, or the
/// run is not deterministic.
pub const EXACT_COUNTERS: [&str; 3] = [
    "svr_storage.wal_bytes_per_update",
    "svr_core.blocks_decoded_per_query",
    "svr_core.bytes_per_posting",
];

/// Quartiles by the exclusive method (`statistics.quantiles(v, n=4)`).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    Some(out)
}

/// `end_to_end` bounds by metric name, from the repository's
/// `BENCHMARK.json` (next to the benchmark's directory).
fn bounds() -> BTreeMap<String, f64> {
    let path = crate::manifest_dir().join("../BENCHMARK.json");
    let Some(json) = std::fs::read(&path)
        .ok()
        .and_then(|bytes| svr_server::json::parse(&bytes).ok())
    else {
        eprintln!(
            "no readable {}: spreads are printed, not judged",
            path.display()
        );
        return BTreeMap::new();
    };
    json.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Run one workload in a child and return its result object.
fn child(args: &Args, seed: u64, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(n) = args.ops {
        cmd.args(["--ops", &n.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    svr_server::json::parse(last.as_bytes())
        .map_err(|e| format!("{workload} (exit {}) printed no result: {e}", output.status))
}

fn metric_values(result: &Json) -> Vec<(String, f64)> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

pub fn run_sets(args: &Args) -> Result<bool, String> {
    let bounds = bounds();
    let mut ok = true;
    // (workload, metric) → one value per set.
    let mut series: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for set in 0..args.sets.max(1) {
        println!(
            "== set {} of {}, seed {} ==",
            set + 1,
            args.sets.max(1),
            args.seed
        );
        for spec in &SPECS {
            let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in passes {
                let result = child(args, args.seed, spec.name, trace)?;
                let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(1);
                if failed > 0 || result.get("correct").and_then(Json::as_bool) != Some(true) {
                    println!("{}: {failed} operations FAILED", spec.name);
                    ok = false;
                }
                for (metric, value) in metric_values(&result) {
                    series
                        .entry((spec.name.to_string(), metric))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    if args.sets < 2 {
        return Ok(ok);
    }

    println!("== agreement over {} sets ==", args.sets);
    println!(
        "{:<16} {:<40} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "max/med"
    );
    for ((workload, metric), values) in &series {
        let Some([q1, q2, q3]) = quartiles(values) else {
            continue;
        };
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
        let max_spread = if q2 != 0.0 {
            (max - min) / q2.abs()
        } else {
            0.0
        };
        let verdict = match bounds.get(metric) {
            Some(&bound) if spread > bound => {
                ok = false;
                format!("EXCEEDS bound {bound}")
            }
            Some(&bound) => format!("within {bound}"),
            None => String::new(),
        };
        println!(
            "{workload:<16} {metric:<40} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>9.4} \
             {max_spread:>9.4} {verdict}"
        );
        let exact = args.ops.is_some()
            && spec_named(workload).is_some_and(|s| s.clients == 1)
            && EXACT_COUNTERS.contains(&metric.as_str());
        if exact && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            println!("{workload} {metric}: exact counter DIFFERS between sets: {values:?}");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            Some([15.0, 40.0, 120.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
