//! `svr_benchmark`: wall-clock end-to-end and per-layer benchmark of the SVR
//! engine. See `benchmark/README.md`.
//!
//! ```text
//! svr_benchmark --seed <n> [--workload <name>] [--seconds <s>] [--trace [0|1]]
//!               [--sets <n>] [--ops <n>] [--smoke]
//! ```
//!
//! With `--workload` one workload runs in this process and the last line
//! of standard output is the result object. Without it every workload runs
//! in a child process of its own (so one workload's peak memory is not the
//! next one's), `--sets` times over.

mod corpus;
mod host;
mod ladder;
mod oracle;
mod report;
mod sets;
mod system;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use svr_server::Json;

use workloads::{Run, RunConfig, SPECS};

#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub workload: Option<String>,
    pub seconds: f64,
    pub trace: bool,
    pub sets: usize,
    pub ops: Option<u64>,
    pub smoke: bool,
}

const USAGE: &str = "usage: svr_benchmark --seed <n> [--workload <name>] [--seconds <s>] \
                     [--trace [0|1]] [--sets <n>] [--ops <n>] [--smoke]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        seconds: 10.0,
        trace: false,
        sets: 1,
        ops: None,
        smoke: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workload" => args.workload = Some(value("a name")?),
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--sets" => {
                args.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--ops" => {
                args.ops = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--ops: {e}"))?,
                )
            }
            "--smoke" => args.smoke = true,
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

impl Args {
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            seed: self.seed,
            seconds: if self.smoke { 0.4 } else { self.seconds },
            ops: self.ops,
            setups: if self.smoke || self.trace { 1 } else { 3 },
            shrink: if self.smoke { 4 } else { 1 },
            plain_twin: self.trace,
            trailing_reopens: if self.smoke { 3 } else { 11 },
        }
    }
}

/// The benchmark's directory, wherever the command was started from:
/// `cargo run` exports it; a copied binary falls back to the one it was
/// built in.
pub fn manifest_dir() -> PathBuf {
    PathBuf::from(
        std::env::var("CARGO_MANIFEST_DIR")
            .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string()),
    )
}

/// `benchmark/out`: engine directories and traces.
pub fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

/// One workload, in this process.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let spec = workloads::spec_named(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("no workload named {name}; have {}", names.join(", "))
    })?;
    let nproc = host::nproc();
    if spec.clients > nproc {
        return Err(format!(
            "{name} drives {} client threads but this host has {nproc} cores",
            spec.clients
        ));
    }
    let cfg = args.run_config();
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let dir = out.join(format!("{name}-{}-{}", args.seed, u8::from(args.trace)));

    let mut run = Run::set_up(spec, &cfg, &dir)?;
    let host = Json::obj([
        ("workload", Json::from(name)),
        ("seed", Json::from(args.seed)),
        ("host", host::record()),
        ("clients", Json::from(spec.clients)),
        ("page_size", Json::from(run.sys().env().page_size())),
        ("long_list_pages", Json::from(run.out.long_pages)),
        ("long_pool_pages", Json::from(run.out.pool_pages)),
        (
            "index",
            Json::from(format!("{} ({})", spec.method, spec.index_options)),
        ),
        ("flush_policy", Json::from(spec.flush_policy())),
        ("docs", Json::from(run.corpus.docs.len())),
    ]);
    println!("{host}");

    let metrics = if args.trace {
        ladder::traced_run(&mut run, &cfg, &out)?
    } else {
        run.run(&cfg);
        report::end_to_end(&mut run.out)
    };
    println!(
        "{name}: statement-stream hash {:016x}, failed_ops_share {} ({} of {})",
        run.out.stream_hash.0,
        run.out.failed as f64 / run.out.attempted.max(1) as f64,
        run.out.failed,
        run.out.attempted
    );
    for f in &run.out.failures {
        println!("  FAILED: {f}");
    }
    report::print_metrics(&metrics);
    drop(run.sys.take());
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "{}",
        report::result_line(run.out.attempted, run.out.failed, &metrics)
    );
    Ok(run.out.failed == 0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => run_workload(&args, name),
        None => sets::run_sets(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("svr_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let raw: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse_args(&raw)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload ranked_read --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert_eq!(a.workload.as_deref(), Some("ranked_read"));
        assert!(
            parse("--workload x --seed 7 --seconds 10 --trace 1")
                .unwrap()
                .trace
        );
        assert!(parse("--seed 7 --trace --sets 2").unwrap().trace);
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus").is_err());
    }

    /// A small fixed-operation-count run: `(statement-stream hash, metrics)`.
    fn small_run(name: &str, seed: u64, trace: bool, tag: &str) -> (u64, Vec<report::Metric>) {
        let cfg = RunConfig {
            seed,
            seconds: 1.0,
            ops: Some(600),
            setups: 1,
            shrink: 10,
            plain_twin: trace,
            trailing_reopens: 2,
        };
        let out = out_dir();
        std::fs::create_dir_all(&out).unwrap();
        let dir = out.join(format!("test-{name}-{tag}"));
        let mut run = Run::set_up(workloads::spec_named(name).unwrap(), &cfg, &dir).unwrap();
        let metrics = if trace {
            ladder::traced_run(&mut run, &cfg, &dir).unwrap()
        } else {
            run.run(&cfg);
            report::end_to_end(&mut run.out)
        };
        assert_eq!(run.out.failed, 0, "{name}: {:?}", run.out.failures);
        drop(run.sys.take());
        let _ = std::fs::remove_dir_all(&dir);
        (run.out.stream_hash.0, metrics)
    }

    /// Same seed: identical statements and identical exact counters on the
    /// single-client workloads. Another seed: other statements.
    #[test]
    fn single_client_runs_repeat_exactly() {
        for name in [
            "ranked_read",
            "multiterm_cold",
            "score_update",
            "crash_reopen",
        ] {
            let (hash_a, a) = small_run(name, 21, true, "a");
            let (hash_b, b) = small_run(name, 21, true, "b");
            assert_eq!(hash_a, hash_b, "{name}: statement streams differ");
            let value = |metrics: &[report::Metric], counter: &str| {
                metrics
                    .iter()
                    .find(|m| m.name == counter)
                    .unwrap()
                    .value
                    .to_bits()
            };
            for counter in sets::EXACT_COUNTERS {
                assert_eq!(
                    value(&a, counter),
                    value(&b, counter),
                    "{name}: {counter} does not repeat"
                );
            }
            let (hash_c, _) = small_run(name, 22, false, "c");
            assert_ne!(
                hash_a, hash_c,
                "{name}: the seed does not reach the statements"
            );
        }
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics the
    /// command prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_command() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = svr_server::json::parse(&std::fs::read(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, SPECS.map(|s| s.name.to_string()));

        let emitted = |trace: bool| -> Vec<(String, String)> {
            small_run("serving_mixed", 3, trace, "names")
                .1
                .into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), emitted(false));
        let (mut want, mut got) = (declared("per_layer"), emitted(true));
        want.sort();
        got.sort();
        assert_eq!(want, got);
    }
}
