//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p svr-bench --bin paper_experiments            # all
//! cargo run --release -p svr-bench --bin paper_experiments -- fig7   # one
//! SVR_SCALE=full cargo run --release -p svr-bench --bin paper_experiments
//! ```
//!
//! Results are printed as text tables. A full-suite run (no ids) also
//! writes them as JSON to `bench_results/experiments-<scale>.json`; a run
//! of selected ids leaves that file alone, so it always holds every
//! experiment.

use std::time::Instant;

use svr_bench::experiments::Bench;
use svr_bench::{CostModel, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env();
    let bench = Bench::new(scale, CostModel::default());

    let full_suite = args.is_empty();
    let ids: Vec<&str> = if full_suite {
        Bench::all_ids().to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    println!("scale: {scale:?} (set SVR_SCALE=full for the EXPERIMENTS.md numbers)\n");
    let mut reports = Vec::new();
    for id in ids {
        let t0 = Instant::now();
        match bench.run(id) {
            Some(report) => {
                println!("{}", report.render());
                println!("[{} took {:.1}s]\n", id, t0.elapsed().as_secs_f64());
                reports.push(report);
            }
            None => {
                eprintln!(
                    "unknown experiment '{id}'; available: {}",
                    Bench::all_ids().join(", ")
                );
                std::process::exit(2);
            }
        }
    }

    let out_dir = std::path::Path::new("bench_results");
    if full_suite && std::fs::create_dir_all(out_dir).is_ok() {
        let path = out_dir.join(format!(
            "experiments-{}.json",
            if scale == Scale::Full {
                "full"
            } else {
                "quick"
            }
        ));
        let json = svr_bench::report::reports_to_json(&reports);
        if std::fs::write(&path, json).is_ok() {
            println!("wrote {}", path.display());
        }
    }
}
