//! # ctcbench — one seeded benchmark for `ctc-serve` and the CTC engine
//!
//! ```text
//! cargo run --release --manifest-path ctcbench/Cargo.toml -- \
//!     --workload <serve-hot|serve-cold|serve-mixed|engine-direct|all> \
//!     --seed <u64> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One command runs a workload, checks every answer it can against a
//! cold engine, prints a report and, as its last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the same run is then replayed in-process through the public layer
//! functions, and the metrics are the per-layer ones, the client's
//! latencies and capacity among them (spans go to
//! `.bench_build/ctcbench/trace-<workload>-<seed>.jsonl`). The process
//! exits non-zero when a correctness check fails.
//!
//! See [`doc`] for the workloads, the metrics and how to read a trace.

mod client;
mod direct;
pub mod doc;
mod outcome;
mod rng;
mod serve;
mod stats;
mod strata;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use outcome::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Fixture, Workload};

/// Where runs keep snapshots and traces, relative to the checkout root.
const WORK_DIR: &str = ".bench_build/ctcbench";

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workloads = match flag("--workload").ok_or("missing --workload")? {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?],
    };
    let seed = flag("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = match flag("--seconds") {
        None => 20.0,
        Some(s) => s.parse().map_err(|_| "--seconds must be a number")?,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload and returns its outcome.
fn run_workload(workload: Workload, fixture: &Fixture, seed: u64, seconds: f64) -> Outcome {
    match workload {
        Workload::EngineDirect => direct::run(fixture, seed, seconds),
        _ => serve::run(workload, fixture, seed, seconds),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ctcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let fixture = match Fixture::prepare(&dir) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ctcbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for &workload in &args.workloads {
        let (total, stolen) = outcome::cpu_ticks();
        let outcome = run_workload(workload, &fixture, args.seed, args.seconds);
        let mut report = outcome.report(workload);
        let (total_end, stolen_end) = outcome::cpu_ticks();
        let steal = (stolen_end - stolen) as f64 / (total_end - total).max(1) as f64;
        report.put("host.steal_ratio", steal, "ratio");
        let metrics = if args.trace {
            let path = PathBuf::from(WORK_DIR).join(format!(
                "trace-{}-{}.jsonl",
                workload.name(),
                args.seed
            ));
            match trace::replay(workload, &fixture, &outcome, &path) {
                Ok((m, spans)) => {
                    report.0.extend(spans.0);
                    m
                }
                Err(e) => {
                    eprintln!("ctcbench: trace: {e}");
                    let _ = std::fs::remove_dir_all(&dir);
                    return ExitCode::FAILURE;
                }
            }
        } else {
            report.0.extend(outcome.client_times(workload).0);
            outcome.end_to_end()
        };
        for (name, value, unit) in report.0.iter().chain(metrics.0.iter()) {
            println!("# {:<14} {name:<34} {value:>14.3} {unit}", workload.name());
        }
        for e in &outcome.errors {
            eprintln!("ctcbench: {}: {e}", workload.name());
        }
        let correct = outcome.errors.is_empty();
        all_correct &= correct;
        println!(
            r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{}}}"#,
            outcome.records.len(),
            outcome.failed,
            metrics.to_json()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
