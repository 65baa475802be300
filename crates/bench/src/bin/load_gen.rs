//! Standalone zipfian load generator for the evented server.
//!
//! Self-hosts a two-tenant `CtcServer` (mini-facebook + mini-dblp) and
//! drives it through increasing concurrency levels, printing the p50/p99
//! latency trajectory — the interactive face of
//! `bench_record --record serve.<run>`. `--json` prints the run as
//! [`encode_run`] encodes it, the encoding that recorder writes into
//! `BENCH_RECORD.json`. A failed run exits 1 with one `load_gen:` error
//! line.
//!
//! ```text
//! load_gen [--levels 1,4,16,64] [--requests N] [--zipf S]
//!          [--pool N] [--seed N] [--json]
//! ```

use ctc_bench::serveload::{encode_run, run, LoadSpec};

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let mut spec = LoadSpec::default();
    if let Some(raw) = flag("--levels") {
        match raw
            .split(',')
            .map(str::parse)
            .collect::<Result<Vec<usize>, _>>()
        {
            Ok(levels) if !levels.is_empty() => spec.levels = levels,
            _ => {
                eprintln!("load_gen: bad --levels {raw:?} (want e.g. 1,4,16,64)");
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    for (name, slot) in [
        ("--requests", &mut spec.requests_per_level),
        ("--pool", &mut spec.pool_size),
    ] {
        if let Some(raw) = flag(name) {
            match raw.parse() {
                Ok(v) if v > 0 => *slot = v,
                _ => {
                    eprintln!("load_gen: bad {name} {raw:?}");
                    return std::process::ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(raw) = flag("--zipf") {
        match raw.parse() {
            Ok(s) => spec.zipf_s = s,
            Err(_) => {
                eprintln!("load_gen: bad --zipf {raw:?}");
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    if let Some(raw) = flag("--seed") {
        match raw.parse() {
            Ok(s) => spec.seed = s,
            Err(_) => {
                eprintln!("load_gen: bad --seed {raw:?}");
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    let results = match run(&spec) {
        Ok(results) => results,
        Err(msg) => {
            eprintln!("load_gen: {msg}");
            return std::process::ExitCode::FAILURE;
        }
    };
    if args.iter().any(|a| a == "--json") {
        println!("{}", encode_run(&spec, &results).encode());
    } else {
        println!(
            "load_gen: zipf(s={}) over {} queries/tenant, {} requests/level",
            spec.zipf_s, spec.pool_size, spec.requests_per_level
        );
        println!(
            "{:>12} {:>8} {:>9} {:>9} {:>10} {:>10}",
            "concurrency", "ok", "shed_429", "shed_503", "p50_us", "p99_us"
        );
        for r in &results {
            println!(
                "{:>12} {:>8} {:>9} {:>9} {:>10} {:>10}",
                r.concurrency, r.ok, r.shed_429, r.shed_503, r.p50_us, r.p99_us
            );
        }
    }
    std::process::ExitCode::SUCCESS
}
