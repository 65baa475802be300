//! Shared plumbing for the experiment binaries.

use ctc_core::{Community, CtcConfig, CtcSearcher};
use ctc_gen::{DegreeRank, Network, QueryGenerator};
use ctc_graph::VertexId;
use std::time::Duration;

/// Experiment knobs, read from the environment so `run_all` and CI can
/// scale workloads without code changes.
///
/// * `CTC_QUERIES` — query sets per data point (default per experiment);
/// * `CTC_BUDGET_SECS` — wall-clock budget per workload point (default 60);
/// * `CTC_SEED` — workload RNG seed (default 42).
#[derive(Clone, Debug)]
pub struct ExpEnv {
    /// Query sets per data point.
    pub queries: usize,
    /// Budget per workload point.
    pub budget: Duration,
    /// Workload seed.
    pub seed: u64,
}

impl ExpEnv {
    /// Reads the environment with an experiment-specific default query
    /// count.
    pub fn with_default_queries(default_queries: usize) -> Self {
        let queries = std::env::var("CTC_QUERIES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default_queries);
        let budget = std::env::var("CTC_BUDGET_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Duration::from_secs)
            .unwrap_or(Duration::from_secs(60));
        let seed = std::env::var("CTC_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        ExpEnv {
            queries,
            budget,
            seed,
        }
    }
}

/// An algorithm under test, boxed for uniform tables.
pub type Algo<'a> = (
    &'a str,
    Box<dyn Fn(&[VertexId]) -> Result<Community, String> + 'a>,
);

/// The three CTC algorithms as named closures over a searcher.
///
/// Basic runs with a generous iteration cap (`CTC_BASIC_CAP`, default
/// 1500): uncapped, a single wide-G0 query can run for hours — the paper
/// itself reports Basic as "Inf" on DBLP-scale inputs. A capped run still
/// returns its best (valid) snapshot; the workload budget then surfaces
/// "Inf" in the timing tables exactly like the paper's one-hour cutoff.
pub fn ctc_algos<'a>(searcher: &'a CtcSearcher<'a>, cfg: &'a CtcConfig) -> Vec<Algo<'a>> {
    let cap = std::env::var("CTC_BASIC_CAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1500usize);
    let basic_cfg = {
        let mut c = cfg.clone();
        c.max_iterations = Some(cap);
        c
    };
    vec![
        (
            "Basic",
            Box::new(move |q: &[VertexId]| {
                searcher.basic(q, &basic_cfg).map_err(|e| e.to_string())
            }),
        ),
        (
            "BD",
            Box::new(move |q| searcher.bulk_delete(q, cfg).map_err(|e| e.to_string())),
        ),
        (
            "LCTC",
            Box::new(move |q| searcher.local(q, cfg).map_err(|e| e.to_string())),
        ),
    ]
}

/// Samples `count` query sets with the given shape; skips failures.
pub fn sample_queries(
    net: &Network,
    count: usize,
    size: usize,
    rank: DegreeRank,
    inter_distance: u32,
    seed: u64,
) -> Vec<Vec<VertexId>> {
    let mut qg = QueryGenerator::new(&net.data.graph, seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count * 4 {
        if out.len() == count {
            break;
        }
        if let Some(q) = qg.sample(size, rank, inter_distance) {
            out.push(q);
        }
    }
    out
}

/// Mean of an iterator of f64 (0 for empty).
pub fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Standard banner printed by every experiment binary.
pub fn banner(title: &str, net_line: &str) {
    println!("=== {title} ===");
    println!("{net_line}");
    println!();
}
