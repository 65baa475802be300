//! Exp-3 (Figure 12): quality against ground-truth communities on the five
//! evaluation networks — F1, query time, and the Truss-vs-LCTC size
//! reduction.

use crate::common::{banner, mean, ExpEnv};
use ctc_baselines::{mdc, qdc, MdcConfig, QdcConfig};
use ctc_core::{Community, CtcConfig, CtcSearcher};
use ctc_eval::{f1_score, fmt_f, fmt_secs, run_workload, Table};
use ctc_gen::{ground_truth_networks, QueryGenerator};
use ctc_graph::VertexId;
use rand::{Rng, SeedableRng};

/// Per-network aggregate row.
struct NetRow {
    name: String,
    f1: Vec<f64>,   // per method
    time: Vec<f64>, // per method (mean seconds)
    truss_v: f64,
    truss_e: f64,
    lctc_v: f64,
    lctc_e: f64,
}

const METHODS: [&str; 4] = ["MDC", "QDC", "Truss", "LCTC"];

/// Runs Exp-3 over all ground-truth networks.
pub fn run() {
    let env = ExpEnv::with_default_queries(60);
    banner(
        "Fig. 12 — quality on networks with ground-truth communities",
        &format!(
            "{} query sets per network, |Q| uniform in 1..=16, sampled within single \
             ground-truth communities (paper: 1000 sets; scale with CTC_QUERIES)",
            env.queries
        ),
    );
    let mut rows: Vec<NetRow> = Vec::new();
    for net in ground_truth_networks() {
        let g = &net.data.graph;
        eprintln!(
            "[exp3] {}: {} vertices, {} edges — building index...",
            net.name,
            g.num_vertices(),
            g.num_edges()
        );
        let searcher = CtcSearcher::new(g);
        let cfg = CtcConfig::default();
        // Workload: (query, ground-truth community index).
        let mut qg = QueryGenerator::new(g, env.seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(env.seed ^ 0x5a5a);
        let mut workload: Vec<(Vec<VertexId>, usize)> = Vec::new();
        for _ in 0..env.queries * 4 {
            if workload.len() == env.queries {
                break;
            }
            let size = 1 + rng.gen_range(0..16usize);
            if let Some((q, ci)) = qg.sample_from_ground_truth(&net.data, size) {
                workload.push((q, ci));
            }
        }
        type Method<'a> = (
            &'a str,
            Box<dyn Fn(&[VertexId]) -> Result<Community, String> + 'a>,
        );
        let methods: Vec<Method> = vec![
            (
                "MDC",
                Box::new(|q: &[VertexId]| {
                    mdc(g, q, &MdcConfig::default()).map_err(|e| e.to_string())
                }),
            ),
            (
                "QDC",
                Box::new(|q: &[VertexId]| {
                    qdc(g, q, &QdcConfig::default()).map_err(|e| e.to_string())
                }),
            ),
            (
                "Truss",
                Box::new(|q: &[VertexId]| searcher.truss_only(q, &cfg).map_err(|e| e.to_string())),
            ),
            (
                "LCTC",
                Box::new(|q: &[VertexId]| searcher.local(q, &cfg).map_err(|e| e.to_string())),
            ),
        ];
        let mut f1s = Vec::new();
        let mut times = Vec::new();
        let mut sizes: Vec<(f64, f64)> = Vec::new();
        for (name, f) in &methods {
            eprintln!("[exp3]   {name}...");
            let (outs, stats) = run_workload(&workload, env.budget, |(q, _)| f(q));
            let f1 = mean(outs.iter().zip(&workload).filter_map(|(o, (_, ci))| {
                let truth = &net.data.communities[*ci];
                // Failures score 0 (the paper counts them against the model).
                match o {
                    ctc_eval::RunOutcome::Done(c, _) => Some(f1_score(&c.vertices, truth).f1),
                    ctc_eval::RunOutcome::Failed(_) => Some(0.0),
                    ctc_eval::RunOutcome::OverBudget => None,
                }
            }));
            f1s.push(f1);
            times.push(stats.mean_seconds);
            sizes.push((
                mean(
                    outs.iter()
                        .filter_map(|o| o.value())
                        .map(|c| c.num_vertices() as f64),
                ),
                mean(
                    outs.iter()
                        .filter_map(|o| o.value())
                        .map(|c| c.num_edges() as f64),
                ),
            ));
        }
        rows.push(NetRow {
            name: net.name.to_string(),
            f1: f1s,
            time: times,
            truss_v: sizes[2].0,
            truss_e: sizes[2].1,
            lctc_v: sizes[3].0,
            lctc_e: sizes[3].1,
        });
    }

    let mut t = Table::new(["network", "MDC", "QDC", "Truss", "LCTC"]);
    for r in &rows {
        t.row([
            r.name.clone(),
            fmt_f(r.f1[0]),
            fmt_f(r.f1[1]),
            fmt_f(r.f1[2]),
            fmt_f(r.f1[3]),
        ]);
    }
    println!("(a) mean F1 score\n{}", t.render());

    let mut t = Table::new(["network", "MDC", "QDC", "Truss", "LCTC"]);
    for r in &rows {
        t.row([
            r.name.clone(),
            fmt_secs(r.time[0]),
            fmt_secs(r.time[1]),
            fmt_secs(r.time[2]),
            fmt_secs(r.time[3]),
        ]);
    }
    println!("(b) mean query time\n{}", t.render());

    let mut t = Table::new(["network", "|V|-Truss", "|V|-LCTC", "|E|-Truss", "|E|-LCTC"]);
    for r in &rows {
        t.row([
            r.name.clone(),
            fmt_f(r.truss_v),
            fmt_f(r.lctc_v),
            fmt_f(r.truss_e),
            fmt_f(r.lctc_e),
        ]);
    }
    println!("(c) community size reduction\n{}", t.render());
    let _ = METHODS;
}
