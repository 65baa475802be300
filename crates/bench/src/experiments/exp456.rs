//! Exp-4 (Fig. 13: diameter/trussness approximation), Exp-5 (Fig. 14:
//! fixed-k sweep) and Exp-6 (Figs. 15–16: LCTC parameter sweeps).

use crate::common::{banner, mean, sample_queries, ExpEnv};
use ctc_core::{CtcConfig, CtcSearcher};
use ctc_eval::{f1_score, fmt_f, fmt_secs, run_workload, Table};
use ctc_gen::{network_by_name, DegreeRank, QueryGenerator};
use ctc_graph::VertexId;
use rand::Rng;

/// Fig. 13: diameters of Basic/BD/LCTC vs the optimal-diameter bounds
/// (LB-OPT = Basic's query distance, UB-OPT = 2·LB — Lemma 2), plus the
/// trussness each algorithm certifies, varying inter-distance `l` on the
/// Facebook analogue.
pub fn fig13() {
    let env = ExpEnv::with_default_queries(15);
    let net = network_by_name("facebook").expect("facebook preset");
    let g = &net.data.graph;
    banner(
        "Fig. 13 — diameter & trussness approximation (facebook)",
        &format!("{} query sets per point, |Q| = 3", env.queries),
    );
    let searcher = CtcSearcher::new(g);
    let cfg = CtcConfig::default();
    // Cap Basic like the rest of the harness (see common::ctc_algos).
    let basic_cfg = CtcConfig::new().max_iterations(1500);
    let mut diam_t = Table::new(["l", "Basic", "BD", "LCTC", "LB-OPT", "UB-OPT"]);
    let mut truss_t = Table::new(["l", "Basic", "BD", "LCTC"]);
    for l in 1u32..=5 {
        let queries = sample_queries(
            &net,
            env.queries,
            3,
            DegreeRank::top(0.8),
            l,
            env.seed + l as u64,
        );
        let mut diams: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut trusses: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut lb: Vec<f64> = Vec::new();
        for q in &queries {
            let results = [
                searcher.basic(q, &basic_cfg),
                searcher.bulk_delete(q, &cfg),
                searcher.local(q, &cfg),
            ];
            if let Ok(b) = &results[0] {
                lb.push(b.query_distance as f64);
            }
            for (i, r) in results.iter().enumerate() {
                if let Ok(c) = r {
                    diams[i].push(c.diameter() as f64);
                    trusses[i].push(c.k as f64);
                }
            }
        }
        let lb_m = mean(lb.iter().copied());
        diam_t.row([
            l.to_string(),
            fmt_f(mean(diams[0].iter().copied())),
            fmt_f(mean(diams[1].iter().copied())),
            fmt_f(mean(diams[2].iter().copied())),
            fmt_f(lb_m),
            fmt_f(2.0 * lb_m),
        ]);
        truss_t.row([
            l.to_string(),
            fmt_f(mean(trusses[0].iter().copied())),
            fmt_f(mean(trusses[1].iter().copied())),
            fmt_f(mean(trusses[2].iter().copied())),
        ]);
    }
    println!("(a) mean diameter vs optimal bounds\n{}", diam_t.render());
    println!(
        "(b) mean trussness of the detected community\n{}",
        truss_t.render()
    );
}

/// Fig. 14: LCTC with a fixed maximum trussness k — diameter vs k on the
/// Facebook analogue ("trading trussness for diameter", §7.1).
pub fn fig14() {
    let env = ExpEnv::with_default_queries(15);
    let net = network_by_name("facebook").expect("facebook preset");
    let g = &net.data.graph;
    banner(
        "Fig. 14 — diameter vs fixed trussness k (facebook, LCTC)",
        "",
    );
    let searcher = CtcSearcher::new(g);
    // Tight (l = 1) queries keep a single query population feasible across
    // the whole k sweep: for k below a query's maximum, a connected k-truss
    // containing it always exists, so every point averages the same sets.
    let queries = sample_queries(&net, env.queries, 3, DegreeRank::top(0.8), 1, env.seed);
    // Baseline at the true maximum trussness (Basic capped as elsewhere).
    let max_cfg = CtcConfig::new().max_iterations(1500);
    let mut t = Table::new(["k", "LCTC diameter", "LB-OPT"]);
    let lb = mean(queries.iter().filter_map(|q| {
        searcher
            .basic(q, &max_cfg)
            .ok()
            .map(|c| c.query_distance as f64)
    }));
    let max_k = queries
        .iter()
        .filter_map(|q| searcher.local(q, &max_cfg).ok().map(|c| c.k))
        .min() // the largest k feasible for *every* query in the population
        .unwrap_or(4);
    let mut ks: Vec<u32> = (2..max_k)
        .step_by(2.max((max_k as usize - 2) / 4))
        .collect();
    ks.push(max_k);
    for k in ks {
        let cfg = CtcConfig::new().fixed_k(k);
        let d = mean(
            queries
                .iter()
                .filter_map(|q| searcher.local(q, &cfg).ok().map(|c| c.diameter() as f64)),
        );
        let label = if k == max_k {
            format!("{k} (max)")
        } else {
            k.to_string()
        };
        t.row([label, fmt_f(d), fmt_f(lb)]);
    }
    println!("{}", t.render());
}

/// Figs. 15–16: LCTC parameter sweeps (η then γ) on the DBLP analogue:
/// community size, F1 vs ground truth, query time.
pub fn fig15_16() {
    let env = ExpEnv::with_default_queries(30);
    let net = network_by_name("dblp").expect("dblp preset");
    let g = &net.data.graph;
    banner(
        "Figs. 15/16 — LCTC parameter sweeps (dblp)",
        &format!("{} ground-truth query sets per point", env.queries),
    );
    let searcher = CtcSearcher::new(g);
    let mut qg = QueryGenerator::new(g, env.seed);
    let mut rng = rand::rngs::StdRng::clone(&rand::SeedableRng::seed_from_u64(env.seed ^ 0x15));
    let mut workload: Vec<(Vec<VertexId>, usize)> = Vec::new();
    for _ in 0..env.queries * 4 {
        if workload.len() == env.queries {
            break;
        }
        let size = 1 + rng.gen_range(0..8usize);
        if let Some((q, ci)) = qg.sample_from_ground_truth(&net.data, size) {
            workload.push((q, ci));
        }
    }
    let sweep = |cfgs: Vec<(String, CtcConfig)>, knob: &str| {
        let mut t = Table::new([knob, "|V|", "F1", "time"]);
        for (label, cfg) in cfgs {
            let (outs, stats) = run_workload(&workload, env.budget, |(q, _)| {
                searcher.local(q, &cfg).map_err(|e| e.to_string())
            });
            let nv = mean(
                outs.iter()
                    .filter_map(|o| o.value())
                    .map(|c| c.num_vertices() as f64),
            );
            let f1 = mean(outs.iter().zip(&workload).filter_map(|(o, (_, ci))| {
                o.value()
                    .map(|c| f1_score(&c.vertices, &net.data.communities[*ci]).f1)
            }));
            t.row([label, fmt_f(nv), fmt_f(f1), fmt_secs(stats.mean_seconds)]);
        }
        println!("{}", t.render());
    };
    println!("Fig. 15 — varying η (γ = 3):");
    sweep(
        [100usize, 500, 1000, 1500, 2000]
            .iter()
            .map(|&eta| (eta.to_string(), CtcConfig::new().eta(eta)))
            .collect(),
        "η",
    );
    // γ only matters when the query's connecting paths can trade length for
    // trussness — i.e. for *spread* queries whose members sit in different
    // dense regions. Ground-truth (single-community) queries never exercise
    // it, so Fig. 16 uses spread workloads and reports the structural
    // series (|V|, trussness, diameter) instead of F1.
    println!("Fig. 16 — varying γ (η = 1000, spread queries l = 3):");
    let spread = sample_queries(
        &net,
        env.queries,
        3,
        ctc_gen::DegreeRank::any(),
        3,
        env.seed ^ 7,
    );
    let mut t = Table::new(["γ", "|V|", "k", "diameter", "time"]);
    for gamma in [0.0f64, 1.0, 3.0, 5.0, 7.0, 9.0] {
        let cfg = CtcConfig::new().gamma(gamma);
        let (outs, stats) = run_workload(&spread, env.budget, |q| {
            searcher.local(q, &cfg).map_err(|e| e.to_string())
        });
        t.row([
            format!("{gamma}"),
            fmt_f(mean(
                outs.iter()
                    .filter_map(|o| o.value())
                    .map(|c| c.num_vertices() as f64),
            )),
            fmt_f(mean(
                outs.iter().filter_map(|o| o.value()).map(|c| c.k as f64),
            )),
            fmt_f(mean(
                outs.iter()
                    .filter_map(|o| o.value())
                    .map(|c| c.diameter() as f64),
            )),
            fmt_secs(stats.mean_seconds),
        ]);
    }
    println!("{}", t.render());
}
