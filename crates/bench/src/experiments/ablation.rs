//! The deletion-policy ablation: single-furthest (Alg. 1) vs bulk `d−1`
//! (Alg. 4) vs the LCTC `L'` greedy, run on identical `G0`s.

use crate::common::{banner, mean, sample_queries, ExpEnv};
use ctc_core::{peel, CtcSearcher, DeletePolicy};
use ctc_eval::{fmt_f, fmt_secs, Table};
use ctc_gen::{network_by_name, DegreeRank};
use std::time::Instant;

/// Deletion-policy ablation on shared `G0`s (facebook).
pub fn delete_policies() {
    let env = ExpEnv::with_default_queries(15);
    let net = network_by_name("facebook").expect("facebook preset");
    let g = &net.data.graph;
    banner(
        "Ablation — peeling policy on identical G0 (facebook)",
        &format!("{} query sets (|Q| = 3, l = 2)", env.queries),
    );
    let searcher = CtcSearcher::new(g);
    let queries = sample_queries(&net, env.queries, 3, DegreeRank::top(0.8), 2, env.seed);
    type PolicyRow = (&'static str, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);
    let mut rows: Vec<PolicyRow> = vec![
        ("SingleFurthest (Alg. 1)", vec![], vec![], vec![], vec![]),
        ("BulkAtLeast (Alg. 4)", vec![], vec![], vec![], vec![]),
        ("LocalGreedy (LCTC §5.2)", vec![], vec![], vec![], vec![]),
    ];
    for q in &queries {
        let Ok(g0) = ctc_truss::find_g0(g, searcher.index(), q) else {
            continue;
        };
        let sub = ctc_graph::edge_subgraph(g, &g0.edges);
        let Some(ql) = sub.locals(q) else { continue };
        for (i, policy) in [
            DeletePolicy::SingleFurthest,
            DeletePolicy::BulkAtLeast,
            DeletePolicy::LocalGreedy,
        ]
        .iter()
        .enumerate()
        {
            let t0 = Instant::now();
            let out = peel(&sub.graph, &ql, g0.k, *policy, Some(3000));
            let secs = t0.elapsed().as_secs_f64();
            rows[i].1.push(out.vertices.len() as f64);
            rows[i].2.push(out.query_distance as f64);
            rows[i].3.push(out.iterations as f64);
            rows[i].4.push(secs);
        }
    }
    let mut t = Table::new(["policy", "|V|", "dist(R,Q)", "iterations", "time"]);
    for (label, vs, ds, is_, ts) in rows {
        t.row([
            label.to_string(),
            fmt_f(mean(vs.into_iter())),
            fmt_f(mean(ds.into_iter())),
            fmt_f(mean(is_.into_iter())),
            fmt_secs(mean(ts.into_iter())),
        ]);
    }
    println!("{}", t.render());
}
