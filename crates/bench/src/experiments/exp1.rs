//! Exp-1 (Figures 5–10): query time, free-rider percentage and density as
//! the three workload knobs vary — query size `|Q|`, degree rank, and
//! inter-distance `l` — on the DBLP and Facebook analogues.

use crate::common::{banner, ctc_algos, mean, sample_queries, ExpEnv};
use ctc_core::{CtcConfig, CtcSearcher};
use ctc_eval::{fmt_f, fmt_secs, run_workload, Table};
use ctc_gen::{network_by_name, DegreeRank, Network};
use ctc_graph::VertexId;

/// One workload point: label + the sampled query sets.
struct Point {
    label: String,
    queries: Vec<Vec<VertexId>>,
}

/// Which figure family to run.
#[derive(Clone, Copy)]
pub enum Knob {
    /// Figures 5–6: vary `|Q|` ∈ {1, 2, 4, 8, 16}.
    QuerySize,
    /// Figures 7–8: vary the degree-rank bucket.
    DegreeRank,
    /// Figures 9–10: vary the inter-distance `l` ∈ 1..5.
    InterDistance,
}

impl Knob {
    fn title(&self) -> &'static str {
        match self {
            Knob::QuerySize => "varying query size |Q| (Figs. 5/6)",
            Knob::DegreeRank => "varying degree rank (Figs. 7/8)",
            Knob::InterDistance => "varying inter-distance l (Figs. 9/10)",
        }
    }

    fn points(&self, net: &Network, env: &ExpEnv) -> Vec<Point> {
        match self {
            Knob::QuerySize => [1usize, 2, 4, 8, 16]
                .iter()
                .map(|&s| Point {
                    label: format!("|Q|={s}"),
                    queries: sample_queries(net, env.queries, s, DegreeRank::top(0.8), 2, env.seed),
                })
                .collect(),
            Knob::DegreeRank => (0..5)
                .map(|b| Point {
                    label: format!("rank {}%", (b + 1) * 20),
                    queries: sample_queries(
                        net,
                        env.queries,
                        3,
                        DegreeRank::bucket(b),
                        2,
                        env.seed + b as u64,
                    ),
                })
                .collect(),
            Knob::InterDistance => (1u32..=5)
                .map(|l| Point {
                    label: format!("l={l}"),
                    queries: sample_queries(
                        net,
                        env.queries,
                        3,
                        DegreeRank::top(0.8),
                        l,
                        env.seed + l as u64,
                    ),
                })
                .collect(),
        }
    }
}

/// Runs one Exp-1 family on one network.
pub fn run(network: &str, knob: Knob) {
    let env = ExpEnv::with_default_queries(20);
    let net = network_by_name(network).expect("unknown network preset");
    let g = &net.data.graph;
    banner(
        knob.title(),
        &format!(
            "network = {} ({} vertices, {} edges); {} query sets per point, budget {:?}/algo/point",
            net.name,
            g.num_vertices(),
            g.num_edges(),
            env.queries,
            env.budget
        ),
    );
    let searcher = CtcSearcher::new(g);
    let cfg = CtcConfig::default();
    let points = knob.points(&net, &env);

    let mut time_t = Table::new(["point", "Basic", "BD", "LCTC"]);
    let mut kept_t = Table::new(["point", "Basic %", "BD %", "LCTC %"]);
    let mut dens_t = Table::new(["point", "Basic", "BD", "LCTC"]);
    for p in &points {
        // Global Truss G0 sizes: the common denominator for the paper's
        // "kept %" free-rider metric, regardless of algorithm.
        let g0_sizes: Vec<Option<usize>> = p
            .queries
            .iter()
            .map(|q| searcher.truss_only(q, &cfg).ok().map(|c| c.num_vertices()))
            .collect();
        let mut times = Vec::new();
        let mut kepts = Vec::new();
        let mut denss = Vec::new();
        for (name, algo) in ctc_algos(&searcher, &cfg) {
            let _ = name;
            let (outs, stats) = run_workload(&p.queries, env.budget, |q| algo(q));
            let starved = stats.skipped > 0 && stats.completed < p.queries.len() / 2;
            times.push(if stats.completed == 0 || starved {
                "Inf".to_string()
            } else {
                fmt_secs(stats.mean_seconds)
            });
            kepts.push(fmt_f(
                100.0
                    * mean(outs.iter().zip(&g0_sizes).filter_map(|(o, g0)| {
                        match (o.value(), *g0) {
                            (Some(c), Some(g0)) if g0 > 0 => {
                                Some(c.num_vertices() as f64 / g0 as f64)
                            }
                            _ => None,
                        }
                    })),
            ));
            denss.push(fmt_f(mean(
                outs.iter().filter_map(|o| o.value()).map(|c| c.density()),
            )));
        }
        time_t.row([
            p.label.clone(),
            times[0].clone(),
            times[1].clone(),
            times[2].clone(),
        ]);
        kept_t.row([
            p.label.clone(),
            kepts[0].clone(),
            kepts[1].clone(),
            kepts[2].clone(),
        ]);
        dens_t.row([
            p.label.clone(),
            denss[0].clone(),
            denss[1].clone(),
            denss[2].clone(),
        ]);
    }
    println!("(a) mean query time\n{}", time_t.render());
    println!(
        "(b) kept % of G0 (lower = more free riders removed)\n{}",
        kept_t.render()
    );
    println!("(c) community edge density\n{}", dens_t.render());
}
