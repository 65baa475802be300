//! Ad-hoc locate-phase profiler (not committed to CI): breaks LCTC locate
//! into steps and times find_g0 on the mini presets.

use ctc_core::{steiner_tree, CtcConfig};
use ctc_gen::{mini_network, DegreeRank, QueryGenerator};
use ctc_truss::{find_g0, TrussIndex};
use std::time::Instant;

fn main() {
    for preset in ["facebook", "dblp"] {
        let net = mini_network(preset, 7).expect("preset");
        let g = net.graph;
        println!(
            "== {preset}: n={} m={} maxdeg={}",
            g.num_vertices(),
            g.num_edges(),
            g.max_degree()
        );
        let idx = TrussIndex::build(&g);
        let mut qg = QueryGenerator::new(&g, 5);
        let queries: Vec<_> = (0..3)
            .map(|_| qg.sample(3, DegreeRank::top(0.8), 2).expect("queries"))
            .collect();
        let cfg = CtcConfig::default();

        // find_g0 (Basic/BD/Truss locate core)
        let mut best = u128::MAX;
        for _ in 0..20 {
            let t = Instant::now();
            for q in &queries {
                let g0 = find_g0(&g, &idx, q).unwrap();
                std::hint::black_box(&g0);
            }
            best = best.min(t.elapsed().as_micros());
        }
        println!("find_g0 x3: {best}us");

        // Subgraph materialization
        let mut best = u128::MAX;
        for _ in 0..20 {
            let t = Instant::now();
            for q in &queries {
                let g0 = find_g0(&g, &idx, q).unwrap();
                let sub = ctc_graph::edge_subgraph(&g, &g0.edges);
                std::hint::black_box(&sub);
            }
            best = best.min(t.elapsed().as_micros());
        }
        println!("find_g0+edge_subgraph x3: {best}us");

        // LCTC steps
        let mut t_st = u128::MAX;
        let mut t_gt = u128::MAX;
        let mut t_idx = u128::MAX;
        let mut t_g0 = u128::MAX;
        let mut t_mat = u128::MAX;
        for _ in 0..20 {
            let (mut a, mut b, mut c, mut d, mut e) = (0, 0, 0, 0, 0);
            for q in &queries {
                let t = Instant::now();
                let tree = steiner_tree(&g, &idx, q, cfg.gamma, cfg.steiner_mode).unwrap();
                a += t.elapsed().as_micros();
                let t = Instant::now();
                let gt = ctc_core::local::expand_tree(&g, &idx, &tree, cfg.eta);
                b += t.elapsed().as_micros();
                let q_gt: Vec<_> = gt.locals(q).unwrap();
                let t = Instant::now();
                let idx_t = TrussIndex::build(&gt.graph);
                c += t.elapsed().as_micros();
                let t = Instant::now();
                let ht = find_g0(&gt.graph, &idx_t, &q_gt).unwrap();
                d += t.elapsed().as_micros();
                let t = Instant::now();
                let mut ht_pairs: Vec<_> = ht
                    .edges
                    .iter()
                    .map(|&ei| {
                        let (u, v) = gt.graph.edge_endpoints(ei);
                        let (pu, pv) = (gt.parent(u), gt.parent(v));
                        if pu < pv {
                            (pu, pv)
                        } else {
                            (pv, pu)
                        }
                    })
                    .collect();
                ht_pairs.sort_unstable();
                let ht_sub = ctc_graph::subgraph_from_pairs(&ht_pairs);
                e += t.elapsed().as_micros();
                std::hint::black_box(&ht_sub);
                println!(
                    "  gt: n={} m={}  ht: m={}",
                    gt.num_vertices(),
                    gt.num_edges(),
                    ht.edges.len()
                );
            }
            t_st = t_st.min(a);
            t_gt = t_gt.min(b);
            t_idx = t_idx.min(c);
            t_g0 = t_g0.min(d);
            t_mat = t_mat.min(e);
        }
        println!("lctc steiner x3:      {t_st}us");
        println!("lctc expand x3:       {t_gt}us");
        println!("lctc index-build x3:  {t_idx}us");
        println!("lctc find_g0 x3:      {t_g0}us");
        println!("lctc materialize x3:  {t_mat}us");

        // Index-build sub-steps on the biggest Gt of the workload.
        let tree = steiner_tree(&g, &idx, &queries[0], cfg.gamma, cfg.steiner_mode).unwrap();
        let gt = ctc_core::local::expand_tree(&g, &idx, &tree, cfg.eta);
        let gg = &gt.graph;
        let mut t_sup = u128::MAX;
        let mut t_dec = u128::MAX;
        let mut t_idx2 = u128::MAX;
        for _ in 0..30 {
            let t = Instant::now();
            let sup = ctc_graph::edge_supports(gg);
            std::hint::black_box(&sup);
            t_sup = t_sup.min(t.elapsed().as_micros());
            let t = Instant::now();
            let dec = ctc_truss::truss_decomposition(gg);
            t_dec = t_dec.min(t.elapsed().as_micros());
            let t = Instant::now();
            let ix = TrussIndex::from_decomposition(gg, dec);
            std::hint::black_box(&ix);
            t_idx2 = t_idx2.min(t.elapsed().as_micros());
        }
        println!("  gt0 edge_supports:      {t_sup}us");
        println!("  gt0 decomposition:      {t_dec}us");
        println!("  gt0 from_decomposition: {t_idx2}us");
    }
}
