//! Property suite pinning the incremental peel engine to the
//! full-recompute oracle: on random ER/BA/planted graphs, for every
//! [`DeletePolicy`], `peel_with` must return byte-identical communities to
//! `peel_reference` (which re-runs `|Q|` BFS passes per round, exactly
//! like the pre-incremental implementation).

use ctc_core::{peel_reference, peel_with, DeletePolicy, PeelScratch};
use ctc_gen::planted::{planted_partition, PlantedConfig};
use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::{edge_subgraph, CsrGraph, VertexId};
use ctc_truss::{find_g0, TrussIndex};

const POLICIES: [DeletePolicy; 3] = [
    DeletePolicy::SingleFurthest,
    DeletePolicy::BulkAtLeast,
    DeletePolicy::LocalGreedy,
];

/// Runs the real pipeline prefix (FindG0) for `q`, then compares the
/// incremental and reference peel loops on the extracted subgraph.
fn assert_incremental_matches_reference(g: &CsrGraph, q: &[VertexId], label: &str) {
    let idx = TrussIndex::build(g);
    let Ok(g0) = find_g0(g, &idx, q) else {
        return; // disconnected query: nothing to peel
    };
    if g0.edges.is_empty() {
        return;
    }
    let sub = edge_subgraph(g, &g0.edges);
    let Some(ql) = sub.locals(q) else {
        return;
    };
    let mut scratch = PeelScratch::new();
    for policy in POLICIES {
        let slow = peel_reference(&sub.graph, &ql, g0.k, policy, None);
        let fast = peel_with(&sub.graph, &ql, g0.k, policy, None, &mut scratch);
        assert_eq!(
            fast.vertices, slow.vertices,
            "{label}: {policy:?} vertices diverged (q={q:?}, k={})",
            g0.k
        );
        assert_eq!(fast.edges, slow.edges, "{label}: {policy:?} edges diverged");
        assert_eq!(
            fast.query_distance, slow.query_distance,
            "{label}: {policy:?} distance diverged"
        );
        assert_eq!(
            fast.iterations, slow.iterations,
            "{label}: {policy:?} iteration count diverged"
        );
    }
}

fn queries_for(g: &CsrGraph, seed: u64) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices() as u64;
    if n == 0 {
        return Vec::new();
    }
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        VertexId(((state >> 33) % n) as u32)
    };
    vec![
        vec![next()],
        vec![next(), next()],
        vec![next(), next(), next()],
    ]
}

fn exercise(g: &CsrGraph, seed: u64, label: &str) {
    for mut q in queries_for(g, seed) {
        q.sort_unstable();
        q.dedup();
        assert_incremental_matches_reference(g, &q, label);
    }
}

#[test]
fn er_graphs_match() {
    for seed in 0..8u64 {
        let n = 20 + (seed as usize % 5) * 13;
        let g = erdos_renyi_nm(n, n * 4, seed);
        exercise(&g, seed.wrapping_mul(977), "er");
    }
}

#[test]
fn ba_graphs_match() {
    for seed in 0..8u64 {
        let n = 25 + (seed as usize % 4) * 17;
        let g = barabasi_albert(n, 3, seed);
        exercise(&g, seed.wrapping_mul(1489), "ba");
    }
}

#[test]
fn planted_graphs_match() {
    for seed in 0..4u64 {
        let net = planted_partition(&PlantedConfig {
            community_sizes: vec![12, 15, 10],
            background_vertices: 5,
            p_in: 0.55,
            noise_edges_per_vertex: 1.0,
            seed,
        });
        exercise(&net.graph, seed.wrapping_mul(3331), "planted");
    }
}
