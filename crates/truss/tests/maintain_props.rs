//! The maintained-vs-rebuilt differential battery for [`DynamicIndex`].
//!
//! The contract under test: after ANY schedule of edge insertions and
//! deletions, the locally maintained per-edge trussness is *byte-identical*
//! to a [`TrussIndex::build`] from scratch on the mutated edge set — not
//! approximately, not eventually, but after every single update. The
//! oracle (`check_against_rebuild`) re-runs the full `O(ρ·m)`
//! decomposition and compares every edge's trussness, every vertex's
//! trussness, and the max; `materialize` round-trips the mutable state
//! back into the immutable CSR + index pair and is pinned against a cold
//! index over the serial decomposition and over PKT at 2 and 4 threads.

use ctc_gen::planted::planted_equal;
use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::error::GraphError;
use ctc_graph::{CsrGraph, Parallelism, VertexId};
use ctc_truss::{truss_decomposition_par, DynamicIndex, TrussIndex};
use proptest::prelude::*;

/// SplitMix64 — a tiny deterministic stream for schedule sampling, so the
/// tests need no RNG dependency and every failure reproduces from (seed,
/// case) alone.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs a random interleaved insert/delete schedule over `g`, checking
/// the full rebuild oracle after every step, and finishes with the
/// materialize + multithread parity check.
fn run_schedule(g: &CsrGraph, seed: u64, steps: usize, label: &str) {
    let n = g.num_vertices();
    if n < 2 {
        return;
    }
    let mut dynx = DynamicIndex::build(g);
    let mut present: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
    let mut rng = seed ^ 0xc7c_71a55;
    for step in 0..steps {
        // Delete when there is something to delete and the coin says so;
        // otherwise probe a random pair and insert it if absent.
        let coin = splitmix(&mut rng);
        if !present.is_empty() && coin & 1 == 0 {
            let i = (splitmix(&mut rng) % present.len() as u64) as usize;
            let (u, v) = present.swap_remove(i);
            dynx.delete_edge(VertexId(u), VertexId(v))
                .unwrap_or_else(|e| panic!("{label}: delete ({u},{v}) step {step}: {e}"));
        } else {
            let u = (splitmix(&mut rng) % n as u64) as u32;
            let v = (splitmix(&mut rng) % n as u64) as u32;
            if u == v || dynx.has_edge(VertexId(u), VertexId(v)) {
                continue;
            }
            dynx.insert_edge(VertexId(u), VertexId(v))
                .unwrap_or_else(|e| panic!("{label}: insert ({u},{v}) step {step}: {e}"));
            present.push((u.min(v), u.max(v)));
        }
        dynx.check_against_rebuild()
            .unwrap_or_else(|e| panic!("{label}: oracle diverged at step {step}: {e}"));
    }
    assert_materialize_parity(&dynx, label);
}

/// `materialize()` must reproduce exactly what a cold build — serial or
/// parallel — computes on the mutated edge set.
fn assert_materialize_parity(dynx: &DynamicIndex, label: &str) {
    let (mg, midx) = dynx.materialize().expect("materialize");
    assert_eq!(mg.num_edges(), dynx.num_edges(), "{label}: edge count");
    for threads in [1usize, 2, 4] {
        let par = Parallelism::threads(threads);
        let cold = TrussIndex::from_decomposition(&mg, truss_decomposition_par(&mg, par));
        assert_eq!(
            midx.edge_truss_slice(),
            cold.edge_truss_slice(),
            "{label}: maintained truss differs from a {threads}-thread rebuild"
        );
        assert_eq!(midx.max_truss(), cold.max_truss(), "{label}: max_truss");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn maintained_matches_rebuild_on_er_graphs(
        n in 4usize..48,
        edges_per_vertex in 1usize..5,
        seed in 0u64..100_000,
    ) {
        let g = erdos_renyi_nm(n, n * edges_per_vertex, seed);
        run_schedule(&g, seed, 12, "erdos_renyi_nm");
    }

    #[test]
    fn maintained_matches_rebuild_on_preferential_attachment(
        n in 10usize..60,
        m_per_node in 2usize..5,
        seed in 0u64..100_000,
    ) {
        // Skewed degrees: the deepest promotion/demotion cascades live
        // where hubs share many triangles.
        let g = barabasi_albert(n, m_per_node, seed);
        run_schedule(&g, seed, 12, "barabasi_albert");
    }

    #[test]
    fn maintained_matches_rebuild_on_planted_communities(
        communities in 2usize..5,
        size in 4usize..9,
        seed in 0u64..100_000,
    ) {
        // Dense planted blocks: high trussness classes, so updates cross
        // many k-levels.
        let g = planted_equal(communities, size, 0.9, 0.05, seed).graph;
        run_schedule(&g, seed, 10, "planted_equal");
    }

    /// Tear down a whole random graph edge by edge, then regrow it in a
    /// shuffled order: the final index must equal the original cold build
    /// byte for byte (and the oracle holds at every intermediate state).
    #[test]
    fn full_teardown_and_regrow_restores_the_index(
        n in 4usize..24,
        edges_per_vertex in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let g = erdos_renyi_nm(n, n * edges_per_vertex, seed);
        let reference = TrussIndex::build(&g);
        let mut dynx = DynamicIndex::build(&g);
        let mut edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();

        // Shuffle deterministically (Fisher–Yates on splitmix).
        let mut rng = seed ^ 0x7ea2_d011_5eed_0001;
        for i in (1..edges.len()).rev() {
            let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
            edges.swap(i, j);
        }
        for &(u, v) in &edges {
            dynx.delete_edge(VertexId(u), VertexId(v)).unwrap();
        }
        prop_assert_eq!(dynx.num_edges(), 0);
        dynx.check_against_rebuild().unwrap();

        for &(u, v) in edges.iter().rev() {
            dynx.insert_edge(VertexId(u), VertexId(v)).unwrap();
            dynx.check_against_rebuild().unwrap();
        }
        let (mg, midx) = dynx.materialize().unwrap();
        prop_assert_eq!(mg.num_edges(), g.num_edges());
        prop_assert_eq!(midx.edge_truss_slice(), reference.edge_truss_slice());
        prop_assert_eq!(midx.max_truss(), reference.max_truss());
    }

    /// Rejected updates must leave the index bit-for-bit untouched.
    #[test]
    fn rejections_are_total_noops(
        n in 4usize..32,
        edges_per_vertex in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let g = erdos_renyi_nm(n, n * edges_per_vertex, seed);
        let mut dynx = DynamicIndex::build(&g);
        let before = dynx.clone();
        let (u, v) = match g.edges().next() {
            Some((_, u, v)) => (u, v),
            None => return Ok(()),
        };
        // Duplicate insert of a present edge.
        prop_assert!(matches!(
            dynx.insert_edge(u, v),
            Err(GraphError::DuplicateEdge { .. })
        ));
        // Missing delete: find an absent pair (a small dense graph can be
        // complete, so the probe must be bounded).
        let mut rng = seed;
        let absent = std::iter::repeat_with(|| {
            (
                VertexId((splitmix(&mut rng) % n as u64) as u32),
                VertexId((splitmix(&mut rng) % n as u64) as u32),
            )
        })
        .take(500)
        .find(|&(a, b)| a != b && !dynx.has_edge(a, b));
        if let Some((a, b)) = absent {
            prop_assert!(matches!(
                dynx.delete_edge(a, b),
                Err(GraphError::MissingEdge { .. })
            ));
        }
        // Out-of-range endpoint and self-loop, both directions.
        let oob = VertexId(n as u32 + 3);
        prop_assert!(matches!(
            dynx.insert_edge(u, oob),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        prop_assert!(matches!(
            dynx.delete_edge(oob, v),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        prop_assert!(matches!(
            dynx.insert_edge(u, u),
            Err(GraphError::SelfLoop { .. })
        ));
        let (bg, bidx) = before.materialize().unwrap();
        let (ag, aidx) = dynx.materialize().unwrap();
        prop_assert_eq!(bg.num_edges(), ag.num_edges());
        prop_assert_eq!(bidx.edge_truss_slice(), aidx.edge_truss_slice());
    }
}
