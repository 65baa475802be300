//! Property tests pinning the parallel frontier-peeling decomposition to
//! the serial oracle: at 2/4/8 threads the per-edge trussness array must be
//! byte-identical to `truss_decomposition`'s on random and planted graphs.

use ctc_gen::networks::{dblp_like, facebook_like};
use ctc_gen::planted::{planted_equal, planted_partition, PlantedConfig};
use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::{CsrGraph, Parallelism};
use ctc_truss::{truss_decomposition, truss_decomposition_par};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn assert_parallel_matches_serial(g: &CsrGraph, label: &str) {
    let serial = truss_decomposition(g);
    for t in THREAD_COUNTS {
        let par = Parallelism::threads(t);
        let parallel = truss_decomposition_par(g, par);
        assert_eq!(
            parallel.edge_truss,
            serial.edge_truss,
            "{label}: trussness diverged at {t} threads (n={}, m={})",
            g.num_vertices(),
            g.num_edges()
        );
        assert_eq!(
            parallel.max_truss, serial.max_truss,
            "{label}: max_truss diverged at {t} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn parallel_matches_serial_on_random_graphs(
        n in 4usize..80,
        edges_per_vertex in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let g = erdos_renyi_nm(n, n * edges_per_vertex, seed);
        assert_parallel_matches_serial(&g, "erdos_renyi_nm");
    }

    #[test]
    fn parallel_matches_serial_on_preferential_attachment(
        n in 10usize..120,
        m_per_node in 2usize..5,
        seed in 0u64..10_000,
    ) {
        // BA graphs have the skewed degree distributions where the frontier
        // cascades run deepest.
        let g = barabasi_albert(n, m_per_node, seed);
        assert_parallel_matches_serial(&g, "barabasi_albert");
    }

    #[test]
    fn parallel_matches_serial_on_planted_graphs(
        communities in 2usize..5,
        size in 6usize..20,
        seed in 0u64..10_000,
    ) {
        let gt = planted_equal(communities, size, 0.7, 1.0, seed);
        assert_parallel_matches_serial(&gt.graph, "planted_equal");
    }
}

/// One denser configuration with background noise, run deterministically:
/// planted partitions give the many-truss-level structure where the
/// per-level frontier logic (tie-breaks, cross-frontier triangles) is
/// stressed hardest.
#[test]
fn parallel_matches_serial_on_noisy_partition() {
    let gt = planted_partition(&PlantedConfig {
        community_sizes: vec![24, 16, 12, 8],
        background_vertices: 20,
        p_in: 0.8,
        noise_edges_per_vertex: 2.0,
        seed: 0xC0FFEE,
    });
    assert_parallel_matches_serial(&gt.graph, "planted_partition");
}

/// High thread counts relative to the frontier size force the chunking
/// edge cases (more workers than frontier edges).
#[test]
fn thread_count_exceeding_edge_count_is_safe() {
    let g = erdos_renyi_nm(12, 24, 3);
    let serial = truss_decomposition(&g);
    let parallel = truss_decomposition_par(&g, Parallelism::threads(64));
    assert_eq!(parallel.edge_truss, serial.edge_truss);
}

/// The two full presets `CommunityEngine::build` decomposes at start-up,
/// through two kernels that share no triangle-enumeration code: the serial
/// degree-oriented walks and the PKT frontier peel.
#[test]
fn full_presets_agree_across_kernels() {
    for net in [facebook_like(), dblp_like()] {
        let g = &net.data.graph;
        let serial = truss_decomposition(g);
        let pkt = truss_decomposition_par(g, Parallelism::threads(2));
        assert_eq!(serial.edge_truss, pkt.edge_truss, "{}", net.name);
        assert_eq!(serial.max_truss, pkt.max_truss, "{}", net.name);
    }
}
