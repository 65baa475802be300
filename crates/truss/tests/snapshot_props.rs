//! Property tests for the `.ctci` snapshot: round-tripping through bytes
//! is lossless on random graphs, and any single-byte corruption or
//! truncation is rejected with an error, never a panic.

use ctc_gen::planted::planted_equal;
use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
use ctc_graph::error::GraphError;
use ctc_graph::{CsrGraph, VertexId};
use ctc_truss::{find_g0, fixtures, snapshot_version, Snapshot, TrussIndex};
use proptest::prelude::*;

/// Round-trips `g` through snapshot bytes and checks the loaded state is
/// indistinguishable from the cold-built one — structurally and through
/// the query path (`find_g0` for assorted query sets).
fn assert_roundtrip_lossless(g: &CsrGraph, label: &str) {
    let cold = TrussIndex::build(g);
    let labels: Vec<u64> = (0..g.num_vertices()).map(|i| 10_000 + i as u64).collect();
    let snap = Snapshot::build(g.clone())
        .with_labels(labels.clone())
        .unwrap();
    let loaded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
    assert_eq!(&loaded.graph, g, "{label}: graph changed");
    assert_eq!(loaded.labels, labels, "{label}: labels changed");
    assert_eq!(
        loaded.index.edge_truss_slice(),
        cold.edge_truss_slice(),
        "{label}: trussness changed"
    );
    assert_eq!(loaded.index.max_truss(), cold.max_truss());
    for v in g.vertices() {
        assert_eq!(
            loaded.index.sorted_row(v),
            cold.sorted_row(v),
            "{label}: truss-sorted row of {v} changed"
        );
        assert_eq!(loaded.index.vertex_truss(v), cold.vertex_truss(v));
    }
    // Query answers must be byte-identical, success or failure alike.
    let n = g.num_vertices();
    if n == 0 {
        return;
    }
    let queries: Vec<Vec<VertexId>> = vec![
        vec![VertexId(0)],
        vec![VertexId((n / 2) as u32)],
        vec![VertexId(0), VertexId((n - 1) as u32)],
    ];
    for q in &queries {
        let a = find_g0(g, &cold, q);
        let b = find_g0(&loaded.graph, &loaded.index, q);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.k, y.k, "{label}: k diverged for {q:?}");
                assert_eq!(x.vertices, y.vertices, "{label}: G0 diverged for {q:?}");
                assert_eq!(x.edges, y.edges, "{label}: G0 edges diverged for {q:?}");
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "{label}: errors diverged for {q:?}"),
            other => panic!("{label}: cold/loaded disagree for {q:?}: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn roundtrip_on_random_graphs(
        n in 4usize..60,
        edges_per_vertex in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let g = erdos_renyi_nm(n, n * edges_per_vertex, seed);
        assert_roundtrip_lossless(&g, "erdos_renyi_nm");
    }

    #[test]
    fn roundtrip_on_preferential_attachment(
        n in 10usize..80,
        m_per_node in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let g = barabasi_albert(n, m_per_node, seed);
        assert_roundtrip_lossless(&g, "barabasi_albert");
    }

    #[test]
    fn roundtrip_on_planted_communities(
        communities in 2usize..5,
        size in 5usize..16,
        seed in 0u64..10_000,
    ) {
        let gt = planted_equal(communities, size, 0.7, 1.0, seed);
        assert_roundtrip_lossless(&gt.graph, "planted_equal");
    }

    #[test]
    fn random_single_byte_corruption_is_always_rejected(
        n in 4usize..40,
        seed in 0u64..10_000,
        flip_seed in 1u64..10_000,
    ) {
        let g = erdos_renyi_nm(n, 3 * n, seed);
        let raw = Snapshot::build(g).to_bytes().to_vec();
        // Deterministic pseudo-random positions/masks derived from the seed.
        let pos = (flip_seed as usize * 7919) % raw.len();
        let mask = ((flip_seed >> 3) as u8 % 255) + 1; // never 0
        let mut bad = raw.clone();
        bad[pos] ^= mask;
        prop_assert!(
            Snapshot::from_bytes(&bad).is_err(),
            "flip {mask:#x} at byte {pos}/{} accepted", raw.len()
        );
        // Truncation at a random cut is also always an error.
        let cut = (flip_seed as usize * 104729) % raw.len();
        prop_assert!(Snapshot::from_bytes(&raw[..cut]).is_err(), "cut at {cut} accepted");
    }
}

/// The three typed failure modes, on a fixed graph: truncation and bit
/// flips are [`GraphError::Corrupt`] (or at least errors), a newer format
/// version is [`GraphError::UnsupportedVersion`].
#[test]
fn corruption_error_taxonomy() {
    let g = erdos_renyi_nm(20, 60, 42);
    let raw = Snapshot::build(g).to_bytes().to_vec();
    assert!(Snapshot::from_bytes(&[]).is_err());
    assert!(Snapshot::from_bytes(&raw[..raw.len() / 2]).is_err());
    let mut flipped = raw.clone();
    *flipped.last_mut().unwrap() ^= 0xFF; // trailer byte: checksum mismatch
    assert!(matches!(
        Snapshot::from_bytes(&flipped).unwrap_err(),
        GraphError::Corrupt(_)
    ));
    let mut newer = raw.clone();
    newer[4] = 200;
    assert!(matches!(
        Snapshot::from_bytes(&newer).unwrap_err(),
        GraphError::UnsupportedVersion { found: 200, .. }
    ));
}

/// The labeled Figure-1 snapshot as format version 1 wrote it (FNV-1a 64
/// trailer), with labels `5_000_000_000 + 7·i` so the `u64` label section
/// carries high words.
const FIGURE1_V1: &[u8] = include_bytes!("data/figure1_v1.ctci");

fn figure1_labeled() -> Snapshot {
    let labels = (0..12).map(|i| 5_000_000_000 + 7 * i).collect();
    Snapshot::build(fixtures::figure1_graph())
        .with_labels(labels)
        .unwrap()
}

fn assert_same_snapshot(got: &Snapshot, want: &Snapshot, what: &str) {
    assert_eq!(got.graph, want.graph, "{what}: graph");
    assert_eq!(got.labels, want.labels, "{what}: labels");
    assert_eq!(
        got.index.edge_truss_slice(),
        want.index.edge_truss_slice(),
        "{what}: trussness"
    );
    assert_eq!(got.index.max_truss(), want.index.max_truss(), "{what}");
    for v in want.graph.vertices() {
        assert_eq!(
            got.index.sorted_row(v),
            want.index.sorted_row(v),
            "{what}: truss-sorted row of {v}"
        );
        assert_eq!(got.index.vertex_truss(v), want.index.vertex_truss(v));
    }
}

/// Every single-byte change (three masks at every position) and every
/// truncation of `raw` is a typed error, never a panic or a load.
fn assert_every_corruption_rejected(raw: &[u8], what: &str) {
    for pos in 0..raw.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut bad = raw.to_vec();
            bad[pos] ^= mask;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "{what}: xor {mask:#04x} at byte {pos} accepted"
            );
        }
    }
    for cut in 0..raw.len() {
        assert!(
            Snapshot::from_bytes(&raw[..cut]).is_err(),
            "{what}: truncation to {cut} bytes accepted"
        );
    }
}

#[test]
fn version1_file_loads_to_a_fresh_build() {
    assert_eq!(snapshot_version(FIGURE1_V1).unwrap(), 1);
    let loaded = Snapshot::from_bytes(FIGURE1_V1).unwrap();
    assert_same_snapshot(&loaded, &figure1_labeled(), "v1 file");
    assert_every_corruption_rejected(FIGURE1_V1, "v1 file");
    // A v1 body does not pass under the v2 checksum.
    let mut relabeled = FIGURE1_V1.to_vec();
    relabeled[4] = 2;
    assert!(matches!(
        Snapshot::from_bytes(&relabeled).unwrap_err(),
        GraphError::Corrupt(_)
    ));
}

#[test]
fn resaving_a_version1_file_writes_version2() {
    let resaved = Snapshot::from_bytes(FIGURE1_V1).unwrap().to_bytes();
    assert_eq!(snapshot_version(&resaved).unwrap(), 2);
    // Only the version field and the trailer differ.
    let body = 8..FIGURE1_V1.len() - 8;
    assert_eq!(resaved.len(), FIGURE1_V1.len());
    assert_eq!(resaved[body.clone()], FIGURE1_V1[body]);
    let reloaded = Snapshot::from_bytes(&resaved).unwrap();
    assert_same_snapshot(&reloaded, &figure1_labeled(), "re-saved v2");
    assert_every_corruption_rejected(&resaved, "re-saved v2");
}
