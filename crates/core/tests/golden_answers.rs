//! Golden answers: every algorithm's output, pinned across versions.
//!
//! The property suites compare two code paths inside one build, so a
//! refactor that changes an answer on both paths at once would pass them.
//! This test hashes the answers of all four algorithms on seeded query
//! sets over the mini presets, under six configurations, and compares each
//! (configuration, algorithm) digest with the value recorded when the test
//! was written. A digest covers `k`, the vertices, the edges in order, the
//! query distance, the iteration count and the `G0` size of every answer,
//! and the `Display` text of every error.

use ctc_core::{Community, CommunityEngine, CtcConfig, SearchAlgo};
use ctc_gen::{mini_network, DegreeRank, QueryGenerator};
use ctc_graph::error::Result;
use ctc_graph::io::fnv1a64;
use ctc_graph::VertexId;

const ALGOS: [SearchAlgo; 4] = [
    SearchAlgo::Basic,
    SearchAlgo::BulkDelete,
    SearchAlgo::Local,
    SearchAlgo::TrussOnly,
];

/// The configurations under test, by name.
fn presets() -> [(&'static str, CtcConfig); 6] {
    [
        ("default", CtcConfig::default()),
        ("fixed_k(2)", CtcConfig::new().fixed_k(2)),
        ("fixed_k(4)", CtcConfig::new().fixed_k(4)),
        ("fixed_k(6)", CtcConfig::new().fixed_k(6)),
        ("max_iterations(3)", CtcConfig::new().max_iterations(3)),
        ("eta(50)", CtcConfig::new().eta(50)),
    ]
}

/// Expected digest per (preset, algorithm), in `presets()` × `ALGOS` order.
const EXPECTED: [[u64; 4]; 6] = [
    [
        0xebedb98c59dba194,
        0xfa92dfa98cbee0d7,
        0x2a843801173d56bb,
        0x76a28f5e748994c4,
    ],
    [
        0xb6030644df73d2c9,
        0x7df8afdecc522e7d,
        0xeea177be109bac2c,
        0x85bb31625ccb9847,
    ],
    [
        0xc2474658b155960f,
        0x9d560132d446ff2d,
        0xa3c3e4531cffb785,
        0x1855606537fbffc9,
    ],
    [
        0x9e18f2d6db712db6,
        0x177b0c2506e061f8,
        0x49c8a9302aeadd7c,
        0x6b9fbd39785cf5cf,
    ],
    [
        0x44a5c1e15c49d941,
        0x16d49b86ad49a36c,
        0x404a400de1be3ddc,
        0x76a28f5e748994c4,
    ],
    [
        0xebedb98c59dba194,
        0xfa92dfa98cbee0d7,
        0x1194a95b0dd230ab,
        0x76a28f5e748994c4,
    ],
];

/// Twelve seeded queries: |Q| from 1 to 4 in the top, middle and bottom
/// degree-rank buckets, members at most two hops apart.
fn queries(engine: &CommunityEngine, seed: u64) -> Vec<Vec<VertexId>> {
    let mut qg = QueryGenerator::new(engine.graph(), seed);
    let mut out = Vec::new();
    for size in 1..=4 {
        for bucket in [0, 2, 4] {
            if let Some(q) = qg.sample(size, DegreeRank::bucket(bucket), 2) {
                out.push(q);
            }
        }
    }
    out
}

/// Appends one answer's little-endian bytes to `buf`.
fn hash_answer(buf: &mut Vec<u8>, answer: &Result<Community>) {
    match answer {
        Ok(c) => {
            buf.extend_from_slice(&c.k.to_le_bytes());
            buf.extend_from_slice(&(c.vertices.len() as u64).to_le_bytes());
            for v in &c.vertices {
                buf.extend_from_slice(&v.0.to_le_bytes());
            }
            buf.extend_from_slice(&(c.edges.len() as u64).to_le_bytes());
            for (u, v) in &c.edges {
                buf.extend_from_slice(&u.0.to_le_bytes());
                buf.extend_from_slice(&v.0.to_le_bytes());
            }
            buf.extend_from_slice(&c.query_distance.to_le_bytes());
            buf.extend_from_slice(&(c.iterations as u64).to_le_bytes());
            buf.extend_from_slice(&(c.g0_size.0 as u64).to_le_bytes());
            buf.extend_from_slice(&(c.g0_size.1 as u64).to_le_bytes());
        }
        Err(e) => buf.extend_from_slice(e.to_string().as_bytes()),
    }
}

#[test]
fn answers_match_recorded_digests() {
    let nets: Vec<(CommunityEngine, Vec<Vec<VertexId>>)> = ["facebook", "dblp"]
        .iter()
        .map(|name| {
            let net = mini_network(name, 7).expect("known mini preset");
            let engine = CommunityEngine::build(net.graph);
            let qs = queries(&engine, 0x601d);
            assert_eq!(qs.len(), 12, "{name}: the generator found every query");
            (engine, qs)
        })
        .collect();

    let mut got = [[0u64; 4]; 6];
    for (p, (_, cfg)) in presets().into_iter().enumerate() {
        for (a, &algo) in ALGOS.iter().enumerate() {
            let mut buf = Vec::new();
            for (engine, qs) in &nets {
                let engine = engine.clone().with_config(cfg.clone());
                for q in qs {
                    hash_answer(&mut buf, &engine.search(q, algo));
                }
            }
            got[p][a] = fnv1a64(&buf);
        }
    }

    let mut mismatches = Vec::new();
    for (p, (name, _)) in presets().iter().enumerate() {
        for (a, algo) in ALGOS.iter().enumerate() {
            if got[p][a] != EXPECTED[p][a] {
                mismatches.push(format!(
                    "{name} / {algo:?}: got {:#018x}, expected {:#018x}",
                    got[p][a], EXPECTED[p][a]
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "answers changed:\n{}\nall digests: {got:#018x?}",
        mismatches.join("\n")
    );
}
