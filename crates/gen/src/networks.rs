//! Preset networks standing in for the paper's six SNAP datasets (Table 2).
//!
//! The originals (Facebook … Orkut, up to 117M edges) are proprietary-scale
//! downloads; each preset is a seeded synthetic analogue matched on the
//! *structural knobs the algorithms care about*: community structure (for
//! F1), degree skew (for peeling cost), density (for truss levels), at
//! laptop scale. Scale factors are recorded per preset.

use crate::lfr::{lfr_like, LfrConfig};
use crate::planted::{planted_partition, GroundTruthGraph, PlantedConfig};

/// A named preset network with ground truth.
pub struct Network {
    /// Preset name (lower-case, matches the paper's dataset naming).
    pub name: &'static str,
    /// Paper-reported size of the original, for the Table 2 comparison.
    pub paper_size: (usize, usize),
    /// Scale note shown in reports.
    pub scale_note: &'static str,
    /// The generated graph + ground-truth communities.
    pub data: GroundTruthGraph,
}

/// Facebook analogue: 4K vertices / ~88K edges (the paper's Facebook is the
/// one network small enough to reproduce at 1:1 node count). Dense social
/// circles → planted partition with large, tight communities.
pub fn facebook_like() -> Network {
    let data = planted_partition(&PlantedConfig {
        community_sizes: vec![100; 40],
        background_vertices: 0,
        p_in: 0.42,
        noise_edges_per_vertex: 1.2,
        seed: 0xFACE,
    });
    Network {
        name: "facebook",
        paper_size: (4_000, 88_000),
        scale_note: "1:1 nodes, ~1:1 edges",
        data,
    }
}

/// Amazon analogue: co-purchase network — low degree, many small
/// communities. Scaled 1:10 from 335K/926K.
pub fn amazon_like() -> Network {
    let data = lfr_like(&LfrConfig {
        n: 33_000,
        avg_degree: 5.5,
        max_degree: 60,
        degree_exponent: 2.8,
        min_community: 8,
        max_community: 40,
        community_exponent: 1.6,
        mu: 0.10,
        max_event: 8,
        seed: 0xA11A,
    });
    Network {
        name: "amazon",
        paper_size: (335_000, 926_000),
        scale_note: "1:10 scale",
        data,
    }
}

/// DBLP analogue: co-authorship — cliquish communities, heavy-tail degrees.
/// Scaled 1:10 from 317K/1M.
pub fn dblp_like() -> Network {
    let data = lfr_like(&LfrConfig {
        n: 32_000,
        avg_degree: 6.6,
        max_degree: 120,
        degree_exponent: 2.5,
        min_community: 10,
        max_community: 60,
        community_exponent: 1.5,
        mu: 0.15,
        max_event: 16,
        seed: 0xDB19,
    });
    Network {
        name: "dblp",
        paper_size: (317_000, 1_000_000),
        scale_note: "1:10 scale",
        data,
    }
}

/// YouTube analogue: sparse, very skewed degrees, weak community signal.
/// Scaled ~1:22 from 1.1M/3M.
pub fn youtube_like() -> Network {
    let data = lfr_like(&LfrConfig {
        n: 50_000,
        avg_degree: 5.4,
        max_degree: 700,
        degree_exponent: 2.2,
        min_community: 10,
        max_community: 100,
        community_exponent: 1.6,
        mu: 0.35,
        max_event: 10,
        seed: 0x10BE,
    });
    Network {
        name: "youtube",
        paper_size: (1_100_000, 3_000_000),
        scale_note: "1:22 scale",
        data,
    }
}

/// LiveJournal analogue: larger, denser, strong communities. Scaled ~1:50
/// from 4M/35M.
pub fn livejournal_like() -> Network {
    let data = lfr_like(&LfrConfig {
        n: 80_000,
        avg_degree: 14.0,
        max_degree: 400,
        degree_exponent: 2.4,
        min_community: 15,
        max_community: 120,
        community_exponent: 1.5,
        mu: 0.20,
        max_event: 12,
        seed: 0x117E,
    });
    Network {
        name: "livejournal",
        paper_size: (4_000_000, 35_000_000),
        scale_note: "1:50 scale",
        data,
    }
}

/// Orkut analogue: dense, large overlapping-ish communities, high mixing —
/// the network where all methods' F1 drops in the paper. Scaled ~1:50 from
/// 3.1M/117M.
pub fn orkut_like() -> Network {
    let data = lfr_like(&LfrConfig {
        n: 62_000,
        avg_degree: 20.0,
        max_degree: 500,
        degree_exponent: 2.3,
        min_community: 30,
        max_community: 300,
        community_exponent: 1.4,
        mu: 0.45,
        max_event: 18,
        seed: 0x0BC7,
    });
    Network {
        name: "orkut",
        paper_size: (3_100_000, 117_000_000),
        scale_note: "1:50 scale",
        data,
    }
}

/// All six presets in the paper's Table 2 order.
pub fn all_networks() -> Vec<Network> {
    vec![
        facebook_like(),
        amazon_like(),
        dblp_like(),
        youtube_like(),
        livejournal_like(),
        orkut_like(),
    ]
}

/// The five ground-truth evaluation networks of Exp-3 (all but Facebook).
pub fn ground_truth_networks() -> Vec<Network> {
    vec![
        amazon_like(),
        dblp_like(),
        youtube_like(),
        livejournal_like(),
        orkut_like(),
    ]
}

/// A preset by name, if known.
///
/// ```
/// use ctc_gen::network_by_name;
///
/// let net = network_by_name("facebook").unwrap();
/// assert_eq!(net.name, "facebook");
/// assert!(net.data.graph.num_edges() > 0);
/// assert!(!net.data.communities.is_empty());
/// assert!(network_by_name("unknown").is_none());
/// ```
pub fn network_by_name(name: &str) -> Option<Network> {
    match name {
        "facebook" => Some(facebook_like()),
        "amazon" => Some(amazon_like()),
        "dblp" => Some(dblp_like()),
        "youtube" => Some(youtube_like()),
        "livejournal" => Some(livejournal_like()),
        "orkut" => Some(orkut_like()),
        _ => None,
    }
}

/// Small-scale variants for tests and quick smoke runs: same structural
/// recipe at ~1/20 the preset size.
pub fn mini_network(name: &str, seed: u64) -> Option<GroundTruthGraph> {
    match name {
        "facebook" => Some(planted_partition(&PlantedConfig {
            community_sizes: vec![40; 10],
            background_vertices: 0,
            p_in: 0.42,
            noise_edges_per_vertex: 1.2,
            seed,
        })),
        "dblp" => Some(lfr_like(&LfrConfig {
            n: 1_600,
            avg_degree: 6.6,
            max_degree: 60,
            degree_exponent: 2.5,
            min_community: 10,
            max_community: 60,
            community_exponent: 1.5,
            mu: 0.15,
            max_event: 12,
            seed,
        })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facebook_preset_matches_paper_scale() {
        let net = facebook_like();
        let n = net.data.graph.num_vertices();
        let m = net.data.graph.num_edges();
        assert_eq!(n, 4_000);
        assert!((70_000..110_000).contains(&m), "m = {m}");
        assert!(ctc_graph::is_connected(&net.data.graph));
    }

    #[test]
    fn mini_presets_exist_and_are_connected() {
        for name in ["facebook", "dblp"] {
            let g = mini_network(name, 1).unwrap();
            assert!(g.graph.num_vertices() > 100);
            assert!(
                ctc_graph::is_connected(&g.graph),
                "{name} mini disconnected"
            );
        }
    }

    #[test]
    fn name_lookup_roundtrip() {
        assert!(network_by_name("dblp").is_some());
        assert!(network_by_name("nope").is_none());
    }
}
