//! # ctc-graph — graph substrate for closest truss community search
//!
//! The foundation layer of the CTC workspace (a reproduction of *Approximate
//! Closest Community Search in Networks*, VLDB 2015): an immutable CSR graph
//! with strongly-typed ids, a deletion overlay for the paper's peeling
//! algorithms, BFS/traversal machinery, triangle & support computation,
//! distances/diameters, induced subgraphs, personalized PageRank, summary
//! statistics, IO, and the [`Parallelism`] substrate behind the server's
//! worker pool and the PKT decomposition oracle.
//!
//! ## Quick tour
//!
//! ```
//! use ctc_graph::{graph_from_edges, VertexId, triangle_count, diameter_exact};
//!
//! // A 4-clique: every edge sits in 2 triangles.
//! let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
//! assert_eq!(g.num_edges(), 6);
//! assert_eq!(triangle_count(&g), 4);
//! assert_eq!(diameter_exact(&g), 1);
//! assert_eq!(g.neighbors(VertexId(0)), &[1, 2, 3]);
//! ```
//!
//! ## One triangle kernel
//!
//! Whole-graph support counts run one serial kernel, the degree-oriented
//! walk of [`Oriented`]; questions about one edge take a single sorted-row
//! merge. Both agree with the scan-every-vertex oracle:
//!
//! ```
//! use ctc_graph::{graph_from_edges, edge_supports, support_of, VertexId};
//! use ctc_graph::triangles::naive_edge_supports;
//!
//! let g = graph_from_edges(&[(0, 1), (0, 2), (1, 2), (2, 3)]);
//! assert_eq!(edge_supports(&g), naive_edge_supports(&g));
//! assert_eq!(support_of(&g, VertexId(0), VertexId(1)), Some(1));
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod distance;
pub mod distfield;
pub mod dynamic;
pub mod error;
pub mod fx;
pub mod heap;
pub mod ids;
pub mod io;
pub mod pagerank;
pub mod parallel;
pub mod stats;
pub mod storage;
pub mod subgraph;
pub mod traversal;
pub mod triangles;
pub mod union_find;

pub use builder::{graph_from_edges, graph_from_vertex_pairs, GraphBuilder};
pub use csr::CsrGraph;
pub use distance::{
    diameter_double_sweep, diameter_exact, eccentricity, graph_query_distance, query_distances,
};
pub use distfield::{DistanceField, EpochMarks};
pub use dynamic::{DynBuffers, DynGraph};
pub use error::{GraphError, Result};
pub use fx::{FxHashMap, FxHashSet};
pub use heap::{nested_heap_bytes, vec_heap_bytes};
pub use ids::{EdgeId, VertexId};
pub use pagerank::{personalized_pagerank, PageRankOptions};
pub use parallel::Parallelism;
pub use stats::{edge_density, graph_stats, vertices_by_degree_desc, GraphStats};
pub use storage::{real_env, write_durable, Fault, FaultEnv, RealEnv, StorageEnv};
pub use subgraph::{
    alive_subgraph, ascending_subgraph, edge_subgraph, edge_subgraph_with, induced_subgraph,
    subgraph_from_pairs, Subgraph, SubgraphScratch,
};
pub use traversal::{
    bfs_distances, connected_components, is_connected, query_connected, Adjacency, BfsScratch,
    FilteredGraph, INF,
};
pub use triangles::{
    common_neighbors, edge_supports, edge_supports_dyn, for_each_common_neighbor, support_of,
    triangle_count, Oriented,
};
pub use union_find::UnionFind;
