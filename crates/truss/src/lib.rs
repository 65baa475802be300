//! # ctc-truss — the k-truss engine
//!
//! Truss decomposition, the paper's compact truss index, `FindG0`
//! (Algorithm 2), k-truss maintenance under deletion (Algorithm 3), k-truss
//! component extraction, and the triangle-connected (TCP) community model
//! that *Approximate Closest Community Search in Networks* (VLDB'15)
//! contrasts against.
//!
//! ```
//! use ctc_truss::{TrussIndex, find_g0, fixtures};
//! use ctc_graph::VertexId;
//!
//! let g = fixtures::figure1_graph();
//! let f = fixtures::Figure1Ids::default();
//! let idx = TrussIndex::build(&g);
//! let g0 = find_g0(&g, &idx, &[f.q1, f.q2, f.q3]).unwrap();
//! assert_eq!(g0.k, 4);           // the largest k covering the query
//! assert_eq!(g0.vertices.len(), 11); // the grey region of Figure 1
//! ```
//!
//! The decomposition behind the index — the offline cost of Table 3 — has
//! a multi-core variant ([`truss_decomposition_par`] /
//! [`TrussIndex::build_par`]) that peels same-trussness frontiers
//! concurrently and matches the serial path byte for byte:
//!
//! ```
//! use ctc_graph::Parallelism;
//! use ctc_truss::{fixtures, truss_decomposition, truss_decomposition_par};
//!
//! let g = fixtures::figure1_graph();
//! let serial = truss_decomposition(&g);
//! let parallel = truss_decomposition_par(&g, Parallelism::threads(4));
//! assert_eq!(serial.edge_truss, parallel.edge_truss);
//! ```
//!
//! The offline build can be paid once and persisted: a [`Snapshot`] writes
//! graph + index to a checksummed `.ctci` file that loads back without
//! re-running the decomposition (see [`snapshot`]):
//!
//! ```
//! use ctc_truss::{fixtures, Snapshot};
//!
//! let snap = Snapshot::build(fixtures::figure1_graph());
//! let loaded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
//! assert_eq!(loaded.index.edge_truss_slice(), snap.index.edge_truss_slice());
//! ```

#![warn(missing_docs)]

pub mod decompose;
pub mod dynamic;
pub mod find_g0;
pub mod fixtures;
pub mod index;
pub mod ktruss;
pub mod maintain;
pub mod recover;
pub mod snapshot;
pub mod tcp;
pub mod wal;

pub use decompose::{
    graph_trussness, is_k_truss, naive_truss_decomposition, truss_decomposition,
    truss_decomposition_par, truss_decomposition_with, DecomposeScratch, TrussDecomposition,
};
pub use dynamic::{DynamicIndex, UpdateReport};
pub use find_g0::{
    find_g0, find_g0_with, find_ktruss_containing, find_ktruss_containing_with, g0_subgraph,
    FindScratch, G0,
};
pub use index::TrussIndex;
pub use ktruss::{connected_ktruss_components, edge_list_vertices, ktruss_edges};
pub use maintain::{CascadeReport, TrussMaintainer};
pub use recover::{recover, recover_in, LogRecovery, RecoveryReport};
pub use snapshot::{snapshot_from_bytes, snapshot_to_bytes, LabelTable, Snapshot};
pub use tcp::{tcp_communities, tcp_feasible, TcpCommunity};
pub use wal::{
    delta_log_from_bytes, delta_log_to_bytes, DeltaLog, DeltaLogFile, DeltaOp, DeltaRecord,
};
