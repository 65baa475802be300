//! # ctc — closest truss community search
//!
//! A from-scratch Rust reproduction of *Approximate Closest Community
//! Search in Networks* (Huang, Lakshmanan, Yu, Cheng — VLDB 2015): given
//! query vertices `Q` in an undirected graph, find a connected k-truss
//! containing `Q` with the largest `k` and approximately minimum diameter.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — CSR graph substrate, traversal, triangles, distances;
//! * [`truss`] — truss decomposition, truss index, FindG0, maintenance;
//! * [`gen`] — synthetic networks with ground truth + query workloads;
//! * [`core`] — the CTC algorithms (Basic / BulkDelete / LCTC);
//! * [`baselines`] — MDC, QDC and k-core comparison models;
//! * [`eval`] — F1 metrics, timing harness, table rendering;
//! * [`prob`] — probabilistic-graph extension ((k,γ)-truss, Monte-Carlo CTC);
//! * [`server`] — `ctc-serve`: the std-only concurrent HTTP query server
//!   (`ctc-cli serve`).
//!
//! ```
//! use ctc::prelude::*;
//!
//! let g = ctc::truss::fixtures::figure1_graph();
//! let f = ctc::truss::fixtures::Figure1Ids::default();
//! let searcher = CtcSearcher::new(&g);
//! let c = searcher.basic(&[f.q1, f.q2, f.q3], &CtcConfig::default()).unwrap();
//! assert_eq!((c.k, c.diameter()), (4, 3));
//! ```

pub use ctc_baselines as baselines;
pub use ctc_core as core;
pub use ctc_eval as eval;
pub use ctc_gen as gen;
pub use ctc_graph as graph;
pub use ctc_prob as prob;
pub use ctc_server as server;
pub use ctc_truss as truss;

/// The common imports for application code.
pub mod prelude {
    pub use ctc_baselines::{kcore_community, mdc, qdc, MdcConfig, QdcConfig};
    pub use ctc_core::{
        Community, CommunityEngine, CtcConfig, CtcSearcher, EngineQuery, SearchAlgo,
    };
    pub use ctc_eval::{f1_score, Table};
    pub use ctc_gen::{DegreeRank, QueryGenerator};
    pub use ctc_graph::{CsrGraph, GraphBuilder, Parallelism, VertexId};
    pub use ctc_server::{AppState, CtcServer, ServeConfig};
    pub use ctc_truss::{find_g0, Snapshot, TrussIndex};
}
