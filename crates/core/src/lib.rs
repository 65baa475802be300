//! # ctc-core — closest truss community search
//!
//! The primary contribution of *Approximate Closest Community Search in
//! Networks* (Huang, Lakshmanan, Yu, Cheng — VLDB 2015): given an undirected
//! graph `G` and query vertices `Q`, find a connected k-truss containing `Q`
//! with the largest `k` and (approximately) minimum diameter.
//!
//! Four algorithms, one pipeline ([`CtcSearcher::search_with`]):
//!
//! | method | paper | guarantee |
//! |---|---|---|
//! | [`CtcSearcher::basic`] | Alg. 1 | 2-approximation (Thm. 3) |
//! | [`CtcSearcher::bulk_delete`] | Alg. 4 | (2+ε)-approximation (Thm. 6) |
//! | [`CtcSearcher::local`] | Alg. 5 | heuristic, locally explored |
//! | [`CtcSearcher::truss_only`] | "Truss" baseline (§6) | `G0` of Alg. 2, no diameter minimization |
//!
//! ```
//! use ctc_core::{CtcSearcher, CtcConfig};
//! use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
//!
//! let g = figure1_graph();
//! let f = Figure1Ids::default();
//! let searcher = CtcSearcher::new(&g);
//! let community = searcher
//!     .basic(&[f.q1, f.q2, f.q3], &CtcConfig::default())
//!     .unwrap();
//! assert_eq!(community.k, 4);        // largest trussness covering Q
//! assert_eq!(community.diameter(), 3); // the optimum for Figure 1
//! ```
//!
//! For serving, [`CommunityEngine`] separates the offline index build from
//! the online queries: build (or [load](CommunityEngine::load) from a
//! `.ctci` snapshot) once, then answer singles and batches warm:
//!
//! ```
//! use ctc_core::{CommunityEngine, EngineQuery, SearchAlgo};
//! use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
//!
//! let engine = CommunityEngine::build(figure1_graph());
//! let f = Figure1Ids::default();
//! let batch = vec![EngineQuery::new(vec![f.q1, f.q2, f.q3]).algo(SearchAlgo::Basic)];
//! assert_eq!(engine.search_batch(&batch)[0].as_ref().unwrap().k, 4);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod decision;
pub mod engine;
pub mod local;
pub mod peel;
pub mod result;
pub mod searcher;
pub mod steiner;

pub use config::CtcConfig;
pub use decision::{decide_ctck, CtckAnswer};
pub use engine::{
    scratch_pool_stats, BatchReport, CommunityEngine, EngineQuery, EngineStats, EngineUpdate,
    ScratchPoolStats, SearchAlgo,
};
pub use peel::{
    peel, peel_reference, peel_rounds, peel_with, DeletePolicy, PeelOutcome, PeelScratch, PeelStats,
};
pub use result::{community_from_induced, Community, PhaseTimings};
pub use searcher::CtcSearcher;
pub use steiner::{steiner_tree, SteinerTree};
