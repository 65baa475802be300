//! # ctc-baselines — comparison community-search models
//!
//! The systems the CTC paper evaluates against (Exp-3 / Fig. 12):
//!
//! * [`mdc::mdc`] — minimum-degree community with distance/size constraints
//!   (Sozio & Gionis, the paper's \[27\]);
//! * [`qdc::qdc`] — query-biased densest connected subgraph (Wu et al., \[32\]),
//!   reimplemented as RWR-weighted peeling (the module doc gives the
//!   objective);
//! * [`kcore_community`] — plain maximum-k-core community.
//!
//! All return the same [`ctc_core::Community`] type as the truss
//! algorithms, so the evaluation harness treats every model uniformly:
//!
//! ```
//! use ctc_baselines::{kcore_community, mdc, MdcConfig};
//! use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
//!
//! let g = figure1_graph();
//! let f = Figure1Ids::default();
//! let q = [f.q1, f.q2];
//! let by_degree = mdc(&g, &q, &MdcConfig::default()).unwrap();
//! let by_core = kcore_community(&g, &q).unwrap();
//! assert!(by_degree.vertices.contains(&f.q1));
//! assert!(by_core.vertices.contains(&f.q1));
//! ```

#![warn(missing_docs)]

pub mod kcore;
pub mod mdc;
pub mod peeling;
pub mod qdc;

pub use kcore::kcore_community;
pub use mdc::{mdc, MdcConfig};
pub use peeling::{core_decomposition, DegreeBuckets};
pub use qdc::{qdc, QdcConfig};
