//! # ctc-eval — evaluation harness
//!
//! Metrics (F1 vs ground truth, density, free-rider percentages), a timed
//! workload runner with per-workload budgets that runs its queries in
//! order on the caller's thread, and paper-style table rendering used by
//! every `exp_*` binary.
//!
//! ```
//! use ctc_eval::{f1_score, Table};
//! use ctc_graph::VertexId;
//!
//! let s = f1_score(&[VertexId(0), VertexId(1)], &[VertexId(1)]);
//! let mut t = Table::new(["metric", "value"]);
//! t.row(["precision", &format!("{:.2}", s.precision)]);
//! t.row(["recall", &format!("{:.2}", s.recall)]);
//! assert!(t.render().contains("precision"));
//! ```

#![warn(missing_docs)]

pub mod f1;
pub mod harness;
pub mod plot;
pub mod report;
pub mod tables;

pub use f1::{f1_score, mean_std, F1Score};
pub use harness::{run_workload, RunOutcome, WorkloadStats};
pub use plot::BarChart;
pub use report::{Record, Report};
pub use tables::{fmt_f, fmt_mb, fmt_secs, Table};
