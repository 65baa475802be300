//! # ctc-bench — experiment binaries and criterion benches
//!
//! One binary per paper table/figure (`docs/PAPER_MAP.md`, "Figures and
//! tables", maps each artifact to its binary), all driven by the
//! `CTC_QUERIES` / `CTC_BUDGET_SECS` / `CTC_SEED` environment knobs.
//! `run_all` regenerates every result in one run.

pub mod common;
pub mod experiments;
pub mod serveload;
