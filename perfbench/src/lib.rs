//! # perfbench — the repository's wall-clock benchmark
//!
//! One harness process drives a closed-loop, single-client stream of
//! `driver::run_portfolio` requests over one of three workloads and
//! prints end-to-end metrics; a traced run replays the same requests
//! through each layer's public entry points and prints a per-layer
//! ledger. See `README.md` next to this crate for the workloads, the
//! metrics and how to run it.

pub mod ledger;
pub mod reference;
pub mod run;
pub mod stats;
pub mod workload;

pub use run::{run_traced, run_untraced, Setup};
pub use workload::Workload;
