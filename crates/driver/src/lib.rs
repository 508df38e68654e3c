//! # driver — parallel portfolio verification
//!
//! The PPoPP'11 reproduction checks one `(program, delivery model,
//! match-pair generator)` configuration at a time. This crate turns that
//! single-shot checker into a **portfolio**: a batch of scenarios — a
//! workload-family parameter grid crossed with delivery models and
//! verification engines — fanned out across a thread pool,
//! with per-scenario budgets and a structured, serialisable report.
//!
//! The same idea drives neighbouring tools: hybrid MPI verifiers run
//! symbolic and explicit engines side by side, and schedule-sweeping
//! checkers run many configurations per program. Here every portfolio can
//! include the explicit-state ground truth next to both symbolic
//! match-pair generators, so cross-validation is a batch property rather
//! than a separate test suite.
//!
//! ## Pipeline
//!
//! 1. [`workloads::grid`] enumerates program points ([`FamilySpec`]).
//! 2. [`scenario::cross`] crosses them with
//!    [`mcapi::types::DeliveryModel`]s and [`scenario::Engine`]s.
//! 3. [`runner::run_portfolio`] executes the batch on a
//!    [`pool::WorkerPool`] in either [`runner::Mode::Race`]
//!    (cancel on first violation) or [`runner::Mode::Sweep`]
//!    (run everything). The pool's work item is one grid point
//!    ([`runner::run_batch`]): its program is built and triaged once and
//!    its scenarios share one session pool (one-shot without session reuse).
//! 4. [`runner::run_engine`] is the one engine dispatch and
//!    [`runner::EngineRun::outcome`] the one verdict fold, for the grid and
//!    the CLI's single-program commands (`check`, `explore`, `corpus-check`).
//! 5. The [`report::PortfolioReport`] aggregates verdicts, refinement
//!    counts and solver statistics, as JSON or a table.
//!
//! ## Example
//!
//! ```
//! use driver::prelude::*;
//! use mcapi::types::DeliveryModel;
//!
//! // Small grid: every family at scale 1, all deliveries, all engines.
//! let scenarios = cross(
//!     &workloads::grid::default_grid(1),
//!     &DeliveryModel::ALL,
//!     &Engine::ALL,
//! );
//! assert!(scenarios.len() >= 20);
//!
//! let cfg = PortfolioConfig { threads: 4, mode: Mode::Sweep, ..Default::default() };
//! let report = run_portfolio(&scenarios, &cfg);
//! assert_eq!(report.outcomes.len(), scenarios.len());
//! // The assertion families contain reachable violations.
//! assert!(report.found_violation());
//! ```

#![warn(missing_docs)]

pub mod pool;
pub mod report;
pub mod runner;
pub mod scenario;

pub use report::{PortfolioReport, ScenarioEvent, ScenarioOutcome, VerdictKind};
pub use runner::{
    run_batch, run_engine, run_portfolio, run_portfolio_traced, EngineRun, Mode, PortfolioConfig,
};
pub use scenario::{
    batch_by_grid_point, corpus_files, corpus_scenarios, corpus_specs, cross, Engine, GridBatch,
    ProgramSpec, Scenario,
};
pub use workloads::grid::FamilySpec;

/// Everything needed to assemble and run a portfolio.
pub mod prelude {
    pub use crate::pool::{CancelToken, WorkerPool};
    pub use crate::report::{PortfolioReport, ScenarioOutcome, VerdictKind};
    pub use crate::runner::{
        run_batch, run_engine, run_portfolio, run_portfolio_traced, EngineRun, Mode,
        PortfolioConfig,
    };
    pub use crate::scenario::{
        batch_by_grid_point, corpus_files, corpus_scenarios, corpus_specs, cross, Engine,
        GridBatch, ProgramSpec, Scenario,
    };
    pub use workloads::grid::{default_grid, family_grid, FamilySpec, FAMILIES};
}
