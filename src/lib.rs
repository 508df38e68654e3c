//! # mcapi-smc — Symbolically Modeling Concurrent MCAPI Executions
//!
//! A from-scratch reproduction of Fischer, Mercer & Rungta's PPoPP 2011
//! paper, including every substrate it depends on:
//!
//! * [`smt`] — a DPLL(T) SMT solver for integer difference logic (the
//!   Yices stand-in);
//! * [`mcapi`] — an executable operational semantics of the MCAPI
//!   connectionless-message subset with a delay-non-deterministic network
//!   and trace capture;
//! * [`symbolic`] — the paper's contribution: trace → match pairs →
//!   `POrder ∧ PMatchPairs ∧ PUnique ∧ ¬PProp ∧ PEvents` → witness, plus
//!   the branch-complete path-exploration layer (`symbolic::paths`);
//! * [`explicit`] — the explicit-state baseline: one graph explorer that
//!   serves as the MCC stand-in and as the ground truth;
//! * [`workloads`] — parameterised program families for tests and benches.
//!
//! See the `examples/` directory for runnable walk-throughs, starting with
//! `cargo run --example quickstart`.

pub use explicit;
pub use mcapi;
pub use smt;
pub use symbolic;
pub use workloads;
