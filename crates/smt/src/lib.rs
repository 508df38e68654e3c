//! # smt — a from-scratch DPLL(T) solver for difference logic
//!
//! This crate is the stand-in for the Yices solver used in *Symbolically
//! Modeling Concurrent MCAPI Executions* (Fischer, Mercer, Rungta — PPoPP
//! 2011). Every constraint the paper's encoding emits lies in the Boolean
//! combination of **integer difference logic** (IDL) atoms of the form
//! `x - y <= c`:
//!
//! * happens-before orderings between event clocks (`clk(s) < clk(r)`),
//! * value equalities between sent and received data (`val(r) = val(s)`),
//! * identifier bindings for match pairs (`id(r) = k`), and
//! * the (negated) safety properties over program values.
//!
//! The solver is a classic DPLL(T) stack:
//!
//! * a hash-consed term DAG ([`term::TermPool`]) with `Bool`/`Int` sorts,
//! * a lowering pass that normalises comparisons to canonical difference
//!   atoms ([`atom`]),
//! * Tseitin CNF conversion ([`cnf`]),
//! * a Glucose-class CDCL SAT core with two-watched-literal propagation
//!   over a flat clause arena, first-UIP learning, EVSIDS activity,
//!   theory-aware saved phases, don't-care decision elision, LBD-driven
//!   clause-database reduction and EMA-based dynamic restarts with
//!   trail-growth blocking ([`sat`]),
//! * an incremental difference-logic theory solver using potential-function
//!   maintenance and negative-cycle detection ([`idl`]), and
//! * a facade ([`solver::SmtSolver`]) tying it together with model
//!   extraction, assumptions, and all-SAT enumeration via blocking clauses.
//!
//! ## Quick example
//!
//! ```
//! use smt::{SmtSolver, SatResult};
//!
//! let mut s = SmtSolver::new();
//! let x = s.int_var("x");
//! let y = s.int_var("y");
//! let z = s.int_var("z");
//! // x < y /\ y < z /\ z <= x + 1  is unsatisfiable over the integers
//! let a = s.lt(x, y);
//! let b = s.lt(y, z);
//! let xp1 = s.add_const(x, 1);
//! let c = s.le(z, xp1);
//! s.assert_term(a);
//! s.assert_term(b);
//! assert!(matches!(s.check(), SatResult::Sat));
//! s.assert_term(c);
//! assert!(matches!(s.check(), SatResult::Unsat));
//! ```

pub mod atom;
pub mod clause;
pub mod cnf;
pub mod error;
pub mod heap;
pub mod idl;
pub mod introspect;
pub mod lit;
pub mod model;
pub mod sat;
pub mod solver;
pub mod stats;
pub mod term;

pub use atom::{DiffAtom, IntVarId, ZERO_VAR};
pub use error::SmtError;
pub use introspect::Introspect;
pub use lit::{LBool, Lit, Var};
pub use model::Model;
pub use sat::SatSolver;
pub use solver::{SatResult, SmtSolver};
pub use stats::Stats;
pub use term::{CmpOp, Term, TermId, TermPool};
