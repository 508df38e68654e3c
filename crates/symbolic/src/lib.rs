//! # symbolic — the PPoPP'11 technique
//!
//! *Symbolically Modeling Concurrent MCAPI Executions* (Fischer, Mercer,
//! Rungta — PPoPP 2011) verifies MCAPI programs by taking **one** concrete
//! execution trace and building an SMT problem whose models are **all**
//! concurrent executions that follow the same sequence of conditional
//! branch outcomes — including executions only reachable with
//! non-deterministic message-transit delays, which prior tools (MCC,
//! Elwakil & Yang) ignore. The formula is the paper's conjunction
//!
//! ```text
//! P = POrder /\ PMatchPairs /\ PUnique /\ !PProp /\ PEvents
//! ```
//!
//! * `POrder` — per-thread program order over fresh clock variables, plus
//!   the delivery-model ordering axioms (none for the paper's arbitrary-
//!   delay network; extra constraints reproduce MCAPI pairwise FIFO or the
//!   MCC/zero-delay model for the ablations).
//! * `PMatchPairs` — Fig. 2 of the paper: for every receive, a disjunction
//!   over its candidate sends of `match(recv, send)`, where `match` asserts
//!   the send happens before the receive (before the *wait* for
//!   non-blocking receives), the received value equals the sent value, and
//!   the receive's identifier variable equals the send's identifier.
//! * `PUnique` — Fig. 3: pairwise-distinct receive identifiers.
//! * `PEvents` — local data flow in SSA form and the recorded branch
//!   outcomes.
//! * `PProp` — the program's assertions; negated, so SAT = violation and
//!   the model is the erroneous execution.
//!
//! Candidate sends come from [`matchpairs`]: the paper's *precise*
//! depth-first abstract execution of the trace, or the *over-approximation*
//! it proposes as future work (destination-endpoint filtering) — which
//! [`checker`] makes sound with a validate-by-replay refinement loop.
//!
//! The engine above answers for **one** control-flow path (the trace's
//! branch outcomes, pinned by `PEvents`). The [`paths`] module closes
//! that scope: it enumerates every feasible branch-outcome vector,
//! realises each under a directed scheduler, and checks the resulting
//! traces on shared incremental encodings — a whole-program verdict.
//!
//! Both engines run the same loop, [`checker::check_source`]: it pulls
//! traces from a [`checker::TraceSource`] ([`checker::SingleTrace`] or
//! [`paths::PathEnumerator`]), fetches each trace's encoding from a
//! [`session::SessionPool`] (shared, or fresh per trace for
//! [`session::SessionPool::one_shot`]), and folds the per-trace reports
//! into one verdict.
//!
//! ## End-to-end example
//!
//! ```
//! use mcapi::builder::ProgramBuilder;
//! use mcapi::expr::{Cond, Expr};
//! use mcapi::types::{CmpOp, DeliveryModel};
//! use symbolic::checker::{check_program, CheckConfig, Verdict};
//!
//! // Two producers race into one consumer; the assertion claims producer 1
//! // always wins — refuted by some interleaving.
//! let mut b = ProgramBuilder::new("race");
//! let t0 = b.thread("consumer");
//! let t1 = b.thread("p1");
//! let t2 = b.thread("p2");
//! let a = b.recv(t0, 0);
//! b.assert_cond(t0, Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)), "p1 wins");
//! b.send_const(t1, t0, 0, 1);
//! b.send_const(t2, t0, 0, 2);
//! let program = b.build().unwrap();
//!
//! let report = check_program(&program, &CheckConfig::default());
//! assert!(matches!(report.verdict, Verdict::Violation(_)));
//! ```

pub mod checker;
pub mod encode;
pub mod matchpairs;
pub mod paths;
pub mod session;
pub mod witness;

pub use checker::{
    check_program, check_source, check_trace, enumerate_matchings, CheckConfig, CheckReport,
    MatchGen, PhaseTimings, SingleTrace, TraceSource, Verdict,
};
pub use encode::{encode, EncodeOptions, EncodeStats, Encoding};
pub use matchpairs::{overapprox_match_pairs, precise_match_pairs, MatchPairs};
pub use paths::{check_program_paths, PathEnumerator, PathsConfig};
pub use session::{CheckSession, SessionPool};
pub use witness::{replay_witness, ReplayVerdict, Witness};
