//! # mcapi — executable semantics of the MCAPI connectionless-message subset
//!
//! The Multicore Communications API (MCAPI) is the Multicore Association's
//! message-passing interface for heterogeneous embedded systems. The PPoPP'11
//! paper *Symbolically Modeling Concurrent MCAPI Executions* verifies
//! programs that use the **connectionless message** portion of the API:
//! endpoints (`node`,`port` pairs), blocking `msg_send`/`msg_recv`,
//! non-blocking `msg_send_i`/`msg_recv_i`, and `wait`.
//!
//! This crate is the runtime substrate for that paper: an executable
//! small-step operational semantics (the role PLT Redex plays for the
//! authors) with
//!
//! * a program DSL ([`program::Program`]) compiled to a flat instruction
//!   form, including conditionals whose outcomes are recorded in traces,
//! * a simulated transit network whose delivery discipline is an explicit
//!   parameter ([`types::DeliveryModel`]): `Unordered` (the paper's
//!   arbitrary-delay network), `PairwiseFifo` (MCAPI's per-endpoint-pair
//!   ordering guarantee), and `ZeroDelay` (the instant-delivery model that
//!   MCC and Elwakil&Yang implicitly assume — the model the paper shows is
//!   incomplete),
//! * a scheduler interface with seeded-random, scripted, and deterministic
//!   implementations, and
//! * trace capture ([`trace::Trace`]): per-thread program order, branch
//!   outcomes, send/receive/wait events and assertion results — exactly the
//!   input the paper's symbolic encoding consumes.
//!
//! ## Quick example
//!
//! ```
//! use mcapi::builder::ProgramBuilder;
//! use mcapi::runtime::execute_random;
//! use mcapi::types::DeliveryModel;
//!
//! // Two producers race to one consumer (the shape of the paper's Fig. 1).
//! let mut b = ProgramBuilder::new("race");
//! let t0 = b.thread("consumer");
//! let t1 = b.thread("p1");
//! let t2 = b.thread("p2");
//! let a = b.recv(t0, 0);          // recv(A)
//! let bb = b.recv(t0, 0);         // recv(B)
//! let _ = (a, bb);
//! b.send_const(t1, t0, 0, 1);     // send(X=1) : t0
//! b.send_const(t2, t0, 0, 2);     // send(Y=2) : t0
//! let program = b.build().unwrap();
//! let outcome = execute_random(&program, DeliveryModel::Unordered, 42);
//! assert!(outcome.trace.is_complete());
//! ```

pub mod builder;
pub mod canon;
pub mod error;
pub mod expr;
pub mod program;
pub mod runtime;
pub mod sched;
pub mod state;
pub mod store;
pub mod trace;
pub mod types;

pub use builder::ProgramBuilder;
pub use canon::{independent, summarize, ActionSummary, CanonTracker};
pub use error::McapiError;
pub use expr::{Cond, Expr, MAX_CONST_MAGNITUDE};
pub use program::{Instr, Op, Program, Thread, UnrollConfig};
pub use runtime::{execute, execute_random, ExecOutcome};
pub use sched::{RandomScheduler, Scheduler, ScriptScheduler};
pub use state::{Action, SysState};
pub use trace::{Event, EventKind, Trace, Violation};
pub use types::{
    CmpOp, DeliveryModel, EndpointAddr, Matching, MsgId, Port, RecvKey, ReqId, ThreadId, Value,
    VarId,
};
