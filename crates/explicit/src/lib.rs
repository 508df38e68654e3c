//! # explicit — the explicit-state baseline for the PPoPP'11 comparison
//!
//! The paper positions its SMT encoding against two prior tools:
//!
//! * **MCC** (Sharma et al., FMCAD'09), an explicit-state model checker for
//!   MCAPI that explores thread interleavings but delivers messages
//!   instantly in global send order — it "is not able to consider
//!   non-deterministic delays in the communication network", so for the
//!   paper's Fig. 1 it only ever finds the pairing of Fig. 4a;
//! * **Inspect**-style stateless search with partial-order reduction
//!   (Flanagan & Godefroid's DPOR line of work), the baseline Fusion was
//!   compared against.
//!
//! This crate ships one explorer, which serves as the MCC stand-in and as
//! the ground truth:
//!
//! * [`explorer::GraphExplorer`] — breadth-first state-graph search,
//!   parameterised by [`mcapi::types::DeliveryModel`]. With
//!   `ZeroDelay` it *is* the MCC delivery model ([`mcc`]); with `Unordered`
//!   it enumerates every behaviour the paper's encoding models
//!   (the small-scope ground truth used to validate the symbolic crate).
//!   Visited states live in the exact interned store of
//!   [`mcapi::store`], which the directed search and the precise
//!   match-pair DFS share: per-thread intern tables and one for the
//!   in-flight messages, and one fixed-width row of `u32` ids per state
//!   (thread entries, in-flight, `next_send_seq`, violation, canonical
//!   stamp). Hashes only pick probe slots and every hit is confirmed by
//!   full comparison — a collision that skipped a state could yield a
//!   wrong SAFE, so there is no bitstate hashing or hash compaction.
//!
//! The Inspect-style stateless search with sleep sets (Godefroid) is kept
//! in this crate's test tree (`tests/common/sleepset.rs`) as an
//! independent reference the graph search is compared against.

pub mod explorer;
pub mod mcc;
pub mod stats;
mod store;

pub use explorer::{ExploreConfig, GraphExplorer};
pub use mcc::{ground_truth_check, mcc_check};
pub use stats::{ExploreResult, Matching, RecvKey};
