//! Execution traces: the input artifact of the paper's technique.
//!
//! A trace records, per thread in program order, every MCAPI call issued,
//! every branch outcome, and every assertion result of one concrete
//! execution. The symbolic encoder re-interprets this skeleton — keeping
//! the branch outcomes fixed, as the paper specifies — while freeing the
//! send/receive matching.

use crate::state::Action;
use crate::types::{DeliveryModel, EndpointAddr, MsgId, Port, ReqId, ThreadId, Value, VarId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One observed step of one thread.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Event {
    pub thread: ThreadId,
    /// Program counter of the instruction that produced this event.
    pub pc: usize,
    pub kind: EventKind,
}

/// What happened.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum EventKind {
    /// A (blocking or non-blocking) send was issued.
    Send {
        msg: MsgId,
        to: EndpointAddr,
        value: Value,
    },
    /// A blocking receive completed.
    Recv {
        port: Port,
        var: VarId,
        value: Value,
        msg: MsgId,
    },
    /// A non-blocking receive was posted.
    RecvPost { port: Port, var: VarId, req: ReqId },
    /// A wait bound its pending receive to a message.
    WaitRecv {
        req: ReqId,
        port: Port,
        var: VarId,
        value: Value,
        msg: MsgId,
    },
    /// A wait on an already-complete (or never-issued) request.
    WaitNoop { req: ReqId },
    /// Local assignment.
    Assign { var: VarId, value: Value },
    /// A conditional evaluated; `taken` is the then-direction.
    Branch { taken: bool },
    /// Assertion held.
    AssertOk,
    /// Assertion failed (safety violation).
    AssertFail { message: String },
}

/// One communication operation with run-specific detail (payload values,
/// matched message ids) erased — see [`Trace::comm_signature`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CommSig {
    /// A send: identity and destination are structural, the value is not.
    Send {
        /// Program counter of the send instruction.
        pc: usize,
        /// Canonical message identity (source thread, send index).
        msg: MsgId,
        /// Destination endpoint.
        to: EndpointAddr,
    },
    /// A blocking receive (matched message erased).
    Recv {
        /// Program counter of the receive instruction.
        pc: usize,
        /// Receiving port.
        port: Port,
        /// Destination variable slot.
        var: VarId,
    },
    /// A posted non-blocking receive.
    RecvPost {
        /// Program counter of the `recv_i` instruction.
        pc: usize,
        /// Receiving port.
        port: Port,
        /// Destination variable slot.
        var: VarId,
        /// Request handle.
        req: ReqId,
    },
    /// A wait that bound its receive (matched message erased).
    WaitRecv {
        /// Program counter of the wait instruction.
        pc: usize,
        /// Request handle.
        req: ReqId,
        /// Receiving port.
        port: Port,
        /// Destination variable slot.
        var: VarId,
    },
    /// A wait on an already-complete request.
    WaitNoop {
        /// Program counter of the wait instruction.
        pc: usize,
        /// Request handle.
        req: ReqId,
    },
}

/// A safety violation: which assertion failed where.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Violation {
    pub thread: ThreadId,
    pub pc: usize,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "assertion failed at thread {} pc {}: {}",
            self.thread, self.pc, self.message
        )
    }
}

/// A recorded execution (empty by default).
#[derive(Clone, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Trace {
    pub program_name: String,
    pub delivery: DeliveryModel,
    pub events: Vec<Event>,
    /// Every thread ran to completion.
    pub complete: bool,
    /// Execution stopped with runnable-but-blocked threads.
    pub deadlock: bool,
    pub violation: Option<Violation>,
}

impl Trace {
    /// Did every thread terminate normally?
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Events of one thread, in program order.
    pub fn thread_events(&self, thread: ThreadId) -> Vec<&Event> {
        self.events.iter().filter(|e| e.thread == thread).collect()
    }

    /// Number of threads that produced at least one event.
    pub fn num_active_threads(&self) -> usize {
        let mut ts: Vec<ThreadId> = self.events.iter().map(|e| e.thread).collect();
        ts.sort_unstable();
        ts.dedup();
        ts.len()
    }

    /// All send events in the trace.
    pub fn sends(&self) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send { .. }))
            .collect()
    }

    /// All receive-completion events (blocking recv or binding wait).
    pub fn receives(&self) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Recv { .. } | EventKind::WaitRecv { .. }))
            .collect()
    }

    /// The matching recorded in this concrete execution:
    /// (receive event index, send message id) pairs in event order.
    pub fn concrete_matching(&self) -> Vec<(usize, MsgId)> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.kind {
                EventKind::Recv { msg, .. } | EventKind::WaitRecv { msg, .. } => Some((i, msg)),
                _ => None,
            })
            .collect()
    }

    /// Branch outcomes of every thread in program order, sized to
    /// `num_threads` — the [`crate::sched::BranchPlan`] this trace realises.
    pub fn branch_plan(&self, num_threads: usize) -> crate::sched::BranchPlan {
        crate::sched::BranchPlan {
            outcomes: (0..num_threads).map(|t| self.branch_outcomes(t)).collect(),
        }
    }

    /// The communication skeleton of this trace: per thread, the sequence
    /// of send/receive/wait events with payload values and concrete
    /// matchings erased. Two traces with equal signatures issue the same
    /// communication operations from the same program counters — the
    /// precondition for sibling control-flow paths to share one symbolic
    /// core encoding (only branch pins, local data flow and assertion
    /// terms differ).
    pub fn comm_signature(&self, num_threads: usize) -> Vec<Vec<CommSig>> {
        let mut sig = vec![Vec::new(); num_threads];
        for e in &self.events {
            let s = match &e.kind {
                EventKind::Send { msg, to, .. } => CommSig::Send {
                    pc: e.pc,
                    msg: *msg,
                    to: *to,
                },
                EventKind::Recv { port, var, .. } => CommSig::Recv {
                    pc: e.pc,
                    port: *port,
                    var: *var,
                },
                EventKind::RecvPost { port, var, req } => CommSig::RecvPost {
                    pc: e.pc,
                    port: *port,
                    var: *var,
                    req: *req,
                },
                EventKind::WaitRecv { req, port, var, .. } => CommSig::WaitRecv {
                    pc: e.pc,
                    req: *req,
                    port: *port,
                    var: *var,
                },
                EventKind::WaitNoop { req } => CommSig::WaitNoop {
                    pc: e.pc,
                    req: *req,
                },
                EventKind::Assign { .. }
                | EventKind::Branch { .. }
                | EventKind::AssertOk
                | EventKind::AssertFail { .. } => continue,
            };
            if let Some(v) = sig.get_mut(e.thread) {
                v.push(s);
            }
        }
        sig
    }

    /// Branch outcomes per thread in program order — the part of the trace
    /// the symbolic model is required to preserve.
    pub fn branch_outcomes(&self, thread: ThreadId) -> Vec<bool> {
        self.events
            .iter()
            .filter(|e| e.thread == thread)
            .filter_map(|e| match e.kind {
                EventKind::Branch { taken } => Some(taken),
                _ => None,
            })
            .collect()
    }

    /// Serialise to JSON (for the trace-debugger example binary).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialisation cannot fail")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Trace, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Human-readable dump (one event per line, grouped by global order).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, e) in self.events.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i:4}  t{} pc{:<3} {}",
                e.thread,
                e.pc,
                render_kind(&e.kind)
            );
        }
        if let Some(v) = &self.violation {
            let _ = writeln!(out, "      !! {v}");
        }
        if self.deadlock {
            let _ = writeln!(out, "      !! deadlock");
        }
        out
    }
}

fn render_kind(k: &EventKind) -> String {
    match k {
        EventKind::Send { msg, to, value } => format!("send {msg:?} -> {to} (value {value})"),
        EventKind::Recv {
            port,
            var,
            value,
            msg,
        } => {
            format!("recv port {port} {var:?} = {value} (from {msg:?})")
        }
        EventKind::RecvPost { port, var, req } => {
            format!("recv_i port {port} -> {var:?} ({req:?})")
        }
        EventKind::WaitRecv {
            req,
            var,
            value,
            msg,
            ..
        } => {
            format!("wait {req:?}: {var:?} = {value} (from {msg:?})")
        }
        EventKind::WaitNoop { req } => format!("wait {req:?}: already complete"),
        EventKind::Assign { var, value } => format!("{var:?} := {value}"),
        EventKind::Branch { taken } => format!("branch taken={taken}"),
        EventKind::AssertOk => "assert ok".into(),
        EventKind::AssertFail { message } => format!("assert FAILED: {message}"),
    }
}

/// Trace plus the schedule that produced it — enough to replay exactly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecordedRun {
    pub trace: Trace,
    pub actions: Vec<Action>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            program_name: "p".into(),
            delivery: DeliveryModel::Unordered,
            events: vec![
                Event {
                    thread: 1,
                    pc: 0,
                    kind: EventKind::Send {
                        msg: MsgId::new(1, 0),
                        to: EndpointAddr::new(0, 0),
                        value: 7,
                    },
                },
                Event {
                    thread: 0,
                    pc: 0,
                    kind: EventKind::Branch { taken: true },
                },
                Event {
                    thread: 0,
                    pc: 1,
                    kind: EventKind::Recv {
                        port: 0,
                        var: VarId(0),
                        value: 7,
                        msg: MsgId::new(1, 0),
                    },
                },
            ],
            complete: true,
            deadlock: false,
            violation: None,
        }
    }

    #[test]
    fn thread_events_preserve_order() {
        let t = sample_trace();
        let e0 = t.thread_events(0);
        assert_eq!(e0.len(), 2);
        assert!(matches!(e0[0].kind, EventKind::Branch { .. }));
        assert!(matches!(e0[1].kind, EventKind::Recv { .. }));
    }

    #[test]
    fn sends_and_receives_filters() {
        let t = sample_trace();
        assert_eq!(t.sends().len(), 1);
        assert_eq!(t.receives().len(), 1);
        assert_eq!(t.num_active_threads(), 2);
    }

    #[test]
    fn concrete_matching_extracts_pairs() {
        let t = sample_trace();
        let m = t.concrete_matching();
        assert_eq!(m, vec![(2, MsgId::new(1, 0))]);
    }

    #[test]
    fn branch_outcomes_per_thread() {
        let t = sample_trace();
        assert_eq!(t.branch_outcomes(0), vec![true]);
        assert!(t.branch_outcomes(1).is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let t = sample_trace();
        let j = t.to_json();
        let back = Trace::from_json(&j).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn render_mentions_all_events() {
        let t = sample_trace();
        let r = t.render();
        assert!(r.contains("send"));
        assert!(r.contains("recv"));
        assert!(r.contains("branch"));
    }
}
