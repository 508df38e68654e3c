//! System state and the small-step transition relation.
//!
//! The semantics is factored as *enabled actions* + *apply*: at every state
//! the set of possible next steps is computed (one per runnable thread,
//! plus one per eligible message for each receive choice), a scheduler picks
//! one, and `apply` produces the successor state and the trace events. The
//! explicit-state explorers enumerate the same action sets exhaustively, so
//! random testing, replay and model checking all share one semantics.
//!
//! Message-delay non-determinism is modelled *lazily*: a send puts its
//! message in flight immediately, and the delivery discipline
//! ([`DeliveryModel`]) decides which in-flight messages a receive may
//! consume. `Unordered` lets a receive take any in-flight message to its
//! endpoint — precisely the arbitrary-transit-delay semantics whose absence
//! in MCC the paper criticises.

use crate::program::{Instr, Program};
use crate::trace::{Event, EventKind, Violation};
use crate::types::{DeliveryModel, EndpointAddr, MsgId, Port, ThreadId, Value, VarId};
use serde::{Deserialize, Serialize};

/// A message in transit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct InFlight {
    pub id: MsgId,
    /// Source endpoint. The DSL sends from a thread's implicit port-0
    /// endpoint; pairwise FIFO groups by this field.
    pub from: EndpointAddr,
    pub to: EndpointAddr,
    pub value: Value,
    /// Global send order; only meaningful (and only nonzero) under
    /// [`DeliveryModel::ZeroDelay`], so that states which differ solely in
    /// irrelevant send timestamps stay identical under the other models.
    pub send_seq: u32,
}

/// State of a non-blocking request handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ReqState {
    /// Never issued (or already consumed by a wait).
    Unused,
    /// A non-blocking send completed at issue (infinite buffering).
    SendDone,
    /// A posted non-blocking receive awaiting a message.
    RecvPending { port: Port, var: VarId },
    /// A receive request that a wait has already bound.
    RecvDone,
}

/// Per-thread state.
#[derive(PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ThreadState {
    pub pc: usize,
    pub locals: Vec<Value>,
    pub reqs: Vec<ReqState>,
    /// Number of sends this thread has issued (for canonical [`MsgId`]s).
    pub sends_issued: u16,
}

impl Clone for ThreadState {
    fn clone(&self) -> Self {
        ThreadState {
            pc: self.pc,
            locals: self.locals.clone(),
            reqs: self.reqs.clone(),
            sends_issued: self.sends_issued,
        }
    }

    /// Reuses `self`'s buffers (derived `Clone` does not), which the
    /// searches that restore states in place rely on.
    fn clone_from(&mut self, src: &Self) {
        self.pc = src.pc;
        self.locals.clone_from(&src.locals);
        self.reqs.clone_from(&src.reqs);
        self.sends_issued = src.sends_issued;
    }
}

/// A schedulable step.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Action {
    /// Deterministic instruction of one thread (send, assign, branch, …).
    Internal { thread: ThreadId },
    /// A blocking receive consuming a specific eligible message.
    Receive { thread: ThreadId, msg: MsgId },
    /// A wait binding its pending receive request to a specific message.
    CompleteWait { thread: ThreadId, msg: MsgId },
}

impl Action {
    pub fn thread(&self) -> ThreadId {
        match *self {
            Action::Internal { thread }
            | Action::Receive { thread, .. }
            | Action::CompleteWait { thread, .. } => thread,
        }
    }

    /// The message consumed by this action, if any.
    pub fn message(&self) -> Option<MsgId> {
        match *self {
            Action::Receive { msg, .. } | Action::CompleteWait { msg, .. } => Some(msg),
            Action::Internal { .. } => None,
        }
    }

    /// Variant rank for the thread-major total order.
    fn kind_rank(&self) -> u8 {
        match self {
            Action::Internal { .. } => 0,
            Action::Receive { .. } => 1,
            Action::CompleteWait { .. } => 2,
        }
    }
}

/// Thread-major total order on actions: `(thread, variant, message)`.
///
/// This is the alphabet order the Mazurkiewicz normal form
/// ([`crate::canon`]) is defined against. [`SysState::enabled_actions`]
/// returns actions ascending in exactly this order (threads in index
/// order, one action variant per thread, eligible messages ascending by
/// id), which the canonical-schedule DFS relies on: exploring children in
/// ascending order guarantees the lexicographically least word of every
/// trace class is walked before any equivalent word.
impl Ord for Action {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.thread(), self.kind_rank(), self.message()).cmp(&(
            other.thread(),
            other.kind_rank(),
            other.message(),
        ))
    }
}

impl PartialOrd for Action {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The complete system state. `Hash`/`Eq` give explicit-state explorers a
/// canonical key: in-flight messages are kept sorted by id.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct SysState {
    pub threads: Vec<ThreadState>,
    pub in_flight: Vec<InFlight>,
    pub next_send_seq: u32,
    pub violation: Option<Violation>,
}

impl SysState {
    /// The initial state of a compiled program (locals zeroed).
    pub fn initial(program: &Program) -> SysState {
        SysState {
            threads: program
                .threads
                .iter()
                .map(|t| ThreadState {
                    pc: 0,
                    locals: vec![0; t.num_vars],
                    reqs: vec![ReqState::Unused; t.num_reqs],
                    sends_issued: 0,
                })
                .collect(),
            in_flight: Vec::new(),
            next_send_seq: 1,
            violation: None,
        }
    }

    /// Has every thread run to completion?
    pub fn all_done(&self, program: &Program) -> bool {
        self.threads
            .iter()
            .zip(&program.threads)
            .all(|(ts, t)| ts.pc >= t.code.len())
    }

    /// Messages a receive on `dst` may consume under `model`.
    pub fn eligible_msgs(&self, dst: EndpointAddr, model: DeliveryModel) -> Vec<MsgId> {
        let candidates: Vec<&InFlight> = self.in_flight.iter().filter(|m| m.to == dst).collect();
        match model {
            DeliveryModel::Unordered => candidates.iter().map(|m| m.id).collect(),
            DeliveryModel::PairwiseFifo => candidates
                .iter()
                .filter(|m| {
                    // Oldest in-flight message from the same source endpoint.
                    !candidates
                        .iter()
                        .any(|m2| m2.from == m.from && m2.id.seq < m.id.seq)
                })
                .map(|m| m.id)
                .collect(),
            DeliveryModel::ZeroDelay => candidates
                .iter()
                .min_by_key(|m| m.send_seq)
                .map(|m| vec![m.id])
                .unwrap_or_default(),
        }
    }

    /// All actions schedulable from this state.
    pub fn enabled_actions(&self, program: &Program, model: DeliveryModel) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.violation.is_some() {
            return actions; // violations are terminal
        }
        for (tid, ts) in self.threads.iter().enumerate() {
            let code = &program.threads[tid].code;
            if ts.pc >= code.len() {
                continue;
            }
            match &code[ts.pc] {
                Instr::Recv { port, .. } => {
                    let dst = EndpointAddr::new(tid, *port);
                    for msg in self.eligible_msgs(dst, model) {
                        actions.push(Action::Receive { thread: tid, msg });
                    }
                    // No eligible message: the thread is blocked (no action).
                }
                Instr::Wait { req } => match ts.reqs[req.0 as usize] {
                    ReqState::RecvPending { port, .. } => {
                        let dst = EndpointAddr::new(tid, port);
                        for msg in self.eligible_msgs(dst, model) {
                            actions.push(Action::CompleteWait { thread: tid, msg });
                        }
                    }
                    _ => actions.push(Action::Internal { thread: tid }),
                },
                _ => actions.push(Action::Internal { thread: tid }),
            }
        }
        actions
    }

    /// Apply an action, producing the successor state and its trace events.
    ///
    /// Panics if the action is not enabled (callers must draw actions from
    /// [`SysState::enabled_actions`]).
    pub fn apply(
        &self,
        program: &Program,
        action: Action,
        model: DeliveryModel,
    ) -> (SysState, Vec<Event>) {
        let mut next = self.clone();
        let events = next.apply_mut(program, action, model).into_iter().collect();
        (next, events)
    }

    /// Apply an action in place, returning its trace event (`None` only
    /// for a jump). Changes only the stepping thread, plus `in_flight` for
    /// a send or receive, `next_send_seq` for a send under
    /// [`DeliveryModel::ZeroDelay`], and `violation` for a failed assertion.
    ///
    /// Panics if the action is not enabled (callers must draw actions from
    /// [`SysState::enabled_actions`]).
    pub fn apply_mut(
        &mut self,
        program: &Program,
        action: Action,
        model: DeliveryModel,
    ) -> Option<Event> {
        let tid = action.thread();
        let pc = self.threads[tid].pc;
        let mut next_pc = pc + 1;
        let kind = match (&program.threads[tid].code[pc], action) {
            (Instr::Send { to, value }, Action::Internal { .. }) => {
                let v = value.eval(&self.threads[tid].locals);
                let msg = self.push_message(tid, *to, v, model);
                Some(EventKind::Send {
                    msg,
                    to: *to,
                    value: v,
                })
            }
            (Instr::SendI { to, value, req }, Action::Internal { .. }) => {
                let v = value.eval(&self.threads[tid].locals);
                let msg = self.push_message(tid, *to, v, model);
                self.threads[tid].reqs[req.0 as usize] = ReqState::SendDone;
                Some(EventKind::Send {
                    msg,
                    to: *to,
                    value: v,
                })
            }
            (Instr::Recv { port, var }, Action::Receive { msg, .. }) => {
                let value = self.take_message(msg);
                self.threads[tid].locals[var.0 as usize] = value;
                Some(EventKind::Recv {
                    port: *port,
                    var: *var,
                    value,
                    msg,
                })
            }
            (Instr::RecvI { port, var, req }, Action::Internal { .. }) => {
                self.threads[tid].reqs[req.0 as usize] = ReqState::RecvPending {
                    port: *port,
                    var: *var,
                };
                Some(EventKind::RecvPost {
                    port: *port,
                    var: *var,
                    req: *req,
                })
            }
            (Instr::Wait { req }, Action::CompleteWait { msg, .. }) => {
                let ReqState::RecvPending { port, var } = self.threads[tid].reqs[req.0 as usize]
                else {
                    panic!("CompleteWait on a request that is not a pending receive");
                };
                let value = self.take_message(msg);
                self.threads[tid].locals[var.0 as usize] = value;
                self.threads[tid].reqs[req.0 as usize] = ReqState::RecvDone;
                Some(EventKind::WaitRecv {
                    req: *req,
                    port,
                    var,
                    value,
                    msg,
                })
            }
            (Instr::Wait { req }, Action::Internal { .. }) => {
                Some(EventKind::WaitNoop { req: *req })
            }
            (Instr::Assign { var, expr }, Action::Internal { .. }) => {
                let v = expr.eval(&self.threads[tid].locals);
                self.threads[tid].locals[var.0 as usize] = v;
                Some(EventKind::Assign {
                    var: *var,
                    value: v,
                })
            }
            (Instr::Assert { cond, message }, Action::Internal { .. }) => {
                if cond.eval(&self.threads[tid].locals) {
                    Some(EventKind::AssertOk)
                } else {
                    self.violation = Some(Violation {
                        thread: tid,
                        pc,
                        message: message.clone(),
                    });
                    Some(EventKind::AssertFail {
                        message: message.clone(),
                    })
                }
            }
            (Instr::Branch { cond, else_target }, Action::Internal { .. }) => {
                let taken = cond.eval(&self.threads[tid].locals);
                if !taken {
                    next_pc = *else_target;
                }
                Some(EventKind::Branch { taken })
            }
            (Instr::Jump { target }, Action::Internal { .. }) => {
                next_pc = *target;
                None
            }
            (i, a) => panic!("action {a:?} does not match instruction {i:?}"),
        };
        self.threads[tid].pc = next_pc;
        kind.map(|kind| Event {
            thread: tid,
            pc,
            kind,
        })
    }

    /// Insert a message in flight (keeping the vector sorted by id).
    fn push_message(
        &mut self,
        tid: ThreadId,
        to: EndpointAddr,
        value: Value,
        model: DeliveryModel,
    ) -> MsgId {
        let seq = self.threads[tid].sends_issued;
        self.threads[tid].sends_issued += 1;
        let id = MsgId {
            thread: tid as u16,
            seq,
        };
        let send_seq = if model == DeliveryModel::ZeroDelay {
            let s = self.next_send_seq;
            self.next_send_seq += 1;
            s
        } else {
            0
        };
        let m = InFlight {
            id,
            from: EndpointAddr::new(tid, 0),
            to,
            value,
            send_seq,
        };
        let pos = self.in_flight.partition_point(|x| x.id < id);
        self.in_flight.insert(pos, m);
        id
    }

    /// Remove a message from flight, returning its value.
    fn take_message(&mut self, id: MsgId) -> Value {
        let pos = self
            .in_flight
            .iter()
            .position(|m| m.id == id)
            .expect("message not in flight");
        self.in_flight.remove(pos).value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::Expr;

    /// t1 and t2 each send one message to t0; t0 receives twice.
    fn race_program() -> Program {
        let mut b = ProgramBuilder::new("race");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        b.recv(t0, 0);
        b.recv(t0, 0);
        b.send_const(t1, t0, 0, 10);
        b.send_const(t2, t0, 0, 20);
        b.build().unwrap()
    }

    #[test]
    fn initial_state_shape() {
        let p = race_program();
        let s = SysState::initial(&p);
        assert_eq!(s.threads.len(), 3);
        assert!(s.in_flight.is_empty());
        assert!(!s.all_done(&p));
    }

    #[test]
    fn receiver_blocks_until_send() {
        let p = race_program();
        let s = SysState::initial(&p);
        let actions = s.enabled_actions(&p, DeliveryModel::Unordered);
        // t0 is blocked on recv; only the two senders can step.
        assert_eq!(actions.len(), 2);
        assert!(actions.iter().all(|a| matches!(a, Action::Internal { .. })));
        let threads: Vec<_> = actions.iter().map(|a| a.thread()).collect();
        assert_eq!(threads, vec![1, 2]);
    }

    #[test]
    fn unordered_recv_offers_all_messages() {
        let p = race_program();
        let s = SysState::initial(&p);
        // Run both sends.
        let (s, _) = s.apply(&p, Action::Internal { thread: 1 }, DeliveryModel::Unordered);
        let (s, _) = s.apply(&p, Action::Internal { thread: 2 }, DeliveryModel::Unordered);
        assert_eq!(s.in_flight.len(), 2);
        let actions = s.enabled_actions(&p, DeliveryModel::Unordered);
        let recvs: Vec<_> = actions
            .iter()
            .filter(|a| matches!(a, Action::Receive { .. }))
            .collect();
        assert_eq!(
            recvs.len(),
            2,
            "both messages must be receivable: {actions:?}"
        );
    }

    #[test]
    fn zero_delay_recv_offers_only_oldest() {
        let p = race_program();
        let s = SysState::initial(&p);
        let (s, _) = s.apply(&p, Action::Internal { thread: 2 }, DeliveryModel::ZeroDelay);
        let (s, _) = s.apply(&p, Action::Internal { thread: 1 }, DeliveryModel::ZeroDelay);
        let actions = s.enabled_actions(&p, DeliveryModel::ZeroDelay);
        let recvs: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Receive { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        // t2 sent first: only its message is deliverable.
        assert_eq!(recvs, vec![MsgId::new(2, 0)]);
    }

    #[test]
    fn receive_sets_local_and_consumes() {
        let p = race_program();
        let s = SysState::initial(&p);
        let (s, _) = s.apply(&p, Action::Internal { thread: 1 }, DeliveryModel::Unordered);
        let msg = MsgId::new(1, 0);
        let (s, ev) = s.apply(
            &p,
            Action::Receive { thread: 0, msg },
            DeliveryModel::Unordered,
        );
        assert!(s.in_flight.is_empty());
        assert_eq!(s.threads[0].locals[0], 10);
        assert!(matches!(ev[0].kind, EventKind::Recv { value: 10, .. }));
    }

    /// Pairwise FIFO: two sends from one thread to one endpoint must be
    /// received in order; a send from another thread can interleave.
    #[test]
    fn pairwise_fifo_orders_same_source() {
        let mut b = ProgramBuilder::new("fifo");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        b.recv(t0, 0);
        b.recv(t0, 0);
        b.send_const(t1, t0, 0, 1);
        b.send_const(t1, t0, 0, 2);
        let p = b.build().unwrap();
        let s = SysState::initial(&p);
        let (s, _) = s.apply(
            &p,
            Action::Internal { thread: 1 },
            DeliveryModel::PairwiseFifo,
        );
        let (s, _) = s.apply(
            &p,
            Action::Internal { thread: 1 },
            DeliveryModel::PairwiseFifo,
        );
        let eligible = s.eligible_msgs(EndpointAddr::new(0, 0), DeliveryModel::PairwiseFifo);
        assert_eq!(
            eligible,
            vec![MsgId::new(1, 0)],
            "only the first send is eligible"
        );
        // Under Unordered, both would be eligible.
        let eligible = s.eligible_msgs(EndpointAddr::new(0, 0), DeliveryModel::Unordered);
        assert_eq!(eligible.len(), 2);
    }

    #[test]
    fn assert_failure_is_terminal() {
        let mut b = ProgramBuilder::new("assert");
        let t0 = b.thread("t0");
        b.assert_cond(t0, crate::expr::Cond::False, "boom");
        let p = b.build().unwrap();
        let s = SysState::initial(&p);
        let (s, ev) = s.apply(&p, Action::Internal { thread: 0 }, DeliveryModel::Unordered);
        assert!(s.violation.is_some());
        assert!(matches!(&ev[0].kind, EventKind::AssertFail { .. }));
        assert!(s.enabled_actions(&p, DeliveryModel::Unordered).is_empty());
    }

    #[test]
    fn branch_follows_condition() {
        use crate::expr::Cond;
        use crate::program::Op;
        let mut b = ProgramBuilder::new("branch");
        let t0 = b.thread("t0");
        let x = b.fresh_var(t0);
        b.assign(t0, x, Expr::Const(5));
        b.push_op(
            t0,
            Op::If {
                cond: Cond::eq(Expr::Var(x), Expr::Const(5)),
                then_ops: vec![Op::Assign {
                    var: x,
                    expr: Expr::Const(100),
                }],
                else_ops: vec![Op::Assign {
                    var: x,
                    expr: Expr::Const(200),
                }],
            },
        );
        let p = b.build().unwrap();
        let mut s = SysState::initial(&p);
        let mut all_events = vec![];
        while let Some(&a) = s.enabled_actions(&p, DeliveryModel::Unordered).first() {
            let (ns, ev) = s.apply(&p, a, DeliveryModel::Unordered);
            all_events.extend(ev);
            s = ns;
        }
        assert_eq!(s.threads[0].locals[0], 100);
        assert!(all_events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Branch { taken: true })));
    }

    #[test]
    fn recv_i_and_wait_bind_message() {
        let mut b = ProgramBuilder::new("nb");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let (var, req) = b.recv_i(t0, 0);
        b.wait(t0, req);
        b.send_const(t1, t0, 0, 99);
        let p = b.build().unwrap();
        let s = SysState::initial(&p);
        // Post the receive first: wait is then blocked until the send.
        let (s, ev) = s.apply(&p, Action::Internal { thread: 0 }, DeliveryModel::Unordered);
        assert!(matches!(ev[0].kind, EventKind::RecvPost { .. }));
        let blocked = s.enabled_actions(&p, DeliveryModel::Unordered);
        assert_eq!(blocked.iter().filter(|a| a.thread() == 0).count(), 0);
        let (s, _) = s.apply(&p, Action::Internal { thread: 1 }, DeliveryModel::Unordered);
        let acts = s.enabled_actions(&p, DeliveryModel::Unordered);
        let wait_act = acts
            .iter()
            .find(|a| matches!(a, Action::CompleteWait { .. }))
            .copied()
            .expect("wait must be completable");
        let (s, ev) = s.apply(&p, wait_act, DeliveryModel::Unordered);
        assert_eq!(s.threads[0].locals[var.0 as usize], 99);
        assert!(matches!(ev[0].kind, EventKind::WaitRecv { value: 99, .. }));
    }

    #[test]
    fn wait_on_send_request_is_noop() {
        let mut b = ProgramBuilder::new("nb-send");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        b.recv(t1, 0);
        let req = b.send_i_const(t0, t1, 0, 5);
        b.wait(t0, req);
        let p = b.build().unwrap();
        let s = SysState::initial(&p);
        let (s, _) = s.apply(&p, Action::Internal { thread: 0 }, DeliveryModel::Unordered);
        let acts = s.enabled_actions(&p, DeliveryModel::Unordered);
        let wait = acts.iter().find(|a| a.thread() == 0).copied().unwrap();
        assert!(matches!(wait, Action::Internal { .. }));
        let (_, ev) = s.apply(&p, wait, DeliveryModel::Unordered);
        assert!(matches!(ev[0].kind, EventKind::WaitNoop { .. }));
    }

    #[test]
    fn states_hash_canonically_across_interleavings() {
        use std::collections::HashSet;
        let p = race_program();
        let s0 = SysState::initial(&p);
        // send t1 then t2 vs t2 then t1 — same resulting state (Unordered).
        let (a, _) = s0.apply(&p, Action::Internal { thread: 1 }, DeliveryModel::Unordered);
        let (a, _) = a.apply(&p, Action::Internal { thread: 2 }, DeliveryModel::Unordered);
        let (b2, _) = s0.apply(&p, Action::Internal { thread: 2 }, DeliveryModel::Unordered);
        let (b2, _) = b2.apply(&p, Action::Internal { thread: 1 }, DeliveryModel::Unordered);
        assert_eq!(a, b2);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b2));
    }
}
