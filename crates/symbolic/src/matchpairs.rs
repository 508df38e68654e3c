//! Match-pair generation: which sends could each receive pair with?
//!
//! The paper's trace analysis produces the set `MatchPairs` (every receive
//! in the trace) and the function `getSends` (candidate sends per receive).
//! Two generators are provided:
//!
//! * [`precise_match_pairs`] — the paper's **depth-first abstract
//!   execution** of the trace: explore every schedule/delivery choice of
//!   the trace's communication skeleton (branch outcomes fixed, so control
//!   flow is straight-line) and record, for each receive, every message it
//!   consumed in some execution. The paper calls it "prohibitively
//!   expensive in computation time"; here it visits only the skeleton
//!   state that can change what happens next, so executions that differ
//!   only in history merge. Exact, but still exponential in the worst case.
//! * [`overapprox_match_pairs`] — the paper's proposed future work: a cheap
//!   over-approximation pairing each receive with **every** send addressed
//!   to its endpoint. Sound (superset of the precise set) but may admit
//!   spurious pairs; the checker's validate-and-refine loop (see
//!   [`crate::checker`]) restores exactness.

use mcapi::program::{Instr, Op, Program, Thread};
use mcapi::state::{InFlight, SysState};
use mcapi::store::{Rows, StateSlots};
use mcapi::trace::{EventKind, Trace};
use mcapi::types::{DeliveryModel, EndpointAddr, MsgId, RecvKey, ReqId, VarId};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The `MatchPairs` set and `getSends` map of the paper (Fig. 2), plus
/// generation cost counters.
#[derive(Clone, Debug, Default)]
pub struct MatchPairs {
    /// Candidate sends per receive, keyed by interleaving-independent
    /// receive identity.
    pub sends_for: BTreeMap<RecvKey, BTreeSet<MsgId>>,
    /// States visited while generating (1 for the over-approximation).
    pub states_explored: usize,
    /// Generator used ("precise-dfs" or "overapprox-endpoint").
    pub generator: &'static str,
}

impl MatchPairs {
    /// Total number of (receive, send) pairs.
    pub fn num_pairs(&self) -> usize {
        self.sends_for.values().map(|s| s.len()).sum()
    }

    /// Is `other` a subset of `self` (per receive)?
    pub fn contains(&self, other: &MatchPairs) -> bool {
        other.sends_for.iter().all(|(k, sends)| {
            self.sends_for
                .get(k)
                .is_some_and(|mine| sends.is_subset(mine))
        })
    }
}

/// The communication skeleton of a trace: each thread's sequence of
/// communication operations with branch outcomes already resolved.
///
/// Reconstructed from the trace events (not the program source), exactly as
/// the paper's tool consumes traces. Message identities (thread, send
/// index) and receive identities (thread, completion index) are preserved.
pub fn trace_skeleton(program: &Program, trace: &Trace) -> Program {
    let mut threads = Vec::new();
    for (tid, pthread) in program.threads.iter().enumerate() {
        let mut ops: Vec<Op> = Vec::new();
        let mut num_vars = 0usize;
        let mut num_reqs = 0usize;
        let mut req_map: BTreeMap<ReqId, ReqId> = BTreeMap::new();
        for ev in trace.events.iter().filter(|e| e.thread == tid) {
            match &ev.kind {
                EventKind::Send { to, value, .. } => {
                    // The concrete value is irrelevant for matching
                    // feasibility (control flow is already fixed); use it
                    // as a constant payload.
                    ops.push(Op::Send {
                        to: *to,
                        value: mcapi::expr::Expr::Const(*value),
                    });
                }
                EventKind::Recv { port, .. } => {
                    let var = VarId(num_vars as u16);
                    num_vars += 1;
                    ops.push(Op::Recv { port: *port, var });
                }
                EventKind::RecvPost { port, req, .. } => {
                    let var = VarId(num_vars as u16);
                    num_vars += 1;
                    let new_req = ReqId(num_reqs as u16);
                    num_reqs += 1;
                    req_map.insert(*req, new_req);
                    ops.push(Op::RecvI {
                        port: *port,
                        var,
                        req: new_req,
                    });
                }
                EventKind::WaitRecv { req, .. } => {
                    let new_req = req_map
                        .get(req)
                        .copied()
                        .expect("wait without matching recv_i in trace");
                    ops.push(Op::Wait { req: new_req });
                }
                // Local computation, branches and assertions do not affect
                // which messages can match which receives.
                EventKind::WaitNoop { .. }
                | EventKind::Assign { .. }
                | EventKind::Branch { .. }
                | EventKind::AssertOk
                | EventKind::AssertFail { .. } => {}
            }
        }
        threads.push(Thread {
            name: format!("{}-skeleton", pthread.name),
            ops,
            num_vars,
            num_reqs,
            ports: pthread.ports.clone(),
            code: vec![],
            origins: vec![],
        });
    }
    Program {
        name: format!("{}-skeleton", program.name),
        threads,
    }
    .compile()
    .expect("skeleton of a valid trace must compile")
}

/// Precise match pairs by exhaustive depth-first abstract execution of the
/// trace skeleton (the paper's Section 3 method), on the skeleton state that
/// can change what happens next (see `precise_match_pairs_until`). Still
/// exponential in the worst case: in the subsets of messages that can be in
/// flight together.
pub fn precise_match_pairs(program: &Program, trace: &Trace, model: DeliveryModel) -> MatchPairs {
    precise_match_pairs_until(program, trace, model, None)
}

/// [`precise_match_pairs`] polling `deadline` every 1,024 visited states.
/// Once it has passed, the trace's [`overapprox_match_pairs`] stand in
/// (sound: the checker replays every model), with `states_explored`
/// counting the states visited so far.
///
/// The search keeps only the skeleton state that can change which actions
/// are enabled later, as rows of the exact interned store
/// ([`mcapi::store`]): the pcs and the in-flight messages. A skeleton
/// thread is straight-line code with constant payloads, so its pc fixes
/// its requests, sends issued and receive count, and nothing reads its
/// locals, which are kept at 0. A message's value is fixed by its id.
/// Under zero delay a receive takes the oldest message to its endpoint and
/// every later send is younger than all in flight, so only the send order
/// *within each destination* matters: each `send_seq` is renumbered to its
/// rank among the in-flight messages to the same endpoint. Under the other
/// models every `send_seq` is 0. One state is stepped in place and
/// restored from its row's entries after each successor.
pub(crate) fn precise_match_pairs_until(
    program: &Program,
    trace: &Trace,
    model: DeliveryModel,
    deadline: Option<Instant>,
) -> MatchPairs {
    let skeleton = trace_skeleton(program, trace);
    let mut pairs = MatchPairs {
        generator: "precise-dfs",
        ..Default::default()
    };
    // Receives each thread has completed on reaching each pc.
    let recv_index: Vec<Vec<usize>> = skeleton
        .threads
        .iter()
        .map(|th| {
            let mut done = 0;
            th.code
                .iter()
                .map(|instr| {
                    let here = done;
                    done += matches!(instr, Instr::Recv { .. } | Instr::Wait { .. }) as usize;
                    here
                })
                .collect()
        })
        .collect();
    let mut sys = SysState::initial(&skeleton);
    let mut row = Vec::new();
    let mut slots = StateSlots::new(&sys, &mut row);
    let mut rows = Rows::new(slots.width());
    let mut ranks = Vec::new();
    let mut stack = vec![rows.insert(&row).0];
    while let Some(id) = stack.pop() {
        if pairs.states_explored.is_multiple_of(1024)
            && deadline.is_some_and(|d| Instant::now() >= d)
        {
            return MatchPairs {
                states_explored: pairs.states_explored,
                ..overapprox_match_pairs(program, trace)
            };
        }
        pairs.states_explored += 1;
        slots.decode(rows.get(id), &mut sys);
        for action in sys.enabled_actions(&skeleton, model) {
            let t = action.thread();
            if let Some(msg) = action.message() {
                let key = RecvKey::new(t, recv_index[t][sys.threads[t].pc]);
                pairs.sends_for.entry(key).or_default().insert(msg);
            }
            let in_flight = sys.in_flight.len();
            // Ranks are at most the in-flight count, so a send gets a
            // younger `send_seq` than every message in flight.
            sys.next_send_seq = in_flight as u32 + 1;
            sys.apply_mut(&skeleton, action, model);
            sys.threads[t].locals.fill(0);
            if model == DeliveryModel::ZeroDelay && sys.in_flight.len() != in_flight {
                rank_per_destination(&mut sys.in_flight, &mut ranks);
            }
            row.clear();
            row.extend_from_slice(rows.get(id));
            slots.step(&mut row, t, &sys);
            let (child, fresh) = rows.insert(&row);
            if fresh {
                stack.push(child);
            }
            slots.restore(rows.get(id), t, &mut sys);
        }
    }
    pairs
}

/// Renumber each message's `send_seq` to 1 + the number of in-flight
/// messages to the same endpoint sent before it. `ranks` is scratch.
fn rank_per_destination(flight: &mut [InFlight], ranks: &mut Vec<u32>) {
    ranks.clear();
    ranks.extend(flight.iter().map(|m| {
        1 + flight
            .iter()
            .filter(|o| o.to == m.to && o.send_seq < m.send_seq)
            .count() as u32
    }));
    for (m, &rank) in flight.iter_mut().zip(ranks.iter()) {
        m.send_seq = rank;
    }
}

/// Over-approximate match pairs: every send whose destination is the
/// receive's endpoint is a candidate (the paper's planned future work).
pub fn overapprox_match_pairs(program: &Program, trace: &Trace) -> MatchPairs {
    let _ = program;
    let mut pairs = MatchPairs {
        generator: "overapprox-endpoint",
        states_explored: 1,
        ..Default::default()
    };
    // Collect sends by destination endpoint.
    let mut sends_to: BTreeMap<EndpointAddr, BTreeSet<MsgId>> = BTreeMap::new();
    for ev in &trace.events {
        if let EventKind::Send { msg, to, .. } = &ev.kind {
            sends_to.entry(*to).or_default().insert(*msg);
        }
    }
    // Walk receives per thread, assigning completion indices.
    let mut recv_counts =
        vec![0usize; 1 + trace.events.iter().map(|e| e.thread).max().unwrap_or(0)];
    for ev in &trace.events {
        let endpoint = match &ev.kind {
            EventKind::Recv { port, .. } => Some(EndpointAddr::new(ev.thread, *port)),
            EventKind::WaitRecv { port, .. } => Some(EndpointAddr::new(ev.thread, *port)),
            _ => None,
        };
        if let Some(ep) = endpoint {
            let key = RecvKey::new(ev.thread, recv_counts[ev.thread]);
            recv_counts[ev.thread] += 1;
            let candidates = sends_to.get(&ep).cloned().unwrap_or_default();
            pairs.sends_for.insert(key, candidates);
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcapi::builder::ProgramBuilder;
    use mcapi::runtime::execute_random;

    /// The paper's Fig. 1.
    fn fig1() -> Program {
        let mut b = ProgramBuilder::new("fig1");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        b.recv(t0, 0); // A
        b.recv(t0, 0); // B
        b.recv(t1, 0); // C
        b.send_const(t1, t0, 0, 100); // X
        b.send_const(t2, t0, 0, 200); // Y
        b.send_const(t2, t1, 0, 300); // Z
        b.build().unwrap()
    }

    fn complete_trace(p: &Program) -> Trace {
        for seed in 0..100 {
            let out = execute_random(p, DeliveryModel::Unordered, seed);
            if out.trace.is_complete() && out.violation().is_none() {
                return out.trace;
            }
        }
        panic!("no complete trace found");
    }

    #[test]
    fn skeleton_preserves_comm_structure() {
        let p = fig1();
        let t = complete_trace(&p);
        let sk = trace_skeleton(&p, &t);
        assert_eq!(sk.num_static_sends(), 3);
        assert_eq!(sk.num_static_recvs(), 3);
        assert_eq!(sk.threads.len(), 3);
    }

    #[test]
    fn precise_pairs_for_fig1() {
        // The paper: recv(A) and recv(B) can each match X or Y; recv(C)
        // only matches Z.
        let p = fig1();
        let t = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &t, DeliveryModel::Unordered);
        let x = MsgId::new(1, 0);
        let y = MsgId::new(2, 0);
        let z = MsgId::new(2, 1);
        let a = RecvKey::new(0, 0);
        let b = RecvKey::new(0, 1);
        let c = RecvKey::new(1, 0);
        assert_eq!(pairs.sends_for[&a], BTreeSet::from([x, y]));
        assert_eq!(pairs.sends_for[&b], BTreeSet::from([x, y]));
        assert_eq!(pairs.sends_for[&c], BTreeSet::from([z]));
        assert_eq!(pairs.num_pairs(), 5);
    }

    #[test]
    fn precise_pairs_zero_delay_shrink() {
        // Under the MCC model, recv(A) can only get Y (Y is always the
        // oldest in-flight send to t0 when A completes — X is sent after
        // Z is received which is after Y was sent).
        let p = fig1();
        let t = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &t, DeliveryModel::ZeroDelay);
        let y = MsgId::new(2, 0);
        let a = RecvKey::new(0, 0);
        assert_eq!(pairs.sends_for[&a], BTreeSet::from([y]));
        assert!(pairs.num_pairs() < 5);
    }

    #[test]
    fn overapprox_contains_precise() {
        let p = fig1();
        let t = complete_trace(&p);
        let precise = precise_match_pairs(&p, &t, DeliveryModel::Unordered);
        let over = overapprox_match_pairs(&p, &t);
        assert!(over.contains(&precise));
        // For Fig. 1 the over-approximation is actually exact on A and B
        // but the general relation is containment.
        assert!(over.num_pairs() >= precise.num_pairs());
    }

    #[test]
    fn overapprox_is_cheap() {
        let p = fig1();
        let t = complete_trace(&p);
        let over = overapprox_match_pairs(&p, &t);
        assert_eq!(over.states_explored, 1);
        let precise = precise_match_pairs(&p, &t, DeliveryModel::Unordered);
        assert!(precise.states_explored > 1);
    }

    #[test]
    fn precise_handles_nonblocking_ops() {
        let mut b = ProgramBuilder::new("nb");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let (_v, req) = b.recv_i(t0, 0);
        b.wait(t0, req);
        b.send_const(t1, t0, 0, 1);
        b.send_const(t2, t0, 0, 2);
        let p = b.build().unwrap();
        let t = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &t, DeliveryModel::Unordered);
        let key = RecvKey::new(0, 0);
        assert_eq!(
            pairs.sends_for[&key],
            BTreeSet::from([MsgId::new(1, 0), MsgId::new(2, 0)])
        );
    }

    #[test]
    fn wider_race_pair_counts_grow_quadratically() {
        // n producers, n receives: every receive can match every send.
        for n in 2..5usize {
            let mut b = ProgramBuilder::new("race");
            let t0 = b.thread("c");
            let producers: Vec<_> = (0..n).map(|i| b.thread(format!("p{i}"))).collect();
            for _ in 0..n {
                b.recv(t0, 0);
            }
            for &pr in &producers {
                b.send_const(pr, t0, 0, 7);
            }
            let p = b.build().unwrap();
            let t = complete_trace(&p);
            let precise = precise_match_pairs(&p, &t, DeliveryModel::Unordered);
            assert_eq!(precise.num_pairs(), n * n);
            let over = overapprox_match_pairs(&p, &t);
            assert_eq!(over.num_pairs(), n * n);
        }
    }
}
