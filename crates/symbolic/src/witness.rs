//! Witness decoding and validation by concrete replay.
//!
//! A satisfying assignment of the paper's formula is "a description of the
//! path to the error state": clock values order the events, receive
//! identifier values name the send each receive matched. [`decode_witness`]
//! reads that description out of a model; [`replay_witness`] drives the
//! concrete MCAPI runtime along it, which (a) turns symbolic violations
//! into demonstrable executions and (b) filters spurious models arising
//! from *over-approximate* match pairs in the refinement loop.

use crate::encode::Encoding;
use mcapi::program::{Instr, Program};
use mcapi::state::{Action, SysState};
use mcapi::trace::{Event, EventKind, Trace, Violation};
use mcapi::types::{DeliveryModel, Matching, MsgId, RecvKey};
use smt::Model;
use std::collections::HashMap;

/// A decoded erroneous (or enumerated) execution.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Which send each receive matched.
    pub matching: Matching,
    /// Trace event indices in model-clock order.
    pub event_order: Vec<usize>,
    /// Clock value per trace event index.
    pub clocks: Vec<i64>,
    /// Value each receive obtained under the model.
    pub recv_values: Vec<(RecvKey, i64)>,
    /// Messages of the properties the model violates (empty when the
    /// encoding asserted `PProp` positively).
    pub violated: Vec<String>,
}

/// Read a witness out of a satisfying model for one path of the encoding
/// (path 0 is the trace the encoding was built from): the event clocks and
/// violated properties are the path's own, while the matching and receive
/// values come from the shared core.
pub fn decode_witness(encoding: &Encoding, model: &Model, path: usize) -> Witness {
    let terms = &encoding.paths[path];
    let pool = encoding.solver.pool();
    let clocks: Vec<i64> = terms
        .clocks
        .iter()
        .map(|&c| model.eval_int(pool, c).expect("clock valued"))
        .collect();
    let mut event_order: Vec<usize> = (0..clocks.len()).collect();
    event_order.sort_by_key(|&i| (clocks[i], i));
    let matching = encoding.matching_from_model(model);
    let recv_values = encoding
        .recvs
        .iter()
        .map(|r| {
            let v = model.eval_int(pool, r.val).expect("recv value valued");
            (r.key, v)
        })
        .collect();
    let violated = terms
        .props
        .iter()
        .filter(|p| model.eval_bool(pool, p.term) == Some(false))
        .map(|p| p.message.clone())
        .collect();
    Witness {
        matching,
        event_order,
        clocks,
        recv_values,
        violated,
    }
}

/// Outcome of replaying a witness on the concrete runtime.
#[derive(Clone, Debug)]
pub enum ReplayVerdict {
    /// The witness corresponds to a real execution. `violation` is the
    /// concrete assertion failure if one occurred.
    Confirmed {
        violation: Option<Violation>,
        complete: bool,
    },
    /// No concrete execution follows the witness (possible only with
    /// over-approximate match pairs).
    Spurious { at_event: usize, reason: String },
}

impl ReplayVerdict {
    pub fn is_confirmed(&self) -> bool {
        matches!(self, ReplayVerdict::Confirmed { .. })
    }
}

/// Drive the runtime along the witness order, forcing each receive to take
/// the matched message.
pub fn replay_witness(
    program: &Program,
    trace: &Trace,
    witness: &Witness,
    delivery: DeliveryModel,
) -> ReplayVerdict {
    let matched: HashMap<RecvKey, MsgId> = witness.matching.iter().copied().collect();
    let mut state = SysState::initial(program);
    let mut recv_counts = vec![0usize; program.threads.len()];

    for &ev_idx in &witness.event_order {
        let expected: &Event = &trace.events[ev_idx];
        let t = expected.thread;
        // Step thread `t` until it produces the expected event (Jump
        // instructions produce no event and are stepped through).
        loop {
            if let Some(v) = &state.violation {
                // The run already failed an assertion: the witness is
                // confirmed as an erroneous execution.
                return ReplayVerdict::Confirmed {
                    violation: Some(v.clone()),
                    complete: false,
                };
            }
            // An event-less Jump may sit between the thread's previous
            // event and the expected one: step through it first.
            let at_jump = matches!(
                program.threads[t].code.get(state.threads[t].pc),
                Some(Instr::Jump { .. })
            );
            let action = if at_jump {
                Action::Internal { thread: t }
            } else {
                match &expected.kind {
                    EventKind::Recv { .. } => {
                        let key = RecvKey::new(t, recv_counts[t]);
                        let Some(&msg) = matched.get(&key) else {
                            return ReplayVerdict::Spurious {
                                at_event: ev_idx,
                                reason: format!("no matching recorded for {key:?}"),
                            };
                        };
                        Action::Receive { thread: t, msg }
                    }
                    EventKind::WaitRecv { .. } => {
                        let key = RecvKey::new(t, recv_counts[t]);
                        let Some(&msg) = matched.get(&key) else {
                            return ReplayVerdict::Spurious {
                                at_event: ev_idx,
                                reason: format!("no matching recorded for {key:?}"),
                            };
                        };
                        Action::CompleteWait { thread: t, msg }
                    }
                    _ => Action::Internal { thread: t },
                }
            };
            let enabled = state.enabled_actions(program, delivery);
            if !enabled.contains(&action) {
                return ReplayVerdict::Spurious {
                    at_event: ev_idx,
                    reason: format!("action {action:?} not enabled for event {expected:?}"),
                };
            }
            let (next, events) = state.apply(program, action, delivery);
            state = next;
            let Some(produced) = events.first() else {
                continue; // Jump: no event, keep stepping this thread
            };
            if !kinds_compatible(&expected.kind, &produced.kind) {
                return ReplayVerdict::Spurious {
                    at_event: ev_idx,
                    reason: format!(
                        "expected {:?} but produced {:?}",
                        expected.kind, produced.kind
                    ),
                };
            }
            if matches!(
                produced.kind,
                EventKind::Recv { .. } | EventKind::WaitRecv { .. }
            ) {
                recv_counts[t] += 1;
            }
            if let EventKind::AssertFail { .. } = produced.kind {
                let v = state.violation.clone();
                return ReplayVerdict::Confirmed {
                    violation: v,
                    complete: false,
                };
            }
            break;
        }
    }

    // Drain trailing event-less instructions (jumps at branch ends).
    loop {
        let enabled = state.enabled_actions(program, delivery);
        let jump = enabled.iter().copied().find(|a| {
            if let Action::Internal { thread } = a {
                matches!(
                    program.threads[*thread].code.get(state.threads[*thread].pc),
                    Some(Instr::Jump { .. })
                )
            } else {
                false
            }
        });
        match jump {
            Some(a) => {
                let (next, _) = state.apply(program, a, delivery);
                state = next;
            }
            None => break,
        }
    }

    let complete = state.all_done(program);
    let violation = state.violation.clone();
    ReplayVerdict::Confirmed {
        violation,
        complete,
    }
}

/// Are a trace event and a replayed event the same operation? Assertion
/// events may flip outcome (that is the point of the analysis); receives
/// must consume the exact matched message.
fn kinds_compatible(expected: &EventKind, produced: &EventKind) -> bool {
    use EventKind::*;
    match (expected, produced) {
        (Send { msg: a, to: ta, .. }, Send { msg: b, to: tb, .. }) => a == b && ta == tb,
        (Recv { .. }, Recv { .. }) => true,
        (WaitRecv { .. }, WaitRecv { .. }) => true,
        (RecvPost { req: a, .. }, RecvPost { req: b, .. }) => a == b,
        (WaitNoop { req: a }, WaitNoop { req: b }) => a == b,
        (Assign { var: a, .. }, Assign { var: b, .. }) => a == b,
        (Branch { taken: a }, Branch { taken: b }) => a == b,
        (AssertOk | AssertFail { .. }, AssertOk | AssertFail { .. }) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, EncodeOptions};
    use crate::matchpairs::{overapprox_match_pairs, precise_match_pairs};
    use mcapi::builder::ProgramBuilder;
    use mcapi::expr::{Cond, Expr};
    use mcapi::runtime::execute_random;
    use mcapi::types::CmpOp;
    use smt::SatResult;

    fn race_with_assert() -> Program {
        let mut b = ProgramBuilder::new("race");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let a = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)),
            "p1 first",
        );
        b.send_const(t1, t0, 0, 1);
        b.send_const(t2, t0, 0, 2);
        b.build().unwrap()
    }

    fn complete_trace(p: &Program) -> Trace {
        for seed in 0..500 {
            let out = execute_random(p, DeliveryModel::Unordered, seed);
            if out.trace.is_complete() && out.violation().is_none() {
                return out.trace;
            }
        }
        panic!("no complete trace");
    }

    #[test]
    fn violating_witness_replays_to_concrete_violation() {
        let p = race_with_assert();
        let tr = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        let mut enc = encode(&p, &tr, &pairs, EncodeOptions::default());
        assert_eq!(enc.solver.check(), SatResult::Sat);
        let model = enc.solver.model().unwrap().clone();
        let w = decode_witness(&enc, &model, 0);
        assert_eq!(w.violated, vec!["p1 first".to_string()]);
        let verdict = replay_witness(&p, &tr, &w, DeliveryModel::Unordered);
        match verdict {
            ReplayVerdict::Confirmed {
                violation: Some(v), ..
            } => {
                assert!(v.message.contains("p1 first"));
            }
            other => panic!("expected confirmed violation, got {other:?}"),
        }
    }

    #[test]
    fn passing_witness_replays_to_completion() {
        let p = race_with_assert();
        let tr = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        let mut enc = encode(
            &p,
            &tr,
            &pairs,
            EncodeOptions {
                delivery: DeliveryModel::Unordered,
                negate_props: false,
            },
        );
        assert_eq!(enc.solver.check(), SatResult::Sat);
        let model = enc.solver.model().unwrap().clone();
        let w = decode_witness(&enc, &model, 0);
        assert!(w.violated.is_empty());
        let verdict = replay_witness(&p, &tr, &w, DeliveryModel::Unordered);
        match verdict {
            ReplayVerdict::Confirmed {
                violation: None,
                complete,
            } => assert!(complete),
            other => panic!("expected clean completion, got {other:?}"),
        }
    }

    #[test]
    fn decode_orders_events_consistently() {
        let p = race_with_assert();
        let tr = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        let mut enc = encode(
            &p,
            &tr,
            &pairs,
            EncodeOptions {
                delivery: DeliveryModel::Unordered,
                negate_props: false,
            },
        );
        assert_eq!(enc.solver.check(), SatResult::Sat);
        let model = enc.solver.model().unwrap().clone();
        let w = decode_witness(&enc, &model, 0);
        // Program order must be respected in the decoded order.
        let mut last_pos = [None; 3];
        for (pos, &idx) in w.event_order.iter().enumerate() {
            let t = tr.events[idx].thread;
            if let Some(prev) = last_pos[t] {
                assert!(pos > prev, "program order violated in decoded witness");
            }
            last_pos[t] = Some(pos);
        }
        // A matched send must appear before its receive.
        let send_pos: HashMap<MsgId, usize> = enc
            .sends
            .iter()
            .map(|s| {
                (
                    s.msg,
                    w.event_order
                        .iter()
                        .position(|&i| i == s.event_idx)
                        .unwrap(),
                )
            })
            .collect();
        for r in &enc.recvs {
            let rpos = w
                .event_order
                .iter()
                .position(|&i| i == r.event_idx)
                .unwrap();
            let (_, msg) = w.matching.iter().find(|(k, _)| *k == r.key).unwrap();
            assert!(send_pos[msg] < rpos, "send must precede its receive");
        }
    }

    #[test]
    fn spurious_witness_from_forged_matching() {
        // Forge a witness that pairs the receive with a message that does
        // not exist; the replay must reject it.
        let p = race_with_assert();
        let tr = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        let mut enc = encode(
            &p,
            &tr,
            &pairs,
            EncodeOptions {
                delivery: DeliveryModel::Unordered,
                negate_props: false,
            },
        );
        assert_eq!(enc.solver.check(), SatResult::Sat);
        let model = enc.solver.model().unwrap().clone();
        let mut w = decode_witness(&enc, &model, 0);
        w.matching = vec![(RecvKey::new(0, 0), MsgId::new(7, 7))];
        let verdict = replay_witness(&p, &tr, &w, DeliveryModel::Unordered);
        assert!(!verdict.is_confirmed());
    }

    #[test]
    fn overapprox_pairs_can_yield_spurious_witness_under_stricter_model() {
        // Encode with Unordered semantics but replay under ZeroDelay: the
        // delayed-delivery witness is not realizable there.
        let p = race_with_assert();
        let tr = complete_trace(&p);
        let pairs = overapprox_match_pairs(&tr);
        let mut enc = encode(&p, &tr, &pairs, EncodeOptions::default());
        assert_eq!(enc.solver.check(), SatResult::Sat);
        let model = enc.solver.model().unwrap().clone();
        let w = decode_witness(&enc, &model, 0);
        // Under the Unordered runtime the witness is real.
        assert!(replay_witness(&p, &tr, &w, DeliveryModel::Unordered).is_confirmed());
    }
}
