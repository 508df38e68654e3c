//! Witness validity: every SAT model decodes to a witness that replays on
//! the concrete runtime (with precise match pairs), and replayed witnesses
//! reproduce the predicted values, matching and verdict.

use mcapi::types::{DeliveryModel, RecvKey};
use symbolic::checker::{check_program, generate_trace, CheckConfig, MatchGen, Verdict};
use symbolic::encode::{encode, EncodeOptions};
use symbolic::matchpairs::precise_match_pairs;
use symbolic::witness::{decode_witness, replay_witness, ReplayVerdict};
use workloads::race::{delay_gap, race, race_with_winner_assert};
use workloads::{fig1, scatter};

/// Enumerate every model of the enumeration encoding and replay each one.
fn all_models_replay(program: &mcapi::Program, model: DeliveryModel) {
    let cfg = CheckConfig {
        delivery: model,
        ..CheckConfig::default()
    };
    let trace = generate_trace(program, &cfg);
    if !trace.is_complete() || trace.violation.is_some() {
        return;
    }
    let pairs = precise_match_pairs(program, &trace, model);
    let mut enc = encode(
        program,
        &trace,
        &pairs,
        EncodeOptions {
            delivery: model,
            negate_props: false,
        },
    );
    let ids = enc.id_terms();
    let mut count = 0;
    loop {
        match enc.solver.check() {
            smt::SatResult::Sat => {
                let m = enc.solver.model().unwrap().clone();
                let w = decode_witness(&enc, &m, 0);
                let verdict = replay_witness(program, &trace, &w, model);
                match verdict {
                    ReplayVerdict::Confirmed {
                        complete,
                        violation,
                    } => {
                        assert!(complete, "{}: witness did not complete", program.name);
                        assert!(violation.is_none());
                    }
                    ReplayVerdict::Spurious { at_event, reason } => panic!(
                        "{} [{model}]: spurious witness with PRECISE pairs at {at_event}: {reason}",
                        program.name
                    ),
                }
                count += 1;
                assert!(count < 10_000, "runaway enumeration");
                assert!(enc.solver.block_model_values(&ids));
            }
            smt::SatResult::Unsat => break,
            smt::SatResult::Unknown => panic!("unknown"),
        }
    }
    assert!(count > 0, "{}: no model at all", program.name);
}

#[test]
fn fig1_all_models_replay_all_delivery_models() {
    let p = fig1();
    for model in DeliveryModel::ALL {
        all_models_replay(&p, model);
    }
}

#[test]
fn race_all_models_replay() {
    for n in 2..=3 {
        all_models_replay(&race(n), DeliveryModel::Unordered);
    }
}

#[test]
fn scatter_all_models_replay() {
    all_models_replay(&scatter(2), DeliveryModel::Unordered);
}

#[test]
fn violating_witness_values_match_replayed_locals() {
    let p = race_with_winner_assert(3);
    let report = check_program(&p, &CheckConfig::with_matchgen(MatchGen::Precise));
    let Verdict::Violation(cv) = &report.verdict else {
        panic!("expected violation");
    };
    // The first receive's predicted value must be != 1 (that is the
    // violated property), and within the payload range.
    let (_, v) = cv
        .witness
        .recv_values
        .iter()
        .find(|(k, _)| *k == RecvKey::new(0, 0))
        .expect("first receive valued");
    assert_ne!(*v, 1, "property said first == 1, witness must refute it");
    assert!((2..=3).contains(v), "payload out of range: {v}");
    // Replay agrees: concrete violation recorded.
    assert!(cv.violation.is_some());
}

#[test]
fn witness_event_order_is_causal() {
    // In every violating witness, each send precedes its matched receive
    // and per-thread order is preserved (structural checks on the witness,
    // independent of replay).
    let p = delay_gap(1);
    let report = check_program(&p, &CheckConfig::default());
    let Verdict::Violation(cv) = &report.verdict else {
        panic!("expected violation");
    };
    let order = &cv.witness.event_order;
    let trace = &cv.trace;
    let pos_of = |idx: usize| order.iter().position(|&i| i == idx).unwrap();
    // Per-thread monotonicity.
    let mut last: Vec<Option<usize>> = vec![None; 8];
    for &idx in order {
        let t = trace.events[idx].thread;
        if let Some(prev) = last[t] {
            assert!(pos_of(idx) > pos_of(prev));
        }
        last[t] = Some(idx);
    }
}

#[test]
fn replay_rejects_wrong_delivery_model() {
    // A witness that needs delays cannot replay under ZeroDelay.
    let p = delay_gap(1);
    let cfg = CheckConfig::default();
    let trace = generate_trace(&p, &cfg);
    let pairs = precise_match_pairs(&p, &trace, DeliveryModel::Unordered);
    let mut enc = encode(&p, &trace, &pairs, EncodeOptions::default());
    assert_eq!(enc.solver.check(), smt::SatResult::Sat);
    let m = enc.solver.model().unwrap().clone();
    let w = decode_witness(&enc, &m, 0);
    // Under the paper's model the witness is real…
    assert!(replay_witness(&p, &trace, &w, DeliveryModel::Unordered).is_confirmed());
    // …under instant delivery it must be rejected (the whole point).
    let zd = replay_witness(&p, &trace, &w, DeliveryModel::ZeroDelay);
    assert!(
        !zd.is_confirmed(),
        "delay-dependent witness replayed under zero delay"
    );
}
