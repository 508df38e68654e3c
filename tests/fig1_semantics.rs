//! F1/F4: the paper's Figure 1 program and its two Figure 4 pairings —
//! reproduced by every layer of the stack independently.

use explicit::{ground_truth_check, mcc_check};
use mcapi::types::{DeliveryModel, MsgId, RecvKey};
use symbolic::checker::{
    check_program, enumerate_matchings, generate_trace, CheckConfig, MatchGen, Verdict,
};
use workloads::fig1::{fig1, fig1_with_assert, X, Y};

/// The two pairings of the paper's Fig. 4 as canonical matchings.
fn fig4a() -> Vec<(RecvKey, MsgId)> {
    vec![
        (RecvKey::new(0, 0), MsgId::new(2, 0)), // recv(A) <- send(Y)
        (RecvKey::new(0, 1), MsgId::new(1, 0)), // recv(B) <- send(X)
        (RecvKey::new(1, 0), MsgId::new(2, 1)), // recv(C) <- send(Z)
    ]
}

fn fig4b() -> Vec<(RecvKey, MsgId)> {
    vec![
        (RecvKey::new(0, 0), MsgId::new(1, 0)), // recv(A) <- send(X)
        (RecvKey::new(0, 1), MsgId::new(2, 0)), // recv(B) <- send(Y)
        (RecvKey::new(1, 0), MsgId::new(2, 1)), // recv(C) <- send(Z)
    ]
}

#[test]
fn ground_truth_finds_exactly_fig4a_and_fig4b() {
    let r = ground_truth_check(&fig1());
    let expected: std::collections::BTreeSet<_> = [fig4a(), fig4b()].into_iter().collect();
    assert_eq!(r.matchings, expected);
}

#[test]
fn mcc_finds_only_fig4a() {
    let r = mcc_check(&fig1());
    let expected: std::collections::BTreeSet<_> = [fig4a()].into_iter().collect();
    assert_eq!(
        r.matchings, expected,
        "MCC's zero-delay network sees only Fig. 4a"
    );
}

#[test]
fn symbolic_enumeration_finds_exactly_fig4a_and_fig4b() {
    let p = fig1();
    for matchgen in [MatchGen::Precise, MatchGen::OverApprox] {
        let cfg = CheckConfig {
            matchgen,
            ..CheckConfig::default()
        };
        let trace = generate_trace(&p, &cfg);
        let en = enumerate_matchings(&p, &trace, &cfg, 100);
        let expected: std::collections::BTreeSet<_> = [fig4a(), fig4b()].into_iter().collect();
        assert_eq!(en.matchings, expected, "{matchgen:?}");
    }
}

#[test]
fn symbolic_zero_delay_finds_only_fig4a() {
    let p = fig1();
    let cfg = CheckConfig {
        delivery: DeliveryModel::ZeroDelay,
        matchgen: MatchGen::OverApprox,
        ..CheckConfig::default()
    };
    let trace = generate_trace(&p, &cfg);
    let en = enumerate_matchings(&p, &trace, &cfg, 100);
    let expected: std::collections::BTreeSet<_> = [fig4a()].into_iter().collect();
    assert_eq!(en.matchings, expected);
}

#[test]
fn fig1_assert_violation_found_symbolically_but_not_by_mcc_model() {
    // fig1_with_assert: "recv(A) == Y" — violated exactly by Fig. 4b.
    let p = fig1_with_assert();

    // Symbolic, arbitrary delays: violation (Fig. 4b reachable).
    let report = check_program(&p, &CheckConfig::default());
    match &report.verdict {
        Verdict::Violation(cv) => {
            // The violating matching is Fig. 4b: recv(A) <- X.
            let a_binding = cv
                .witness
                .matching
                .iter()
                .find(|(k, _)| *k == RecvKey::new(0, 0));
            assert_eq!(a_binding.unwrap().1, MsgId::new(1, 0));
            // Replay produced the concrete assertion failure.
            assert!(cv.violation.is_some());
        }
        other => panic!("expected violation, got {other:?}"),
    }

    // Symbolic with the zero-delay axioms (the MCC model): safe.
    let zd = CheckConfig {
        delivery: DeliveryModel::ZeroDelay,
        ..CheckConfig::default()
    };
    let report = check_program(&p, &zd);
    assert!(matches!(report.verdict, Verdict::Safe));

    // Explicit MCC: also misses it; ground truth finds it.
    assert!(!mcc_check(&p).found_violation());
    assert!(ground_truth_check(&p).found_violation());
}

#[test]
fn payload_values_flow_correctly() {
    // In the violating (4b) execution, recv(A)'s value is X's payload.
    let p = fig1_with_assert();
    let report = check_program(&p, &CheckConfig::default());
    let Verdict::Violation(cv) = &report.verdict else {
        panic!("expected violation");
    };
    let a_val = cv
        .witness
        .recv_values
        .iter()
        .find(|(k, _)| *k == RecvKey::new(0, 0))
        .map(|(_, v)| *v);
    assert_eq!(a_val, Some(X));
    let b_val = cv
        .witness
        .recv_values
        .iter()
        .find(|(k, _)| *k == RecvKey::new(0, 1))
        .map(|(_, v)| *v);
    assert_eq!(b_val, Some(Y));
}
