//! The sleep-set reference explorer (`common/sleepset.rs`): its own
//! reductions against the naive enumeration, and its agreement with
//! `GraphExplorer` on the paper's Fig. 1 and the race family.

mod common;

use common::sleepset::{Schedules, SleepConfig, SleepSetExplorer};
use explicit::{ExploreConfig, ExploreResult, GraphExplorer};
use mcapi::builder::ProgramBuilder;
use mcapi::program::Program;
use mcapi::types::{DeliveryModel, MsgId, RecvKey};
use workloads::fig1::fig1;
use workloads::race_with_winner_assert;

fn naive(p: &Program, model: DeliveryModel) -> ExploreResult {
    let cfg = SleepConfig {
        model,
        use_sleep_sets: false,
        ..Default::default()
    };
    SleepSetExplorer::new(p, cfg).explore()
}

fn reduced(p: &Program, model: DeliveryModel) -> ExploreResult {
    let cfg = SleepConfig {
        model,
        use_sleep_sets: true,
        ..Default::default()
    };
    SleepSetExplorer::new(p, cfg).explore()
}

#[test]
fn sleep_sets_preserve_matchings_on_fig1() {
    let p = fig1();
    for model in DeliveryModel::ALL {
        let full = naive(&p, model);
        let red = reduced(&p, model);
        assert_eq!(full.matchings, red.matchings, "model {model}");
        assert_eq!(full.violations, red.violations);
        assert_eq!(full.deadlocks > 0, red.deadlocks > 0);
    }
}

#[test]
fn sleep_sets_reduce_execution_count() {
    let p = fig1();
    let full = naive(&p, DeliveryModel::Unordered);
    let red = reduced(&p, DeliveryModel::Unordered);
    assert!(
        red.complete_terminals < full.complete_terminals,
        "sleep sets should prune: {} vs {}",
        red.complete_terminals,
        full.complete_terminals
    );
}

#[test]
fn agrees_with_graph_explorer_on_matchings() {
    let p = fig1();
    for model in DeliveryModel::ALL {
        let graph = GraphExplorer::new(&p, ExploreConfig::with_model(model)).explore();
        let red = reduced(&p, model);
        assert_eq!(graph.matchings, red.matchings, "model {model}");
    }
}

#[test]
fn violation_detection_matches_naive() {
    use mcapi::expr::{Cond, Expr};
    use mcapi::types::CmpOp;
    let mut b = ProgramBuilder::new("race-assert");
    let t0 = b.thread("t0");
    let t1 = b.thread("t1");
    let t2 = b.thread("t2");
    let a = b.recv(t0, 0);
    b.assert_cond(
        t0,
        Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)),
        "a==1",
    );
    b.send_const(t1, t0, 0, 1);
    b.send_const(t2, t0, 0, 2);
    let p = b.build().unwrap();
    let full = naive(&p, DeliveryModel::Unordered);
    let red = reduced(&p, DeliveryModel::Unordered);
    assert!(full.found_violation());
    assert!(red.found_violation());
}

fn with_schedules(
    p: &Program,
    model: DeliveryModel,
    sleep: bool,
    canon: bool,
) -> (ExploreResult, Schedules) {
    let cfg = SleepConfig {
        model,
        use_sleep_sets: sleep,
        use_canonical: canon,
        ..Default::default()
    };
    SleepSetExplorer::new(p, cfg).explore_with_schedules()
}

#[test]
fn canonical_agrees_with_naive_on_verdicts_and_matchings() {
    let p = fig1();
    for model in DeliveryModel::ALL {
        let full = naive(&p, model);
        let (canon, _) = with_schedules(&p, model, false, true);
        assert_eq!(full.matchings, canon.matchings, "model {model}");
        assert_eq!(full.violations, canon.violations);
        assert_eq!(full.deadlocks > 0, canon.deadlocks > 0);
    }
}

#[test]
fn canonical_schedules_are_a_subset_of_sleep_set_survivors() {
    // Ascending exploration order + the same independence relation
    // means a schedule taking a sleeping action cannot be in normal
    // form: canonical ⊆ sleep-set-surviving, with or without sleep
    // sets also enabled.
    let p = fig1();
    for model in DeliveryModel::ALL {
        let (sleep, sleep_words) = with_schedules(&p, model, true, false);
        let (_, canon_only_words) = with_schedules(&p, model, false, true);
        let (composed, composed_words) = with_schedules(&p, model, true, true);
        assert!(
            canon_only_words.is_subset(&sleep_words),
            "model {model}: canonical must refine sleep sets"
        );
        assert_eq!(
            composed_words, canon_only_words,
            "model {model}: composing sleep sets must not change the survivors"
        );
        assert!(
            composed.complete_terminals <= sleep.complete_terminals,
            "model {model}"
        );
    }
}

#[test]
fn canonical_alone_matches_the_sleep_set_reduction_on_fig1() {
    // Both prunes keep one linearisation per trace class on an
    // acyclic space, so the canonical filter alone reaches the
    // sleep-set execution count — and prunes well below the naive
    // enumeration.
    let p = fig1();
    let full = naive(&p, DeliveryModel::Unordered);
    let (sleep, _) = with_schedules(&p, DeliveryModel::Unordered, true, false);
    let (canon, _) = with_schedules(&p, DeliveryModel::Unordered, false, true);
    assert!(canon.canonical_skipped > 0);
    assert!(canon.matchings.len() <= canon.complete_terminals);
    assert!(
        canon.complete_terminals < full.complete_terminals,
        "canonical must prune the naive enumeration: {} vs {}",
        canon.complete_terminals,
        full.complete_terminals
    );
    assert_eq!(
        canon.complete_terminals, sleep.complete_terminals,
        "one representative per class either way"
    );
}

#[test]
fn truncation_flag_respected() {
    let p = fig1();
    let cfg = SleepConfig {
        max_executions: 1,
        ..Default::default()
    };
    let r = SleepSetExplorer::new(&p, cfg).explore();
    assert!(r.truncated);
}

#[test]
fn race_assert_violation_found_by_sleep_sets() {
    for n in [3, 5] {
        let p = race_with_winner_assert(n);
        let sleep = SleepSetExplorer::new(&p, SleepConfig::default()).explore();
        assert!(sleep.found_violation(), "sleep sets, n = {n}");
    }
}

#[test]
fn sleep_sets_cut_race_assert_executions() {
    // The explicit side of E5 (violation search as the race widens),
    // without timings: the graph search's states, and the complete
    // executions of the naive enumeration and of the sleep-set one, which
    // keeps n! · (n-1)! of them.
    for (n, graph_states, naive_execs, sleep_execs) in
        [(2, 13, 4, 2), (3, 38, 48, 12), (4, 110, 1_152, 144)]
    {
        let p = race_with_winner_assert(n);
        let graph =
            GraphExplorer::new(&p, ExploreConfig::with_model(DeliveryModel::Unordered)).explore();
        let full = naive(&p, DeliveryModel::Unordered);
        let red = reduced(&p, DeliveryModel::Unordered);
        assert_eq!(
            (
                graph.states,
                full.complete_terminals,
                red.complete_terminals
            ),
            (graph_states, naive_execs, sleep_execs),
            "race-assert({n})"
        );
        assert_eq!(full.matchings, red.matchings, "race-assert({n})");
        assert_eq!(full.violations, red.violations, "race-assert({n})");
    }
}

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
fn sleepset_explorer_agrees() {
    let r = SleepSetExplorer::new(&fig1(), SleepConfig::default()).explore();
    let expected: std::collections::BTreeSet<_> = [fig4a(), fig4b()].into_iter().collect();
    assert_eq!(r.matchings, expected);
}
