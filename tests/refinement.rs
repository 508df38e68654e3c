//! E3: the over-approximation + validate-and-refine loop (the paper's
//! future work) converges to the precise verdict on every workload.
//! Also the differential net for the precise generator's state merging,
//! its pinned state counts and its deadline fallback.

use mcapi::builder::ProgramBuilder;
use mcapi::program::Program;
use mcapi::state::SysState;
use mcapi::trace::Trace;
use mcapi::types::{DeliveryModel, RecvKey};
use proptest::prelude::*;
use std::collections::HashSet;
use std::time::{Duration, Instant};
use symbolic::checker::{
    check_program, enumerate_matchings, generate_trace, make_pairs, CheckConfig, MatchGen, Verdict,
};
use symbolic::matchpairs::{
    overapprox_match_pairs, precise_match_pairs, trace_skeleton, MatchPairs,
};
use workloads::race::{delay_gap, race_with_winner_assert};
use workloads::{
    branchy, default_grid, fig1, fig1_with_assert, pipeline, race, random_loop_program,
    random_program, scatter, RandomProgramConfig,
};

fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::Violation(_) => "violation",
        Verdict::Safe => "safe",
        Verdict::Unknown(_) => "unknown",
    }
}

#[test]
fn precise_and_overapprox_verdicts_always_agree() {
    let programs = vec![
        fig1(),
        fig1_with_assert(),
        race(3),
        race_with_winner_assert(2),
        race_with_winner_assert(3),
        race_with_winner_assert(4),
        delay_gap(1),
        delay_gap(2),
        pipeline(3, 2),
        pipeline(3, 3),
        scatter(2),
        scatter(3),
    ];
    for p in &programs {
        for model in DeliveryModel::ALL {
            let pr = check_program(
                p,
                &CheckConfig {
                    delivery: model,
                    matchgen: MatchGen::Precise,
                    ..Default::default()
                },
            );
            let ov = check_program(
                p,
                &CheckConfig {
                    delivery: model,
                    matchgen: MatchGen::OverApprox,
                    ..Default::default()
                },
            );
            assert_eq!(
                verdict_name(&pr.verdict),
                verdict_name(&ov.verdict),
                "{} [{model}]: precise {:?} vs overapprox {:?}",
                p.name,
                pr.verdict,
                ov.verdict
            );
        }
    }
}

#[test]
fn overapprox_is_superset_and_cheaper() {
    let programs = vec![fig1(), race(3), pipeline(3, 2), scatter(2)];
    for p in &programs {
        let cfg = CheckConfig::default();
        let trace = generate_trace(p, &cfg);
        let precise = precise_match_pairs(p, &trace, DeliveryModel::Unordered);
        let over = overapprox_match_pairs(p, &trace);
        assert!(
            over.contains(&precise),
            "{}: over-approximation must contain the precise set",
            p.name
        );
        assert!(
            over.states_explored <= precise.states_explored,
            "{}: over-approximation must not cost more",
            p.name
        );
    }
}

#[test]
fn precise_state_counts_on_race_and_scatter_are_pinned() {
    // The E2 table without timings: precise DFS states and pairs, and the
    // over-approximation's pairs, which add no spurious pair on these
    // fully racy endpoints.
    let mut table: Vec<(Program, usize, usize)> = (2..=7)
        .map(|n| (race(n), 3usize.pow(n as u32), n * n))
        .collect();
    table.extend([
        (scatter(2), 22, 6),
        (scatter(3), 80, 12),
        (scatter(4), 300, 20),
    ]);
    for (p, states, pairs) in &table {
        let trace = generate_trace(p, &CheckConfig::default());
        let precise = precise_match_pairs(p, &trace, DeliveryModel::Unordered);
        let over = overapprox_match_pairs(p, &trace);
        assert_eq!(
            (
                precise.states_explored,
                precise.num_pairs(),
                over.num_pairs()
            ),
            (*states, *pairs, *pairs),
            "{}",
            p.name
        );
    }
}

#[test]
fn refinement_blocks_spurious_models_on_pipeline() {
    // The pipeline under PairwiseFifo: endpoint-based over-approximation
    // admits cross-item matchings that FIFO forbids; the encoding's FIFO
    // axioms already exclude them, so enumeration agrees with precise.
    let p = pipeline(3, 2);
    let cfg_over = CheckConfig {
        delivery: DeliveryModel::PairwiseFifo,
        matchgen: MatchGen::OverApprox,
        ..Default::default()
    };
    let cfg_precise = CheckConfig {
        delivery: DeliveryModel::PairwiseFifo,
        matchgen: MatchGen::Precise,
        ..Default::default()
    };
    let trace = generate_trace(&p, &cfg_over);
    let en_over = enumerate_matchings(&p, &trace, &cfg_over, 1000);
    let en_precise = enumerate_matchings(&p, &trace, &cfg_precise, 1000);
    assert_eq!(en_over.matchings, en_precise.matchings);
}

#[test]
fn spurious_counter_is_zero_for_precise_pairs() {
    let p = race(3);
    let cfg = CheckConfig {
        matchgen: MatchGen::Precise,
        ..Default::default()
    };
    let trace = generate_trace(&p, &cfg);
    let en = enumerate_matchings(&p, &trace, &cfg, 1000);
    assert_eq!(en.spurious, 0);
    assert_eq!(en.matchings.len(), 6); // 3! matchings
}

#[test]
fn refinement_count_is_reported() {
    // delay_gap(1) under OverApprox may require refinements when the SMT
    // model picks an unrealisable pairing first; either way the verdict is
    // a confirmed violation and the counter is consistent.
    let p = delay_gap(1);
    let cfg = CheckConfig {
        matchgen: MatchGen::OverApprox,
        ..Default::default()
    };
    let report = check_program(&p, &cfg);
    assert!(matches!(report.verdict, Verdict::Violation(_)));
    assert!(report.refinements <= 1000);
}

#[test]
fn unknown_when_refinement_budget_exhausted() {
    // With a refinement budget of zero and over-approximate pairs on a
    // program whose first witness is spurious, the checker must give up
    // gracefully rather than loop. Construct such a case: encode with
    // Unordered but a PairwiseFifo-restricted runtime cannot replay
    // reordered same-source matchings.
    use mcapi::expr::{Cond, Expr};
    use mcapi::types::CmpOp;
    let mut b = ProgramBuilder::new("fifo-trap");
    let t0 = b.thread("t0");
    let t1 = b.thread("t1");
    let a = b.recv(t0, 0);
    let _b2 = b.recv(t0, 0);
    b.assert_cond(
        t0,
        Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)),
        "in order",
    );
    b.send_const(t1, t0, 0, 1);
    b.send_const(t1, t0, 0, 2);
    let p = b.build().unwrap();
    // Under PairwiseFifo the assert holds (safe); under Unordered it can
    // fail. Check both still answer definitively even with tiny budgets.
    let cfg = CheckConfig {
        delivery: DeliveryModel::PairwiseFifo,
        matchgen: MatchGen::OverApprox,
        max_refinements: 0,
        ..Default::default()
    };
    let report = check_program(&p, &cfg);
    // The FIFO axioms exclude the reordering inside the SMT problem, so
    // no refinement is needed: Safe.
    assert!(
        matches!(report.verdict, Verdict::Safe),
        "{:?}",
        report.verdict
    );
}

/// States the reference DFS may visit before it gives up. Only
/// `loop-storm.mcapi` under the unordered model reaches it: the full-state
/// search there runs to millions of states.
const REFERENCE_CAP: usize = 200_000;

/// The precise generator without state merging: a DFS over whole
/// `SysState`s plus per-thread receive counts. Test-only, as the reference
/// `precise_match_pairs` must agree with pair for pair. The second value
/// is `false` when the search stopped at [`REFERENCE_CAP`]; the pairs found
/// so far are then a subset of the precise set.
fn full_state_pairs(program: &Program, trace: &Trace, model: DeliveryModel) -> (MatchPairs, bool) {
    let skeleton = trace_skeleton(program, trace);
    let mut pairs = MatchPairs {
        generator: "precise-dfs",
        ..Default::default()
    };
    let mut visited: HashSet<(SysState, Vec<u16>)> = HashSet::new();
    let init = SysState::initial(&skeleton);
    let counts = vec![0u16; skeleton.threads.len()];
    full_state_dfs(&skeleton, model, init, counts, &mut visited, &mut pairs);
    let complete = visited.len() < REFERENCE_CAP;
    (pairs, complete)
}

fn full_state_dfs(
    skeleton: &Program,
    model: DeliveryModel,
    state: SysState,
    recv_counts: Vec<u16>,
    visited: &mut HashSet<(SysState, Vec<u16>)>,
    pairs: &mut MatchPairs,
) {
    if visited.len() >= REFERENCE_CAP {
        return;
    }
    if !visited.insert((state.clone(), recv_counts.clone())) {
        return;
    }
    pairs.states_explored += 1;
    for action in state.enabled_actions(skeleton, model) {
        let mut counts = recv_counts.clone();
        if let Some(msg) = action.message() {
            let t = action.thread();
            let key = RecvKey::new(t, counts[t] as usize);
            counts[t] += 1;
            pairs.sends_for.entry(key).or_default().insert(msg);
        }
        let (next, _) = state.apply(skeleton, action, model);
        full_state_dfs(skeleton, model, next, counts, visited, pairs);
    }
}

/// `precise_match_pairs` equals the full-state reference on `program`'s
/// generated trace under every delivery model. Where the reference stops
/// at its cap, what it found must be contained in the precise set; the
/// models where that happened are returned.
fn assert_pairs_match_reference(program: &Program) -> Vec<DeliveryModel> {
    let mut capped = Vec::new();
    for model in DeliveryModel::ALL {
        let cfg = CheckConfig {
            delivery: model,
            ..Default::default()
        };
        let trace = generate_trace(program, &cfg);
        let got = precise_match_pairs(program, &trace, model);
        let (want, complete) = full_state_pairs(program, &trace, model);
        if complete {
            assert_eq!(
                got.sends_for, want.sends_for,
                "{} [{model}]: precise pairs differ from the full-state DFS",
                program.name
            );
            assert!(got.states_explored <= want.states_explored);
        } else {
            assert!(
                got.contains(&want),
                "{} [{model}]: the full-state DFS found pairs the precise set lacks",
                program.name
            );
            capped.push(model);
        }
    }
    capped
}

fn corpus_programs() -> Vec<Program> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mcapi"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|f| {
            let src = std::fs::read_to_string(f).expect("readable corpus file");
            frontend::parse_program(&src).expect("corpus file parses")
        })
        .collect()
}

/// Two senders each put a message in flight to `c` and then notify a
/// gate, which releases `c` only after both notifications. Under
/// zero-delay `c`'s first receive takes whichever message was sent first,
/// and no other state tells the two send orders apart, so a key that
/// forgot the order would lose a pair.
fn send_order_gate() -> Program {
    let mut b = ProgramBuilder::new("send-order-gate");
    let c = b.thread("c");
    let s1 = b.thread("s1");
    let s2 = b.thread("s2");
    let gate = b.thread("gate");
    b.recv(c, 1);
    b.recv(c, 0);
    b.recv(c, 0);
    b.send_const(s1, c, 0, 1);
    b.send_const(s1, gate, 0, 0);
    b.send_const(s2, c, 0, 2);
    b.send_const(s2, gate, 0, 0);
    b.recv(gate, 0);
    b.recv(gate, 0);
    b.send_const(gate, c, 1, 0);
    b.build().unwrap()
}

#[test]
fn precise_pairs_equal_full_state_dfs_on_grid_and_corpus() {
    assert!(assert_pairs_match_reference(&send_order_gate()).is_empty());
    for spec in default_grid(4) {
        let capped = assert_pairs_match_reference(&spec.build());
        assert!(capped.is_empty(), "{}: reference capped", spec.name());
    }
    let corpus = corpus_programs();
    assert!(corpus.len() >= 24);
    let mut capped = Vec::new();
    for p in &corpus {
        for model in assert_pairs_match_reference(p) {
            capped.push(format!("{} [{model}]", p.name));
        }
    }
    assert_eq!(capped, ["loop-storm [unordered]"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random branch-free and `repeat` programs: the key must merge only
    /// states whose futures agree, whatever the communication shape.
    #[test]
    fn precise_pairs_equal_full_state_dfs_on_random_programs(
        seed in 0u64..5_000,
        rounds in 1usize..3,
    ) {
        let p = random_program(seed, &RandomProgramConfig::default());
        prop_assert!(assert_pairs_match_reference(&p).is_empty());
        let p = random_loop_program(seed, rounds);
        prop_assert!(assert_pairs_match_reference(&p).is_empty());
    }
}

#[test]
fn branchy5_precise_pairs_are_the_endpoint_pairs_in_few_states() {
    // The full-state DFS visited 12,232,674 states here to find exactly
    // the endpoint over-approximation.
    let p = branchy(5);
    let trace = generate_trace(&p, &CheckConfig::default());
    let precise = precise_match_pairs(&p, &trace, DeliveryModel::Unordered);
    let over = overapprox_match_pairs(&p, &trace);
    assert_eq!(precise.sends_for, over.sends_for);
    assert_eq!(precise.num_pairs(), 100);
    assert!(
        precise.states_explored <= 5_000,
        "{} states",
        precise.states_explored
    );
}

#[test]
fn precise_pairs_equal_full_state_dfs_on_four_nonblocking_threads() {
    // Keyed on the global send order, the zero-delay search here ran for
    // over 30 s in a release build; keyed per destination it visits
    // 62,844 states.
    let p = random_program(
        1,
        &RandomProgramConfig {
            threads: 4,
            sends_per_thread: 3,
            nonblocking_percent: 50,
            ..Default::default()
        },
    );
    let capped = assert_pairs_match_reference(&p);
    // The full-state DFS runs past its cap under these two models, so
    // there the precise set is only checked to contain what it found.
    assert_eq!(capped, [DeliveryModel::Unordered, DeliveryModel::ZeroDelay]);
    let cfg = CheckConfig {
        delivery: DeliveryModel::ZeroDelay,
        ..Default::default()
    };
    let trace = generate_trace(&p, &cfg);
    let precise = precise_match_pairs(&p, &trace, DeliveryModel::ZeroDelay);
    assert_eq!((precise.num_pairs(), precise.states_explored), (32, 62_844));
}

#[test]
fn scatter5_zero_delay_state_count_is_pinned() {
    // Under zero-delay only the order of in-flight send sequence numbers
    // matters, and only among messages to one destination. Keying on the
    // absolute numbers visited 10,295 states here, on the global send
    // order 3,680, and the full-state DFS visits 12,602.
    let p = scatter(5);
    let cfg = CheckConfig {
        delivery: DeliveryModel::ZeroDelay,
        ..Default::default()
    };
    let trace = generate_trace(&p, &cfg);
    let precise = precise_match_pairs(&p, &trace, DeliveryModel::ZeroDelay);
    assert_eq!(precise.states_explored, 2_433);
}

#[test]
fn precise_pairs_past_their_deadline_fall_back_to_endpoint_pairs() {
    // Under zero-delay fig1's precise set is strictly smaller than the
    // endpoint set, so the fallback is visible.
    let p = fig1();
    let cfg = CheckConfig {
        delivery: DeliveryModel::ZeroDelay,
        matchgen: MatchGen::Precise,
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..Default::default()
    };
    let trace = generate_trace(&p, &cfg);
    let over = overapprox_match_pairs(&p, &trace);
    assert_ne!(
        precise_match_pairs(&p, &trace, DeliveryModel::ZeroDelay).sends_for,
        over.sends_for
    );
    let pairs = make_pairs(&p, &trace, &cfg);
    assert_eq!(pairs.sends_for, over.sends_for);
    assert_eq!(pairs.generator, over.generator);
    assert_eq!(pairs.states_explored, 0);
}

#[test]
fn zero_budget_precise_checks_end_unknown_and_never_flip() {
    let programs = [
        fig1(),
        race(3),
        race_with_winner_assert(3),
        delay_gap(2),
        scatter(3),
        branchy(3),
    ];
    for p in &programs {
        for model in DeliveryModel::ALL {
            let cfg = CheckConfig {
                delivery: model,
                matchgen: MatchGen::Precise,
                ..Default::default()
            };
            let full = check_program(p, &cfg).verdict;
            let zero = check_program(
                p,
                &CheckConfig {
                    budget_ms: Some(0),
                    ..cfg
                },
            )
            .verdict;
            let name = verdict_name(&zero);
            assert!(
                name == "unknown" || name == verdict_name(&full),
                "{} [{model}]: budget 0 gave {zero:?}, unbounded {full:?}",
                p.name
            );
        }
    }
    let zero = check_program(
        &fig1(),
        &CheckConfig {
            matchgen: MatchGen::Precise,
            budget_ms: Some(0),
            ..Default::default()
        },
    );
    assert!(
        matches!(zero.verdict, Verdict::Unknown(_)),
        "{:?}",
        zero.verdict
    );
}
