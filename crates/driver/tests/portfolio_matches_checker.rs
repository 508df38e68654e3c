//! Integration test: portfolio verdicts must agree with single-scenario
//! sequential `symbolic::checker` runs on the same configurations — the
//! driver adds parallelism and aggregation, never a different answer.

use driver::prelude::*;
use mcapi::types::DeliveryModel;
use symbolic::checker::{check_source, CheckReport, SingleTrace, Verdict};
use symbolic::paths::PathEnumerator;
use symbolic::session::SessionPool;

fn verdict_kind(v: &Verdict) -> VerdictKind {
    match v {
        Verdict::Safe => VerdictKind::Safe,
        Verdict::Violation(_) => VerdictKind::Violation,
        Verdict::Unknown(_) => VerdictKind::Unknown,
    }
}

/// The sequential check of one symbolic scenario, each trace encoded from
/// scratch: what the portfolio must reproduce without session reuse.
fn one_shot_check(scenario: &Scenario, cfg: &PortfolioConfig) -> (CheckReport, bool) {
    let program = scenario.spec.build();
    let mut pool = SessionPool::one_shot();
    match scenario.engine {
        Engine::Symbolic(_) => {
            let check = cfg.check_config(scenario);
            let mut source = SingleTrace::new(&program, &check);
            check_source(&mut pool, &program, &mut source, &check)
        }
        Engine::SymbolicPaths => {
            let pcfg = cfg.paths_config(scenario);
            let mut paths = PathEnumerator::new(&program, &pcfg).expect("grid paths enumerate");
            check_source(&mut pool, &program, &mut paths, &pcfg.check)
        }
        Engine::Explicit => unreachable!("symbolic scenarios only"),
    }
}

#[test]
fn one_shot_portfolio_matches_check_source_counter_for_counter() {
    // Every symbolic and paths scenario of the scale-1 grid, run on 4
    // workers with session reuse off, must reproduce the sequential
    // one-shot check exactly: verdict and every deterministic counter.
    // The driver adds parallelism and aggregation, never a different
    // answer or a different amount of work.
    let scenarios = cross(
        &default_grid(1),
        &DeliveryModel::ALL,
        &[
            Engine::Symbolic(symbolic::checker::MatchGen::Precise),
            Engine::Symbolic(symbolic::checker::MatchGen::OverApprox),
            Engine::SymbolicPaths,
        ],
    );
    let cfg = PortfolioConfig {
        threads: 4,
        mode: Mode::Sweep,
        session_reuse: false,
        ..Default::default()
    };
    let report = run_portfolio(&scenarios, &cfg);
    assert_eq!(report.outcomes.len(), scenarios.len());
    assert_eq!(report.skipped, 0, "sweep mode never skips");

    let mut engine_checked = 0;
    for (scenario, o) in scenarios.iter().zip(&report.outcomes) {
        if o.statically_decided {
            continue; // triage settled it: no engine ran
        }
        engine_checked += 1;
        let (r, reused) = one_shot_check(scenario, &cfg);
        let name = scenario.name();
        assert_eq!(o.verdict, verdict_kind(&r.verdict), "verdict on {name}");
        assert_eq!(o.refinements, r.refinements, "refinements on {name}");
        assert_eq!(o.sat_checks, r.sat_checks, "sat_checks on {name}");
        assert_eq!(o.conflicts, r.solver_stats.conflicts, "conflicts on {name}");
        assert_eq!(
            o.propagations, r.solver_stats.propagations,
            "propagations on {name}"
        );
        assert_eq!(o.sat_vars, r.encode_stats.sat_vars, "sat_vars on {name}");
        assert_eq!(
            o.matchgen_states, r.matchgen_states,
            "matchgen_states on {name}"
        );
        assert_eq!(o.match_pairs, r.matchgen_pairs, "match_pairs on {name}");
        assert_eq!(
            o.paths_explored, r.paths_explored,
            "paths_explored on {name}"
        );
        assert_eq!(o.paths_pruned, r.paths_pruned, "paths_pruned on {name}");
        assert_eq!(
            o.directed_transitions, r.directed_transitions,
            "directed_transitions on {name}"
        );
        assert_eq!(
            o.canonical_skipped, r.canonical_skipped,
            "canonical_skipped on {name}"
        );
        assert_eq!(o.reused_encoding, reused, "reused_encoding on {name}");
        assert!(!reused, "{name}: one-shot pools never reuse");
    }
    assert!(
        engine_checked > scenarios.len() / 2,
        "most grid scenarios must reach an engine ({engine_checked} of {})",
        scenarios.len()
    );
}

#[test]
fn portfolio_paths_engine_agrees_with_sequential_path_checker() {
    use symbolic::paths::check_program_paths;
    let scenarios = cross(
        &[
            FamilySpec::Fig1Assert,
            FamilySpec::Branchy { rounds: 2 },
            FamilySpec::DelayGap { chain: 1 },
        ],
        &DeliveryModel::ALL,
        &[Engine::SymbolicPaths],
    );
    let cfg = PortfolioConfig {
        threads: 2,
        mode: Mode::Sweep,
        ..Default::default()
    };
    let report = run_portfolio(&scenarios, &cfg);
    for (scenario, outcome) in scenarios.iter().zip(&report.outcomes) {
        let sequential = check_program_paths(&scenario.spec.build(), &cfg.paths_config(scenario));
        assert_eq!(
            outcome.verdict,
            verdict_kind(&sequential.verdict),
            "portfolio and sequential path checker disagree on {}",
            scenario.name(),
        );
        assert_eq!(outcome.paths_explored, sequential.paths_explored);
        assert_eq!(outcome.paths_pruned, sequential.paths_pruned);
    }
}

#[test]
fn race_assert_violation_is_found_under_every_engine() {
    let scenarios = cross(
        &[FamilySpec::RaceAssert { width: 2 }],
        &[DeliveryModel::Unordered],
        &Engine::ALL,
    );
    let report = run_portfolio(
        &scenarios,
        &PortfolioConfig {
            threads: 3,
            ..Default::default()
        },
    );
    for o in &report.outcomes {
        assert_eq!(o.verdict, VerdictKind::Violation, "{}", o.scenario);
    }
}

#[test]
fn batched_sessions_match_per_scenario_verdicts_on_default_grid() {
    // The acceptance bar for session reuse: on the default scale-1
    // grid, batched shared-encoding checking answers exactly what
    // per-scenario from-scratch checking answers — while building strictly
    // fewer encodings than it runs scenarios.
    let scenarios = cross(&default_grid(1), &DeliveryModel::ALL, &Engine::ALL);
    assert_eq!(
        scenarios.len(),
        156,
        "the default grid (13 families incl. the loop workloads), four engines"
    );
    let batched = run_portfolio(
        &scenarios,
        &PortfolioConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let fresh = run_portfolio(
        &scenarios,
        &PortfolioConfig {
            threads: 2,
            session_reuse: false,
            ..Default::default()
        },
    );
    assert_eq!(batched.outcomes.len(), fresh.outcomes.len());
    for (b, f) in batched.outcomes.iter().zip(&fresh.outcomes) {
        assert_eq!(b.scenario, f.scenario);
        assert_eq!(
            b.verdict, f.verdict,
            "batched and per-scenario checking disagree on {}",
            b.scenario,
        );
    }

    // Reuse must actually happen: strictly fewer encodings than solved
    // symbolic scenarios, and some scenario explicitly flagged as shared.
    let solved_symbolic = batched.outcomes.iter().filter(|o| o.sat_vars > 0).count();
    assert!(
        batched.encodings_built < solved_symbolic,
        "{} encodings for {} solved symbolic scenarios — no sharing",
        batched.encodings_built,
        solved_symbolic,
    );
    assert!(batched.outcomes.iter().any(|o| o.reused_encoding));
    // Without reuse, every solved symbolic scenario encodes from scratch.
    let fresh_solved = fresh.outcomes.iter().filter(|o| o.sat_vars > 0).count();
    assert_eq!(fresh.encodings_built, fresh_solved);
    assert!(fresh.outcomes.iter().all(|o| !o.reused_encoding));

    // And the shared sessions must be cheaper, not just fewer: the
    // conflict+propagation total is the deterministic work counter the CI
    // perf gate tracks.
    let batched_work = batched.total_conflicts + batched.total_propagations;
    let fresh_work = fresh.total_conflicts + fresh.total_propagations;
    assert!(
        batched_work < fresh_work,
        "sharing did not reduce solver work: {batched_work} vs {fresh_work}"
    );
}

#[test]
fn json_report_of_a_real_run_roundtrips() {
    let scenarios = cross(
        &[FamilySpec::Fig1],
        &DeliveryModel::ALL,
        &[Engine::Explicit],
    );
    let report = run_portfolio(&scenarios, &PortfolioConfig::default());
    let back: PortfolioReport = serde_json::from_str(&report.to_json()).unwrap();
    assert_eq!(back.outcomes.len(), report.outcomes.len());
    assert_eq!(back.safe, 3);
}
