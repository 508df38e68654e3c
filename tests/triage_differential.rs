//! The soundness net for the static triage pre-pass (ISSUE 10): with
//! `PortfolioConfig::static_triage` on, scenario verdicts must be
//! bit-identical to the engine-only baseline (`--no-static-triage`) —
//! across the full scale-1 portfolio grid, the whole corpus, and
//! randomized programs. Triage is a *routing* optimisation: it may
//! settle a scenario with zero engine work or feed the path pruner
//! static facts, but it must never change what the portfolio answers.

use driver::runner::{run_portfolio, Mode, PortfolioConfig};
use driver::scenario::{corpus_scenarios, cross, Engine, ProgramSpec, Scenario};
use mcapi::program::Program;
use mcapi::types::DeliveryModel;
use proptest::prelude::*;
use symbolic::paths::{check_program_paths, PathsConfig};
use workloads::grid::default_grid;
use workloads::{random_loop_program, random_program, RandomProgramConfig};

fn triage_cfg(static_triage: bool) -> PortfolioConfig {
    PortfolioConfig {
        threads: 2,
        mode: Mode::Sweep,
        static_triage,
        ..Default::default()
    }
}

/// Run the same scenario set with and without the pre-pass and demand
/// identical verdicts, scenario by scenario. Returns how many triage-on
/// scenarios settled engine-free.
fn assert_verdicts_identical(scenarios: &[Scenario]) -> usize {
    let with = run_portfolio(scenarios, &triage_cfg(true));
    let without = run_portfolio(scenarios, &triage_cfg(false));
    assert_eq!(with.outcomes.len(), without.outcomes.len());
    for (a, b) in with.outcomes.iter().zip(&without.outcomes) {
        assert_eq!(a.scenario, b.scenario, "outcome order must be stable");
        assert_eq!(
            a.verdict, b.verdict,
            "{}: triage-on said {:?} ({}), engine-only said {:?} ({})",
            a.scenario, a.verdict, a.detail, b.verdict, b.detail
        );
        assert!(
            !b.statically_decided,
            "{}: the engine-only baseline must not triage",
            b.scenario
        );
    }
    with.outcomes
        .iter()
        .filter(|o| o.statically_decided)
        .count()
}

/// The full scale-1 grid: 13 families x 3 delivery models x 4 engines.
/// At least one scenario must settle statically (the assert-free families
/// have no property to violate, so analysis alone decides them).
#[test]
fn grid_verdicts_are_bit_identical_with_and_without_triage() {
    let scenarios = cross(&default_grid(1), &DeliveryModel::ALL, &Engine::ALL);
    assert_eq!(
        scenarios.len(),
        156,
        "13 families x 3 deliveries x 4 engines"
    );
    let settled = assert_verdicts_identical(&scenarios);
    assert!(
        settled >= 1,
        "the pre-pass must settle at least one grid scenario engine-free"
    );
}

/// The whole corpus under the branch-complete engine (the engine whose
/// pruner consumes static facts, so both triage effects are in play).
/// `const-assert.mcapi` is a straight-line constant violation, so at
/// least one corpus scenario settles engine-free.
#[test]
fn corpus_verdicts_are_bit_identical_with_and_without_triage() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let scenarios = corpus_scenarios(&dir, &DeliveryModel::ALL, &[Engine::SymbolicPaths]).unwrap();
    assert!(scenarios.len() >= 24 * 3, "whole corpus, every delivery");
    let settled = assert_verdicts_identical(&scenarios);
    assert!(
        settled >= 1,
        "const-assert.mcapi must settle without engine work"
    );
}

/// One random program, two engines, triage on vs off.
fn assert_triage_is_invisible(program: &Program) {
    for engine in [Engine::SymbolicPaths, Engine::Explicit] {
        let spec = ProgramSpec::source(program.name.clone(), program.clone());
        let scenario = [Scenario::new(spec, DeliveryModel::Unordered, engine)];
        let with = &run_portfolio(&scenario, &triage_cfg(true)).outcomes[0];
        let without = &run_portfolio(&scenario, &triage_cfg(false)).outcomes[0];
        assert_eq!(
            with.verdict, without.verdict,
            "{}: triage-on said {:?} ({}), engine-only said {:?} ({})",
            with.scenario, with.verdict, with.detail, without.verdict, without.detail
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Randomized straight-line programs (with and without assertions):
    /// the pre-pass must be invisible in the verdict.
    #[test]
    fn random_programs_agree_with_and_without_triage(
        seed in 0u64..5_000,
        with_assert in any::<bool>(),
    ) {
        let cfg = RandomProgramConfig { with_assert, ..RandomProgramConfig::default() };
        let p = random_program(seed, &cfg);
        assert_triage_is_invisible(&p);
    }

    /// Randomized `repeat` programs: unrolled loops give constant
    /// propagation long chains and the triage guard a real path-count
    /// budget to respect.
    #[test]
    fn random_loop_programs_agree_with_and_without_triage(
        seed in 0u64..3_000,
        rounds in 1usize..3,
    ) {
        let p = random_loop_program(seed, rounds);
        assert_triage_is_invisible(&p);
    }
}

/// The acceptance payoff for fact-fed pruning, on a branchy cross-thread
/// shape: the producer computes `x = 5` and sends the *variable*, so
/// without facts the payload over-approximates to an unconstrained value
/// and the `v >= 10` arm survives to the directed search — while the
/// const-payload fact makes the arm value-infeasible and prunes it. The
/// verdict must not move; `paths_pruned` strictly increases.
#[test]
fn static_facts_strictly_increase_pruning_on_a_branchy_program() {
    let text = "program fact_gap {\n\
                \x20 thread consumer {\n\
                \x20   var v;\n\
                \x20   v = recv(0);\n\
                \x20   if (v >= 10) {\n\
                \x20     assert(v >= 10, \"hi\");\n\
                \x20   } else {\n\
                \x20     assert(v < 10, \"lo\");\n\
                \x20   }\n\
                \x20 }\n\
                \x20 thread producer {\n\
                \x20   var x;\n\
                \x20   x = 5;\n\
                \x20   send(consumer:0, x);\n\
                \x20 }\n\
                }\n";
    let program = frontend::parse_program(text).unwrap();
    let on = check_program_paths(&program, &PathsConfig::default());
    let off = check_program_paths(
        &program,
        &PathsConfig {
            static_facts: false,
            ..PathsConfig::default()
        },
    );
    assert_eq!(
        format!("{:?}", on.verdict),
        format!("{:?}", off.verdict),
        "facts must not change the verdict"
    );
    assert!(
        on.paths_pruned > off.paths_pruned,
        "facts must prune strictly more: {} (on) vs {} (off)",
        on.paths_pruned,
        off.paths_pruned
    );
}
