//! The portfolio runner: fan a scenario batch out across the pool one grid
//! point at a time, collect [`ScenarioOutcome`]s, aggregate a
//! [`PortfolioReport`]. [`run_engine`] is the one engine dispatch and
//! [`EngineRun::outcome`] the one verdict fold, for the portfolio and the
//! CLI's single-program commands alike.

use crate::pool::{CancelToken, WorkerPool};
use crate::report::{PortfolioReport, ScenarioOutcome, VerdictKind};
use crate::scenario::{batch_by_grid_point, Engine, GridBatch, Scenario};
use explicit::{ExploreConfig, ExploreResult, GraphExplorer};
use mcapi::program::Program;
use std::time::Instant;
use symbolic::checker::{check_source, CheckConfig, CheckReport, MatchGen, SingleTrace, Verdict};
use symbolic::paths::{enumeration_failed, PathEnumerator, PathsConfig};
use symbolic::session::SessionPool;

/// What happens after the first confirmed violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Cancel the rest of the batch ("find any bug fast").
    Race,
    /// Run every scenario to completion ("map the whole grid").
    Sweep,
}

impl Mode {
    /// Stable tag used in reports (`"race"` / `"sweep"`).
    pub fn tag(&self) -> &'static str {
        match self {
            Mode::Race => "race",
            Mode::Sweep => "sweep",
        }
    }
}

/// Portfolio-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct PortfolioConfig {
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Stop-on-first-violation ([`Mode::Race`]) or run-everything
    /// ([`Mode::Sweep`]).
    pub mode: Mode,
    /// Per-scenario wall-clock budget for the *symbolic* solve/refine loop
    /// (maps to [`CheckConfig::budget_ms`]). `None` = unbounded. The
    /// explicit engine is bounded by [`PortfolioConfig::max_states`]
    /// instead — it has no wall-clock knob.
    pub budget_ms: Option<u64>,
    /// Explicit-engine state-count cap (its analogue of a time budget).
    pub max_states: usize,
    /// Share one incremental SMT encoding per (trace, match pairs) across
    /// the delivery models, match generators and sibling control-flow
    /// paths of a grid point (see [`symbolic::session::CheckSession`]).
    /// Disable to run each grid point on a [`SessionPool::one_shot`] pool,
    /// which re-encodes every trace from scratch (the CLI's
    /// `--no-session-reuse`).
    pub session_reuse: bool,
    /// Path budget for the `symbolic-paths` engine: exceeding it degrades
    /// the scenario verdict to unknown, never to a silent safe.
    pub max_paths: usize,
    /// Explore only the canonical representative of each Mazurkiewicz
    /// trace class: the directed searches behind `symbolic-paths` and the
    /// explicit engine's state graph both prune non-canonical schedule
    /// extensions (see [`mcapi::canon`]). On by default; the CLI's
    /// `--no-canonical` sweeps every interleaving instead.
    pub canonical: bool,
    /// Run the static triage pre-pass ([`analysis::analyze_with`]) before
    /// dispatching engines: scenarios whose verdict is statically decided
    /// settle with zero engine work. On by default; the CLI's
    /// `--no-static-triage` disables it — the engine-only baseline the
    /// soundness differential compares against.
    pub static_triage: bool,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            threads: 1,
            mode: Mode::Sweep,
            budget_ms: None,
            max_states: 1_000_000,
            session_reuse: true,
            max_paths: 64,
            canonical: true,
            static_triage: true,
        }
    }
}

impl PortfolioConfig {
    /// The [`CheckConfig`] a symbolic scenario runs under. Public so tests
    /// and experiment binaries can run the *same* configuration through
    /// the sequential checker when validating portfolio verdicts.
    pub fn check_config(&self, scenario: &Scenario) -> CheckConfig {
        let matchgen = match scenario.engine {
            Engine::Symbolic(m) => m,
            // The path engine validates by replay, so the cheap
            // over-approximate generator is the right default.
            Engine::SymbolicPaths => MatchGen::OverApprox,
            Engine::Explicit => unreachable!("check_config is for symbolic scenarios"),
        };
        CheckConfig {
            delivery: scenario.delivery,
            matchgen,
            budget_ms: self.budget_ms,
            ..CheckConfig::default()
        }
    }

    /// The [`PathsConfig`] a `symbolic-paths` scenario runs under.
    pub fn paths_config(&self, scenario: &Scenario) -> PathsConfig {
        PathsConfig {
            check: self.check_config(scenario),
            max_paths: self.max_paths,
            canonical: self.canonical,
            ..PathsConfig::default()
        }
    }

    /// The [`ExploreConfig`] an explicit scenario runs under.
    pub fn explore_config(&self, scenario: &Scenario) -> ExploreConfig {
        ExploreConfig {
            model: scenario.delivery,
            max_states: self.max_states,
            stop_at_first_violation: self.mode == Mode::Race,
            use_canonical: self.canonical,
            ..ExploreConfig::default()
        }
    }
}

/// What the static triage pre-pass concluded about one grid point.
struct TriagePoint {
    /// `Some` when analysis alone decides the verdict every engine would
    /// return; the scenario settles without dispatching an engine.
    settled: Option<(VerdictKind, String)>,
    /// Findings (lint warnings and errors) on the point's program.
    lint_findings: usize,
}

/// Run the static triage pre-pass over a grid point's program; `None`
/// when triage is disabled. The verdict guard lives in
/// [`analysis::triage`]: only assertion facts that hold on *every*
/// execution (straight-run constant violations, all-tautology assertion
/// sets within the path budget) settle a scenario, so a settled verdict
/// is bit-identical to what any engine would answer.
fn triage_point(program: &Program, cfg: &PortfolioConfig) -> Option<TriagePoint> {
    if !cfg.static_triage {
        return None;
    }
    let mut span = trace::span("analysis.triage");
    let report = analysis::analyze_with(
        program,
        &analysis::TriageConfig {
            max_static_paths: cfg.max_paths as u64,
        },
    );
    span.arg("findings", report.findings.len() as u64)
        .arg("settled", report.static_verdict.is_some() as u64);
    let settled = match report.static_verdict {
        Some(analysis::StaticVerdict::Safe) => Some((
            VerdictKind::Safe,
            "statically decided: every reachable assertion is a tautology".to_string(),
        )),
        Some(analysis::StaticVerdict::Violation(msg)) => {
            Some((VerdictKind::Violation, format!("statically decided: {msg}")))
        }
        None => None,
    };
    Some(TriagePoint {
        settled,
        lint_findings: report.findings.len(),
    })
}

/// A blank outcome shell for a scenario, for its engine or triage to fill.
fn outcome_shell(scenario: &Scenario) -> ScenarioOutcome {
    ScenarioOutcome::skipped(
        scenario.name(),
        scenario.spec.family(),
        scenario.delivery.to_string(),
        scenario.engine.tag().to_string(),
    )
}

/// What one engine produced for one scenario, before it is folded into a
/// [`ScenarioOutcome`]. Front ends print from it; the portfolio folds it.
pub enum EngineRun {
    /// A symbolic engine's report, and whether its first trace reused an
    /// encoding the session pool already held.
    Symbolic {
        /// The check loop's folded report.
        report: Box<CheckReport>,
        /// Did the first trace land on an existing encoding?
        reused: bool,
    },
    /// The explicit engine's exploration result.
    Explicit(ExploreResult),
}

impl EngineRun {
    /// The one verdict fold: this run's verdict and counters as the
    /// scenario's outcome. The caller sets `wall_ms` and the triage fields.
    pub fn outcome(&self, scenario: &Scenario) -> ScenarioOutcome {
        let mut out = outcome_shell(scenario);
        match self {
            EngineRun::Symbolic { report, reused } => {
                out.refinements = report.refinements;
                out.sat_vars = report.encode_stats.sat_vars;
                out.sat_clauses = report.encode_stats.sat_clauses;
                out.match_pairs = report.matchgen_pairs;
                out.matchgen_states = report.matchgen_states;
                out.reused_encoding = *reused;
                out.sat_checks = report.sat_checks;
                out.conflicts = report.solver_stats.conflicts;
                out.propagations = report.solver_stats.propagations;
                out.paths_explored = report.paths_explored;
                out.paths_pruned = report.paths_pruned;
                out.directed_transitions = report.directed_transitions;
                out.canonical_skipped = report.canonical_skipped;
                out.encode_us = report.timings.encode_us;
                out.solve_us = report.timings.solve_us;
                out.schedule_us = report.timings.schedule_us;
                out.enumerate_us = report.timings.enumerate_us;
                out.solver = report.solver_stats;
                out.introspect = report.solver_introspect.clone();
                (out.verdict, out.detail) = match &report.verdict {
                    Verdict::Safe => (VerdictKind::Safe, String::new()),
                    Verdict::Violation(cv) => {
                        (VerdictKind::Violation, cv.violated_props.join("; "))
                    }
                    Verdict::Unknown(why) => (VerdictKind::Unknown, why.clone()),
                };
            }
            EngineRun::Explicit(r) => {
                out.states = r.states;
                out.transitions = r.transitions;
                out.canonical_skipped = r.canonical_skipped;
                let messages: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
                (out.verdict, out.detail) = if r.found_violation() {
                    (VerdictKind::Violation, messages.join("; "))
                } else if r.truncated {
                    let why = format!("state budget exhausted at {}", r.states);
                    (VerdictKind::Unknown, why)
                } else {
                    (VerdictKind::Safe, String::new())
                };
            }
        }
        out
    }
}

/// Run `scenario`'s engine on its already-built `program` — the one engine
/// dispatch, shared by [`run_batch`] and the CLI's single-program commands.
/// Symbolic engines draw their encodings from `pool`; the explicit engine
/// ignores it.
pub fn run_engine(
    program: &Program,
    scenario: &Scenario,
    cfg: &PortfolioConfig,
    pool: &mut SessionPool,
) -> EngineRun {
    let (report, reused) = match scenario.engine {
        Engine::Symbolic(_) => {
            let check = cfg.check_config(scenario);
            let mut source = SingleTrace::new(program, &check);
            check_source(pool, program, &mut source, &check)
        }
        // A shared pool lets path traces attach as siblings across the
        // delivery models of one grid point too.
        Engine::SymbolicPaths => {
            let pcfg = cfg.paths_config(scenario);
            match PathEnumerator::new(program, &pcfg) {
                Ok(mut paths) => check_source(pool, program, &mut paths, &pcfg.check),
                Err(why) => (enumeration_failed(program, &pcfg, &why), false),
            }
        }
        Engine::Explicit => {
            let explorer = GraphExplorer::new(program, cfg.explore_config(scenario));
            return EngineRun::Explicit(explorer.explore());
        }
    };
    EngineRun::Symbolic {
        report: Box::new(report),
        reused,
    }
}

/// Run one grid point's scenarios back to back — the pool's only work
/// item. The program is built and triaged once, and every scenario goes
/// through [`run_engine`] with one [`SessionPool`]: with
/// [`PortfolioConfig::session_reuse`] scenarios whose (trace, match pairs)
/// coincide solve incrementally on one encoding, without it each trace is
/// encoded from scratch ([`SessionPool::one_shot`]).
pub fn run_batch(
    batch: &GridBatch,
    cfg: &PortfolioConfig,
    cancel: &CancelToken,
) -> Vec<(usize, ScenarioOutcome)> {
    if cancel.is_cancelled() {
        return batch
            .items
            .iter()
            .map(|(idx, scenario)| (*idx, outcome_shell(scenario)))
            .collect();
    }
    let mut batch_span = trace::span_dyn(format!("batch:{}", batch.spec.family()));
    let program = batch.spec.build();
    // One triage pass per grid point: every engine scenario at the point
    // shares the same program, so a settled verdict settles them all.
    let triage = triage_point(&program, cfg);
    let mut pool = if cfg.session_reuse {
        SessionPool::new()
    } else {
        SessionPool::one_shot()
    };
    let mut out = Vec::with_capacity(batch.items.len());
    for (idx, scenario) in &batch.items {
        if cancel.is_cancelled() {
            out.push((*idx, outcome_shell(scenario)));
            continue;
        }
        let start = Instant::now();
        let mut scenario_span = trace::span_dyn(scenario.name());
        let mut o = match triage.as_ref().and_then(|t| t.settled.clone()) {
            Some((verdict, detail)) => {
                let mut o = outcome_shell(scenario);
                o.verdict = verdict;
                o.detail = detail;
                o.statically_decided = true;
                o
            }
            None => run_engine(&program, scenario, cfg, &mut pool).outcome(scenario),
        };
        if let Some(t) = &triage {
            o.lint_findings = t.lint_findings;
        }
        o.wall_ms = start.elapsed().as_millis() as u64;
        scenario_span
            .arg("sat_checks", o.sat_checks as u64)
            .arg("conflicts", o.conflicts)
            .arg("reused", o.reused_encoding as u64)
            .arg("states", o.states as u64);
        drop(scenario_span);
        if cfg.mode == Mode::Race && o.verdict == VerdictKind::Violation {
            cancel.cancel();
        }
        out.push((*idx, o));
    }
    batch_span.arg("scenarios", batch.items.len() as u64);
    out
}

/// Run the whole batch across the pool and aggregate the report.
///
/// Outcomes keep the submission order of `scenarios` regardless of which
/// worker ran them, so reports are comparable run to run.
///
/// ```
/// use driver::runner::{run_portfolio, Mode, PortfolioConfig};
/// use driver::scenario::{cross, Engine};
/// use mcapi::types::DeliveryModel;
/// use workloads::grid::FamilySpec;
///
/// let scenarios = cross(
///     &[FamilySpec::Fig1, FamilySpec::Fig1Assert],
///     &[DeliveryModel::Unordered],
///     &Engine::ALL,
/// );
/// let cfg = PortfolioConfig { threads: 2, mode: Mode::Sweep, ..Default::default() };
/// let report = run_portfolio(&scenarios, &cfg);
/// assert_eq!(report.outcomes.len(), 8, "2 programs x 4 engines");
/// assert!(report.found_violation(), "fig1-assert races");
/// ```
pub fn run_portfolio(scenarios: &[Scenario], cfg: &PortfolioConfig) -> PortfolioReport {
    run_portfolio_traced(scenarios, cfg, None)
}

/// [`run_portfolio`] with an optional [`trace::Tracer`]: each pool worker
/// records its batches, scenarios, solver queries, and solves onto a
/// `worker-<i>` lane. Tracing is observation only — verdicts and every
/// deterministic counter are bit-identical to an untraced run (asserted
/// by an integration test and a CI step).
pub fn run_portfolio_traced(
    scenarios: &[Scenario],
    cfg: &PortfolioConfig,
    tracer: Option<&trace::Tracer>,
) -> PortfolioReport {
    let start = Instant::now();
    let pool = WorkerPool::new(cfg.threads);
    let cancel = CancelToken::new();
    let per_batch = pool.run_traced(
        batch_by_grid_point(scenarios),
        &cancel,
        tracer,
        |_bidx, batch: GridBatch, cancel| run_batch(&batch, cfg, cancel),
    );
    // Every scenario lands in exactly one batch: back to submission order.
    let mut outcomes: Vec<(usize, ScenarioOutcome)> = per_batch.into_iter().flatten().collect();
    outcomes.sort_by_key(|(idx, _)| *idx);
    let outcomes = outcomes.into_iter().map(|(_, o)| o).collect();
    PortfolioReport::from_outcomes(
        cfg.mode.tag(),
        pool.workers(),
        start.elapsed().as_millis() as u64,
        outcomes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::cross;
    use mcapi::types::DeliveryModel;
    use workloads::grid::FamilySpec;

    #[test]
    fn sweep_runs_everything_and_orders_outcomes() {
        let scenarios = cross(
            &[FamilySpec::Fig1, FamilySpec::Race { width: 2 }],
            &DeliveryModel::ALL,
            &[Engine::Explicit],
        );
        let cfg = PortfolioConfig {
            threads: 3,
            ..Default::default()
        };
        let report = run_portfolio(&scenarios, &cfg);
        assert_eq!(report.outcomes.len(), scenarios.len());
        for (s, o) in scenarios.iter().zip(&report.outcomes) {
            assert_eq!(s.name(), o.scenario);
            assert_eq!(o.verdict, VerdictKind::Safe, "{}", o.scenario);
        }
        assert_eq!(report.skipped, 0);
    }

    #[test]
    fn race_mode_cancels_after_a_violation() {
        // One violating scenario followed by many safe ones on one worker:
        // everything after the violation must be skipped.
        let mut scenarios = cross(
            &[FamilySpec::Fig1Assert],
            &[DeliveryModel::Unordered],
            &[Engine::Explicit],
        );
        scenarios.extend(cross(
            &[
                FamilySpec::Ring { nodes: 3, laps: 1 },
                FamilySpec::Pipeline {
                    stages: 2,
                    items: 2,
                },
            ],
            &DeliveryModel::ALL,
            &[Engine::Explicit],
        ));
        let cfg = PortfolioConfig {
            threads: 1,
            mode: Mode::Race,
            ..Default::default()
        };
        let report = run_portfolio(&scenarios, &cfg);
        assert_eq!(report.violations, 1);
        assert_eq!(report.skipped, scenarios.len() - 1);
    }

    #[test]
    fn symbolic_and_explicit_agree_on_fig1_assert() {
        let scenarios = cross(
            &[FamilySpec::Fig1Assert],
            &[DeliveryModel::Unordered],
            &Engine::ALL,
        );
        let cfg = PortfolioConfig {
            threads: 2,
            ..Default::default()
        };
        let report = run_portfolio(&scenarios, &cfg);
        for o in &report.outcomes {
            assert_eq!(o.verdict, VerdictKind::Violation, "{}", o.scenario);
        }
    }

    #[test]
    fn tiny_budget_degrades_to_unknown_not_wrong() {
        let scenarios = cross(
            &[FamilySpec::Race { width: 4 }],
            &[DeliveryModel::Unordered],
            &[Engine::Explicit],
        );
        let cfg = PortfolioConfig {
            max_states: 3,
            // The race family is assert-free, so triage would settle it
            // Safe before the engine ever sees its tiny budget — this
            // test targets the engine's degradation behaviour.
            static_triage: false,
            ..Default::default()
        };
        let report = run_portfolio(&scenarios, &cfg);
        assert_eq!(report.outcomes[0].verdict, VerdictKind::Unknown);
        assert!(report.outcomes[0].detail.contains("state budget"));
    }

    #[test]
    fn triage_settles_assert_free_grid_points_engine_free() {
        let scenarios = cross(&[FamilySpec::Fig1], &DeliveryModel::ALL, &Engine::ALL);
        let report = run_portfolio(&scenarios, &PortfolioConfig::default());
        assert_eq!(report.statically_decided, scenarios.len());
        for o in &report.outcomes {
            assert_eq!(o.verdict, VerdictKind::Safe, "{}", o.scenario);
            assert!(o.statically_decided, "{}", o.scenario);
            assert!(o.detail.contains("statically decided"), "{}", o.detail);
            assert_eq!(o.sat_checks, 0, "triage must not touch the solver");
            assert_eq!(o.states, 0, "triage must not explore states");
        }
        // The engine-only baseline answers the same verdicts.
        let baseline = run_portfolio(
            &scenarios,
            &PortfolioConfig {
                static_triage: false,
                ..PortfolioConfig::default()
            },
        );
        assert_eq!(baseline.statically_decided, 0);
        for (t, b) in report.outcomes.iter().zip(&baseline.outcomes) {
            assert_eq!(t.verdict, b.verdict, "{}", t.scenario);
        }
    }

    #[test]
    fn triage_stands_aside_on_value_dependent_asserts() {
        let scenarios = cross(
            &[FamilySpec::Branchy { rounds: 2 }],
            &[DeliveryModel::Unordered],
            &Engine::ALL,
        );
        let report = run_portfolio(&scenarios, &PortfolioConfig::default());
        for o in &report.outcomes {
            assert!(!o.statically_decided, "{}", o.scenario);
            assert_eq!(o.verdict, VerdictKind::Safe, "{}", o.scenario);
        }
    }
}
