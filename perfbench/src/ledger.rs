//! The traced replica of one request and the per-layer ledger it fills.
//!
//! [`replay_request`] performs what `driver::run_batch` does for one grid
//! point — triage once, one `SessionPool` shared by the point's scenarios,
//! then per-engine dispatch — but calls each layer's public entry point
//! itself and times every call from the harness. Nothing is written into
//! the program under test. The timed calls never overlap, so each one is
//! that layer's self time; `paths.prune_us`/`paths.search_us` split
//! `paths.frontier_us`, and `smt.solve_us` is part of `checker.query_us`.
//! A layer's time includes dropping what it built where that is a
//! visible cost: the session pool and the path enumerator.

use analysis::{analyze_with, StaticVerdict, TriageConfig};
use driver::scenario::{Engine, Scenario};
use driver::{PortfolioConfig, ScenarioOutcome, VerdictKind};
use explicit::{ExploreConfig, GraphExplorer};
use mcapi::program::Program;
use std::time::Instant;
use symbolic::checker::{
    check_in_session_at, generate_trace, make_pairs, CheckConfig, CheckReport, TraceSource, Verdict,
};
use symbolic::paths::PathEnumerator;
use symbolic::session::SessionPool;

/// The deterministic part of one check's outcome: what the traced
/// replica must reproduce bit for bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckCounters {
    pub verdict: Option<VerdictKind>,
    pub sat_checks: usize,
    pub conflicts: u64,
    pub propagations: u64,
    pub paths_explored: usize,
    pub paths_pruned: usize,
    pub explicit_states: usize,
    pub matchgen_states: usize,
}

impl CheckCounters {
    /// The counters of an untraced `run_portfolio` outcome.
    pub fn of_outcome(o: &ScenarioOutcome) -> CheckCounters {
        CheckCounters {
            verdict: Some(o.verdict),
            sat_checks: o.sat_checks,
            conflicts: o.conflicts,
            propagations: o.propagations,
            paths_explored: o.paths_explored,
            paths_pruned: o.paths_pruned,
            explicit_states: o.states,
            matchgen_states: o.matchgen_states,
        }
    }
}

/// Layer counts per pass. They depend only on the inputs, never on the
/// seed's order or the clock, so they must repeat exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LayerCounts {
    pub checks: u64,
    pub settled: u64,
    pub matchpairs_states: u64,
    pub matchpairs_pairs: u64,
    pub paths_plans: u64,
    pub paths_explored: u64,
    pub paths_pruned: u64,
    pub directed_transitions: u64,
    pub canonical_skipped: u64,
    pub session_lookups: u64,
    pub session_reused: u64,
    pub session_built: u64,
    pub refinements: u64,
    pub sat_checks: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub explicit_states: u64,
    pub explicit_transitions: u64,
}

/// Layer self times per pass, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LayerTimes {
    pub matchpairs: u64,
    pub paths_setup: u64,
    pub paths_frontier: u64,
    pub paths_prune: u64,
    pub paths_search: u64,
    pub session_encode: u64,
    pub trace_gen: u64,
    pub query: u64,
    pub solve: u64,
    pub explore: u64,
    pub triage: u64,
    /// Starting and joining the request's worker thread: the request wall
    /// minus the time spent inside the worker.
    pub worker: u64,
    /// Traced request wall clock, as seen by the harness.
    pub request_wall: u64,
}

impl LayerTimes {
    /// The disjoint layer self times (children of a reported layer are
    /// not added twice).
    pub fn layer_sum(&self) -> u64 {
        self.matchpairs
            + self.paths_setup
            + self.paths_frontier
            + self.session_encode
            + self.trace_gen
            + self.query
            + self.explore
            + self.triage
            + self.worker
    }
}

/// One pass's ledger.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Ledger {
    pub counts: LayerCounts,
    pub times: LayerTimes,
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replay one request (the scenarios of one program, in batch order)
/// through the layers' public entry points, timing each call into
/// `ledger`. Returns one counter set per scenario.
pub fn replay_request(
    program: &Program,
    scenarios: &[Scenario],
    cfg: &PortfolioConfig,
    ledger: &mut Ledger,
) -> Vec<CheckCounters> {
    let start = Instant::now();
    let (out, batch) = std::thread::scope(|s| {
        s.spawn(|| {
            let t = Instant::now();
            let out = replay_batch(program, scenarios, cfg, ledger);
            (out, since(t))
        })
        .join()
        .expect("replica worker panicked")
    });
    let wall = since(start);
    ledger.times.request_wall += wall;
    ledger.times.worker += wall - batch;
    out
}

fn replay_batch(
    program: &Program,
    scenarios: &[Scenario],
    cfg: &PortfolioConfig,
    ledger: &mut Ledger,
) -> Vec<CheckCounters> {
    let t = Instant::now();
    let report = analyze_with(
        program,
        &TriageConfig {
            max_static_paths: cfg.max_paths as u64,
        },
    );
    ledger.times.triage += since(t);
    let settled = match report.static_verdict {
        Some(StaticVerdict::Safe) => Some(VerdictKind::Safe),
        Some(StaticVerdict::Violation(_)) => Some(VerdictKind::Violation),
        None => None,
    };
    let mut pool = SessionPool::new();
    let mut out = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        ledger.counts.checks += 1;
        let counters = match settled {
            Some(verdict) => {
                ledger.counts.settled += 1;
                CheckCounters {
                    verdict: Some(verdict),
                    ..CheckCounters::default()
                }
            }
            None => match scenario.engine {
                Engine::Symbolic(_) => {
                    replay_single_trace(&mut pool, program, &cfg.check_config(scenario), ledger)
                }
                Engine::SymbolicPaths => replay_paths(&mut pool, program, cfg, scenario, ledger),
                Engine::Explicit => replay_explicit(program, cfg, scenario, ledger),
            },
        };
        out.push(counters);
    }
    ledger.counts.session_built += pool.encodings_built as u64;
    let t = Instant::now();
    drop(pool);
    ledger.times.session_encode += since(t);
    out
}

fn verdict_kind(v: &Verdict) -> VerdictKind {
    match v {
        Verdict::Safe => VerdictKind::Safe,
        Verdict::Violation(_) => VerdictKind::Violation,
        Verdict::Unknown(_) => VerdictKind::Unknown,
    }
}

/// `make_pairs` → `session_for_path` → `check_in_session_at` for one
/// trace, each timed; the shared tail of both symbolic engines.
fn replay_query(
    pool: &mut SessionPool,
    program: &Program,
    trace: &mcapi::trace::Trace,
    cfg: &CheckConfig,
    ledger: &mut Ledger,
) -> (CheckReport, usize) {
    let t = Instant::now();
    let pairs = make_pairs(program, trace, cfg);
    ledger.times.matchpairs += since(t);
    ledger.counts.matchpairs_states += pairs.states_explored as u64;
    ledger.counts.matchpairs_pairs += pairs.num_pairs() as u64;

    let t = Instant::now();
    let (session, slot, reused) = pool.session_for_path(program, trace, &pairs);
    ledger.times.session_encode += since(t);
    ledger.counts.session_lookups += 1;
    ledger.counts.session_reused += u64::from(reused);

    let t = Instant::now();
    let report = check_in_session_at(session, slot, program, trace, cfg);
    ledger.times.query += since(t);
    ledger.times.solve += report.timings.solve_us * 1000;
    ledger.counts.refinements += report.refinements as u64;
    ledger.counts.sat_checks += report.sat_checks as u64;
    ledger.counts.conflicts += report.solver_stats.conflicts;
    ledger.counts.propagations += report.solver_stats.propagations;
    (report, pairs.states_explored)
}

/// The single-trace engines (`check_program_pooled`).
fn replay_single_trace(
    pool: &mut SessionPool,
    program: &Program,
    cfg: &CheckConfig,
    ledger: &mut Ledger,
) -> CheckCounters {
    let t = Instant::now();
    let trace = generate_trace(program, cfg);
    ledger.times.trace_gen += since(t);
    if trace.violation.is_some() {
        // The random trace is its own witness; no solver runs.
        return CheckCounters {
            verdict: Some(VerdictKind::Violation),
            paths_explored: 1,
            ..CheckCounters::default()
        };
    }
    let (report, matchgen_states) = replay_query(pool, program, &trace, cfg, ledger);
    CheckCounters {
        verdict: Some(verdict_kind(&report.verdict)),
        sat_checks: report.sat_checks,
        conflicts: report.solver_stats.conflicts,
        propagations: report.solver_stats.propagations,
        paths_explored: report.paths_explored,
        paths_pruned: report.paths_pruned,
        explicit_states: 0,
        matchgen_states,
    }
}

/// The path engine (`check_program_paths_pooled`), with the frontier's
/// `next_trace` calls timed and split by the enumerator's own
/// prune/search clocks.
fn replay_paths(
    pool: &mut SessionPool,
    program: &Program,
    cfg: &PortfolioConfig,
    scenario: &Scenario,
    ledger: &mut Ledger,
) -> CheckCounters {
    let pcfg = cfg.paths_config(scenario);
    let t = Instant::now();
    let enumerator = PathEnumerator::new(program, &pcfg);
    ledger.times.paths_setup += since(t);
    let Ok(mut enumerator) = enumerator else {
        return CheckCounters {
            verdict: Some(VerdictKind::Unknown),
            ..CheckCounters::default()
        };
    };
    // The enumerator's clocks start with its set-up; only the frontier
    // walk below is split into prune and search.
    let (enum_before, sched_before) = (enumerator.enumerate_us(), enumerator.schedule_us());
    let mut c = CheckCounters::default();
    let mut verdict: Option<VerdictKind> = None;
    let mut unknown = false;
    loop {
        let t = Instant::now();
        let next = enumerator.next_trace();
        ledger.times.paths_frontier += since(t);
        let Some(st) = next else { break };
        if st.trace.violation.is_some() {
            verdict = Some(VerdictKind::Violation);
            break;
        }
        let (report, matchgen_states) = replay_query(pool, program, &st.trace, &pcfg.check, ledger);
        c.sat_checks += report.sat_checks;
        c.conflicts += report.solver_stats.conflicts;
        c.propagations += report.solver_stats.propagations;
        c.matchgen_states += matchgen_states;
        match report.verdict {
            Verdict::Violation(_) => {
                verdict = Some(VerdictKind::Violation);
                break;
            }
            Verdict::Unknown(_) => unknown = true,
            Verdict::Safe => {}
        }
    }
    ledger.times.paths_prune += (enumerator.enumerate_us() - enum_before) * 1000;
    ledger.times.paths_search += (enumerator.schedule_us() - sched_before) * 1000;
    c.paths_explored = enumerator.paths_explored();
    c.paths_pruned = enumerator.paths_pruned();
    ledger.counts.paths_plans += (c.paths_explored + c.paths_pruned) as u64;
    ledger.counts.paths_explored += c.paths_explored as u64;
    ledger.counts.paths_pruned += c.paths_pruned as u64;
    ledger.counts.directed_transitions += enumerator.directed_transitions();
    ledger.counts.canonical_skipped += enumerator.canonical_skipped();
    c.verdict = Some(verdict.unwrap_or(if unknown || enumerator.truncated() {
        VerdictKind::Unknown
    } else {
        VerdictKind::Safe
    }));
    let t = Instant::now();
    drop(enumerator);
    ledger.times.paths_setup += since(t);
    c
}

/// The explicit-state engine, configured as the driver configures it.
fn replay_explicit(
    program: &Program,
    cfg: &PortfolioConfig,
    scenario: &Scenario,
    ledger: &mut Ledger,
) -> CheckCounters {
    let explore_cfg = ExploreConfig {
        model: scenario.delivery,
        max_states: cfg.max_states,
        stop_at_first_violation: cfg.mode == driver::Mode::Race,
        use_canonical: cfg.canonical,
        ..ExploreConfig::default()
    };
    let t = Instant::now();
    let result = GraphExplorer::new(program, explore_cfg).explore();
    ledger.times.explore += since(t);
    ledger.counts.explicit_states += result.states as u64;
    ledger.counts.explicit_transitions += result.transitions as u64;
    let verdict = if result.found_violation() {
        VerdictKind::Violation
    } else if result.truncated {
        VerdictKind::Unknown
    } else {
        VerdictKind::Safe
    };
    CheckCounters {
        verdict: Some(verdict),
        explicit_states: result.states,
        ..CheckCounters::default()
    }
}
