//! Structured portfolio results: per-scenario outcomes and the aggregate
//! [`PortfolioReport`], serialisable to JSON and renderable as a table.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Collapsed verdict of one scenario (engine-agnostic).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum VerdictKind {
    /// No reachable assertion violation (within the engine's soundness
    /// envelope — the trace's branch outcomes for the symbolic engine).
    Safe,
    /// A confirmed assertion violation.
    Violation,
    /// Budget exhausted or otherwise inconclusive.
    Unknown,
    /// Never ran: a race-mode portfolio was cancelled first.
    #[default]
    Skipped,
}

impl fmt::Display for VerdictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VerdictKind::Safe => "safe",
            VerdictKind::Violation => "VIOLATION",
            VerdictKind::Unknown => "unknown",
            VerdictKind::Skipped => "skipped",
        };
        f.write_str(s)
    }
}

/// Everything recorded about one finished (or skipped) scenario.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Unique scenario name (`point/delivery/engine`).
    pub scenario: String,
    /// Workload family tag (`race`, `ring`, ...).
    pub family: String,
    /// Delivery model tag.
    pub delivery: String,
    /// Engine tag.
    pub engine: String,
    /// Collapsed verdict.
    pub verdict: VerdictKind,
    /// Violated property messages, or the `Unknown` reason.
    pub detail: String,
    /// The verdict was settled by the static triage pre-pass with zero
    /// engine work ([`crate::runner::PortfolioConfig::static_triage`]).
    #[serde(default)]
    pub statically_decided: bool,
    /// Static-analysis findings (lint warnings and errors) on the
    /// scenario's program; recorded whenever the triage pre-pass runs.
    #[serde(default)]
    pub lint_findings: usize,
    /// Wall-clock time spent on this scenario.
    pub wall_ms: u64,
    /// Spurious witnesses blocked (symbolic over-approximation only).
    pub refinements: usize,
    /// SAT variable count of the encoding (symbolic only).
    pub sat_vars: usize,
    /// SAT clause count of the encoding (symbolic only).
    pub sat_clauses: usize,
    /// Match pairs fed to the encoder (symbolic only).
    pub match_pairs: usize,
    /// States explored by match-pair generation (symbolic only).
    pub matchgen_states: usize,
    /// States visited (explicit engine only).
    pub states: usize,
    /// Transitions applied (explicit engine only).
    pub transitions: usize,
    /// Did this scenario reuse a shared-session encoding built by an
    /// earlier scenario at the same grid point (symbolic only)?
    pub reused_encoding: bool,
    /// SMT checks this scenario issued (symbolic only).
    pub sat_checks: usize,
    /// Solver conflicts this scenario cost (delta, symbolic only).
    pub conflicts: u64,
    /// Solver propagations this scenario cost (delta, symbolic only).
    pub propagations: u64,
    /// Control-flow paths analysed (1 for single-trace symbolic engines,
    /// the feasible-path count for `symbolic-paths`).
    pub paths_explored: usize,
    /// Control-flow paths skipped unsearched: always 0, since no engine
    /// skips a path; kept for the benchmark harness.
    pub paths_pruned: usize,
    /// Transitions applied by directed schedule searches
    /// (`symbolic-paths` only).
    #[serde(default)]
    pub directed_transitions: u64,
    /// Schedule extensions pruned by the Mazurkiewicz normal-form test
    /// (`symbolic-paths` and explicit engines; zero when canonical
    /// exploration is disabled).
    #[serde(default)]
    pub canonical_skipped: u64,
    /// µs spent building encodings (symbolic only).
    #[serde(default)]
    pub encode_us: u64,
    /// µs spent inside SMT checks (symbolic only).
    #[serde(default)]
    pub solve_us: u64,
    /// µs spent in directed-scheduler searches (`symbolic-paths` only).
    #[serde(default)]
    pub schedule_us: u64,
    /// µs spent in static path enumeration (`symbolic-paths` only).
    #[serde(default)]
    pub enumerate_us: u64,
    /// The full solver-stats delta this scenario cost (symbolic only;
    /// `conflicts`/`propagations` above are kept as headline duplicates
    /// for older report consumers).
    #[serde(default)]
    pub solver: smt::Stats,
    /// Sampled solver distributions this scenario cost (symbolic only):
    /// LBD, conflict decision-depth, restart intervals.
    #[serde(default)]
    pub introspect: smt::Introspect,
}

impl ScenarioOutcome {
    /// A placeholder outcome for a scenario cancelled before it started.
    pub fn skipped(scenario: String, family: String, delivery: String, engine: String) -> Self {
        ScenarioOutcome {
            scenario,
            family,
            delivery,
            engine,
            detail: "cancelled by race mode".into(),
            ..ScenarioOutcome::default()
        }
    }

    /// This outcome with its wall-clock fields (`wall_ms` and the phase
    /// µs) zeroed: the deterministic part, which must repeat exactly, for
    /// example between a traced and an untraced run.
    pub fn without_timings(&self) -> ScenarioOutcome {
        ScenarioOutcome {
            wall_ms: 0,
            encode_us: 0,
            solve_us: 0,
            schedule_us: 0,
            enumerate_us: 0,
            ..self.clone()
        }
    }
}

/// Schema version stamped on every [`ScenarioEvent`]; bump on any
/// incompatible field change so downstream log consumers can dispatch.
pub const EVENT_SCHEMA_VERSION: u32 = 1;

/// One line of the structured run log (`--events-out`): a flattened,
/// schema-versioned view of a [`ScenarioOutcome`] with the wall-clock
/// phase breakdown. Field set is stability-tested; extend only with
/// `#[serde(default)]` fields or a schema bump.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioEvent {
    /// [`EVENT_SCHEMA_VERSION`] at emission time.
    #[serde(default)]
    pub schema_version: u32,
    /// Unique scenario name (`point/delivery/engine`).
    pub scenario: String,
    /// Workload family tag.
    pub family: String,
    /// Delivery model tag.
    pub delivery: String,
    /// Engine tag.
    pub engine: String,
    /// Collapsed verdict.
    pub verdict: VerdictKind,
    /// Violated property messages, or the `Unknown` reason.
    pub detail: String,
    /// Wall-clock for the whole scenario, ms.
    pub wall_ms: u64,
    /// Encoding-build phase, µs.
    pub encode_us: u64,
    /// SMT-solve phase, µs.
    pub solve_us: u64,
    /// Directed-schedule phase, µs.
    pub schedule_us: u64,
    /// Path-enumeration + pruning phase, µs.
    pub enumerate_us: u64,
    /// SMT checks issued.
    pub sat_checks: usize,
    /// Solver conflicts (delta).
    pub conflicts: u64,
    /// Solver propagations (delta).
    pub propagations: u64,
    /// Control-flow paths analysed.
    pub paths_explored: usize,
    /// Control-flow paths pruned.
    pub paths_pruned: usize,
    /// Explicit-engine states visited.
    pub states: usize,
    /// Did the scenario reuse a shared-session encoding?
    pub reused_encoding: bool,
    /// Was the verdict settled by static triage with zero engine work?
    #[serde(default)]
    pub statically_decided: bool,
    /// Static-analysis findings on the scenario's program.
    #[serde(default)]
    pub lint_findings: usize,
}

impl ScenarioEvent {
    /// The event record for one finished outcome.
    pub fn from_outcome(o: &ScenarioOutcome) -> ScenarioEvent {
        ScenarioEvent {
            schema_version: EVENT_SCHEMA_VERSION,
            scenario: o.scenario.clone(),
            family: o.family.clone(),
            delivery: o.delivery.clone(),
            engine: o.engine.clone(),
            verdict: o.verdict,
            detail: o.detail.clone(),
            wall_ms: o.wall_ms,
            encode_us: o.encode_us,
            solve_us: o.solve_us,
            schedule_us: o.schedule_us,
            enumerate_us: o.enumerate_us,
            sat_checks: o.sat_checks,
            conflicts: o.conflicts,
            propagations: o.propagations,
            paths_explored: o.paths_explored,
            paths_pruned: o.paths_pruned,
            states: o.states,
            reused_encoding: o.reused_encoding,
            statically_decided: o.statically_decided,
            lint_findings: o.lint_findings,
        }
    }
}

/// Aggregate result of one portfolio run.
///
/// ```
/// use driver::report::{PortfolioReport, ScenarioOutcome, VerdictKind};
///
/// let mut o = ScenarioOutcome::skipped(
///     "fig1/unordered/explicit".into(),
///     "fig1".into(),
///     "unordered".into(),
///     "explicit".into(),
/// );
/// o.verdict = VerdictKind::Safe;
/// let report = PortfolioReport::from_outcomes("sweep", 4, 12, vec![o]);
/// assert_eq!(report.safe, 1);
/// assert_eq!(report.violations, 0);
/// let json = report.to_json();
/// let back: PortfolioReport = serde_json::from_str(&json).unwrap();
/// assert_eq!(back.safe, report.safe);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PortfolioReport {
    /// `"race"` or `"sweep"`.
    pub mode: String,
    /// Worker threads used.
    pub threads: usize,
    /// Total wall-clock for the whole batch.
    pub wall_ms: u64,
    /// Scenario counts by verdict.
    pub safe: usize,
    /// Scenarios with a confirmed violation.
    pub violations: usize,
    /// Inconclusive scenarios (budget exhausted, ...).
    pub unknown: usize,
    /// Scenarios cancelled by race mode before running.
    pub skipped: usize,
    /// SMT encodings actually built. With session reuse this is strictly
    /// less than the number of symbolic scenarios that solved something;
    /// without it, equal.
    pub encodings_built: usize,
    /// Solver conflicts summed over all scenarios.
    pub total_conflicts: u64,
    /// Solver propagations summed over all scenarios.
    pub total_propagations: u64,
    /// SMT checks summed over all scenarios.
    pub total_sat_checks: usize,
    /// Control-flow paths explored, summed over all scenarios.
    pub total_paths_explored: usize,
    /// Control-flow paths pruned as unreachable, summed over all
    /// scenarios.
    pub total_paths_pruned: usize,
    /// Directed-search transitions summed over all scenarios.
    #[serde(default)]
    pub total_directed_transitions: u64,
    /// Canonical-prune skips summed over all scenarios.
    #[serde(default)]
    pub total_canonical_skipped: u64,
    /// Scenarios settled by the static triage pre-pass (zero engine work).
    #[serde(default)]
    pub statically_decided: usize,
    /// Static-analysis findings summed over all scenarios.
    #[serde(default)]
    pub total_lint_findings: usize,
    /// Per-scenario records, in submission order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl PortfolioReport {
    /// Aggregate outcomes into a report (counts are derived here).
    pub fn from_outcomes(
        mode: &str,
        threads: usize,
        wall_ms: u64,
        outcomes: Vec<ScenarioOutcome>,
    ) -> PortfolioReport {
        let count = |k: VerdictKind| outcomes.iter().filter(|o| o.verdict == k).count();
        // An encoding was built exactly by the symbolic scenarios that ran
        // a solver (sat_vars > 0) without finding a session to share.
        let encodings_built = outcomes
            .iter()
            .filter(|o| o.sat_vars > 0 && !o.reused_encoding)
            .count();
        PortfolioReport {
            mode: mode.to_string(),
            threads,
            wall_ms,
            safe: count(VerdictKind::Safe),
            violations: count(VerdictKind::Violation),
            unknown: count(VerdictKind::Unknown),
            skipped: count(VerdictKind::Skipped),
            encodings_built,
            total_conflicts: outcomes.iter().map(|o| o.conflicts).sum(),
            total_propagations: outcomes.iter().map(|o| o.propagations).sum(),
            total_sat_checks: outcomes.iter().map(|o| o.sat_checks).sum(),
            total_paths_explored: outcomes.iter().map(|o| o.paths_explored).sum(),
            total_paths_pruned: outcomes.iter().map(|o| o.paths_pruned).sum(),
            total_directed_transitions: outcomes.iter().map(|o| o.directed_transitions).sum(),
            total_canonical_skipped: outcomes.iter().map(|o| o.canonical_skipped).sum(),
            statically_decided: outcomes.iter().filter(|o| o.statically_decided).count(),
            total_lint_findings: outcomes.iter().map(|o| o.lint_findings).sum(),
            outcomes,
        }
    }

    /// Did any scenario confirm a violation?
    pub fn found_violation(&self) -> bool {
        self.violations > 0
    }

    /// Pretty-printed JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }

    /// The structured run log: one compact JSON [`ScenarioEvent`] per
    /// line (JSONL), in submission order. This is what `--events-out`
    /// writes.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            let ev = ScenarioEvent::from_outcome(o);
            out.push_str(&serde_json::to_string(&ev).expect("event serialisation cannot fail"));
            out.push('\n');
        }
        out
    }

    /// Report the whole run into `reg`: per-scenario counters under each
    /// layer's stable names (labelled by engine and delivery), a
    /// per-scenario wall-time histogram, and portfolio-level gauges.
    pub fn record_metrics(&self, reg: &mut metrics::Registry) {
        reg.gauge_set(
            "mcapi_portfolio_threads",
            "Worker threads used by the portfolio run",
            &[],
            self.threads as f64,
        );
        reg.gauge_set(
            "mcapi_portfolio_wall_seconds",
            "Wall-clock of the whole portfolio run",
            &[],
            self.wall_ms as f64 / 1000.0,
        );
        reg.counter_add(
            "mcapi_portfolio_encodings_built_total",
            "SMT encodings actually built (cache misses)",
            &[],
            self.encodings_built as u64,
        );
        reg.counter_add(
            "mcapi_portfolio_statically_decided_total",
            "Scenarios settled by the static triage pre-pass (zero engine work)",
            &[],
            self.statically_decided as u64,
        );
        reg.counter_add(
            "mcapi_portfolio_lint_findings_total",
            "Static-analysis findings across all scenario programs",
            &[],
            self.total_lint_findings as u64,
        );
        for (verdict, n) in [
            ("safe", self.safe),
            ("violation", self.violations),
            ("unknown", self.unknown),
            ("skipped", self.skipped),
        ] {
            reg.counter_add(
                "mcapi_portfolio_scenarios_total",
                "Scenarios by collapsed verdict",
                &[("verdict", verdict)],
                n as u64,
            );
        }
        for o in &self.outcomes {
            let labels: &[(&str, &str)] = &[
                ("engine", o.engine.as_str()),
                ("delivery", o.delivery.as_str()),
            ];
            reg.histogram_observe(
                "mcapi_scenario_wall_seconds",
                "Per-scenario wall-clock distribution",
                labels,
                metrics::TIME_BUCKETS_SECONDS,
                o.wall_ms as f64 / 1000.0,
            );
            match o.engine.as_str() {
                "explicit" => {
                    explicit::stats::record_exploration_counters(
                        reg,
                        labels,
                        o.states as u64,
                        o.transitions as u64,
                        o.canonical_skipped,
                    );
                }
                _ => {
                    o.solver.record(reg, labels);
                    o.introspect.record(reg, labels);
                    symbolic::checker::record_check_counters(
                        reg,
                        labels,
                        o.sat_checks as u64,
                        o.refinements as u64,
                        o.paths_explored as u64,
                        o.paths_pruned as u64,
                        o.directed_transitions,
                        o.canonical_skipped,
                    );
                    symbolic::checker::PhaseTimings {
                        encode_us: o.encode_us,
                        solve_us: o.solve_us,
                        schedule_us: o.schedule_us,
                        enumerate_us: o.enumerate_us,
                    }
                    .record(reg, labels);
                }
            }
        }
    }

    /// The run in Prometheus text exposition format: a fresh
    /// [`metrics::Registry`], [`PortfolioReport::record_metrics`], render.
    /// Deterministic for a given report; the format is snapshot-tested.
    pub fn to_prometheus(&self) -> String {
        let mut reg = metrics::Registry::new();
        self.record_metrics(&mut reg);
        reg.render_prometheus()
    }

    /// Markdown-style table of all outcomes plus a summary line.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| scenario | verdict | wall ms | refine | vars | clauses | pairs | states | reuse | conf | detail |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|");
        for o in &self.outcomes {
            let states = if o.engine == "explicit" {
                o.states
            } else {
                o.matchgen_states
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                o.scenario,
                o.verdict,
                o.wall_ms,
                o.refinements,
                o.sat_vars,
                o.sat_clauses,
                o.match_pairs,
                states,
                if o.reused_encoding { "y" } else { "-" },
                o.conflicts,
                o.detail.replace('|', "/"),
            );
        }
        let _ = writeln!(
            out,
            "\n{} mode on {} thread(s): {} scenarios in {} ms — {} safe, {} violations, {} unknown, {} skipped; {} statically decided, {} lint findings; {} encodings built, {} sat checks, {} conflicts, {} propagations; {} paths explored, {} pruned; {} directed transitions, {} canonical-skipped",
            self.mode,
            self.threads,
            self.outcomes.len(),
            self.wall_ms,
            self.safe,
            self.violations,
            self.unknown,
            self.skipped,
            self.statically_decided,
            self.total_lint_findings,
            self.encodings_built,
            self.total_sat_checks,
            self.total_conflicts,
            self.total_propagations,
            self.total_paths_explored,
            self.total_paths_pruned,
            self.total_directed_transitions,
            self.total_canonical_skipped,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, verdict: VerdictKind) -> ScenarioOutcome {
        let mut o = ScenarioOutcome::skipped(
            name.into(),
            "race".into(),
            "unordered".into(),
            "explicit".into(),
        );
        o.verdict = verdict;
        o
    }

    #[test]
    fn without_timings_keeps_every_deterministic_field() {
        let mut a = outcome("a", VerdictKind::Safe);
        a.directed_transitions = 7;
        a.solver.decisions = 3;
        let mut b = a.clone();
        (
            b.wall_ms,
            b.encode_us,
            b.solve_us,
            b.schedule_us,
            b.enumerate_us,
        ) = (1, 2, 3, 4, 5);
        assert_ne!(a, b);
        assert_eq!(a.without_timings(), b.without_timings());
        b.solver.decisions += 1;
        assert_ne!(a.without_timings(), b.without_timings());
    }

    #[test]
    fn counts_partition_the_outcomes() {
        let outcomes = vec![
            outcome("a", VerdictKind::Safe),
            outcome("b", VerdictKind::Violation),
            outcome("c", VerdictKind::Violation),
            outcome("d", VerdictKind::Unknown),
            outcome("e", VerdictKind::Skipped),
        ];
        let r = PortfolioReport::from_outcomes("race", 2, 5, outcomes);
        assert_eq!((r.safe, r.violations, r.unknown, r.skipped), (1, 2, 1, 1));
        assert_eq!(
            r.safe + r.violations + r.unknown + r.skipped,
            r.outcomes.len()
        );
        assert!(r.found_violation());
    }

    #[test]
    fn json_roundtrip_preserves_outcomes() {
        let r =
            PortfolioReport::from_outcomes("sweep", 8, 1234, vec![outcome("x", VerdictKind::Safe)]);
        let back: PortfolioReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(back.outcomes.len(), 1);
        assert_eq!(back.outcomes[0].scenario, "x");
        assert_eq!(back.threads, 8);
        assert_eq!(back.outcomes[0].verdict, VerdictKind::Safe);
    }

    #[test]
    fn table_lists_every_scenario() {
        let r = PortfolioReport::from_outcomes(
            "sweep",
            1,
            1,
            vec![
                outcome("alpha", VerdictKind::Safe),
                outcome("beta", VerdictKind::Unknown),
            ],
        );
        let t = r.render_table();
        assert!(t.contains("| alpha |"));
        assert!(t.contains("| beta |"));
        assert!(t.contains("2 scenarios"));
    }
}
