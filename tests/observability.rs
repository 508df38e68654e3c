//! Observability format stability: the Prometheus exposition and the
//! structured event log are both consumed outside this repository
//! (scrapers, dashboards), so their shapes are snapshot-tested here. A
//! failure means a downstream consumer would break — change the format
//! deliberately, then update the snapshot and bump the relevant schema
//! version.

use driver::prelude::*;
use driver::ScenarioEvent;

/// A deterministic symbolic outcome: every counter hand-pinned.
fn symbolic_outcome() -> ScenarioOutcome {
    let mut o = ScenarioOutcome::skipped(
        "fig1/unordered/symbolic-overapprox".into(),
        "fig1".into(),
        "unordered".into(),
        "symbolic-overapprox".into(),
    );
    o.verdict = VerdictKind::Safe;
    o.detail = String::new();
    o.wall_ms = 7;
    o.refinements = 1;
    o.sat_vars = 40;
    o.sat_clauses = 90;
    o.match_pairs = 6;
    o.matchgen_states = 11;
    o.reused_encoding = true;
    o.sat_checks = 2;
    o.conflicts = 3;
    o.propagations = 50;
    o.paths_explored = 1;
    o.encode_us = 120;
    o.solve_us = 340;
    o.solver.decisions = 9;
    o.solver.propagations = 50;
    o.solver.conflicts = 3;
    o.solver.solves = 2;
    o.solver.scope_pushes = 2;
    // Sampled solver distributions: three conflicts (LBD 2, 3, 5 at
    // depths 4, 4, 9) and one restart after 120 conflicts, so the
    // exposition pins real bucket placement, not just zeroed families.
    o.introspect.observe_conflict(2, 4);
    o.introspect.observe_conflict(3, 4);
    o.introspect.observe_conflict(5, 9);
    o.introspect.observe_restart(120);
    o
}

/// A deterministic explicit-state outcome.
fn explicit_outcome() -> ScenarioOutcome {
    let mut o = ScenarioOutcome::skipped(
        "fig1/unordered/explicit".into(),
        "fig1".into(),
        "unordered".into(),
        "explicit".into(),
    );
    o.verdict = VerdictKind::Violation;
    o.detail = "assert failed".into();
    o.wall_ms = 2;
    o.states = 12;
    o.transitions = 14;
    o
}

fn fixed_report() -> PortfolioReport {
    PortfolioReport::from_outcomes("sweep", 2, 9, vec![symbolic_outcome(), explicit_outcome()])
}

/// The full Prometheus text exposition for a pinned two-scenario report.
/// Everything is exercised: counters, gauges, a histogram with `le`
/// composition, multi-label sorting, and `# HELP`/`# TYPE` headers.
#[test]
fn prometheus_exposition_snapshot() {
    let got = fixed_report().to_prometheus();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/snapshots/portfolio_metrics.prom"
    );
    // `BLESS=1 cargo test --test observability` rewrites the snapshot
    // after a deliberate format change.
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path).expect("snapshot file exists");
    assert_eq!(
        got, expected,
        "Prometheus exposition changed; if intentional, rebless with \
         BLESS=1 cargo test --test observability"
    );
}

/// Every event line must parse back and keep its field set: renaming or
/// removing a key is a breaking change for log consumers and requires an
/// EVENT_SCHEMA_VERSION bump.
#[test]
fn event_log_schema_is_stable() {
    let report = fixed_report();
    let jsonl = report.events_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 2);

    let expected_first = concat!(
        "{\"schema_version\":1,",
        "\"scenario\":\"fig1/unordered/symbolic-overapprox\",",
        "\"family\":\"fig1\",",
        "\"delivery\":\"unordered\",",
        "\"engine\":\"symbolic-overapprox\",",
        "\"verdict\":\"Safe\",",
        "\"detail\":\"\",",
        "\"wall_ms\":7,",
        "\"encode_us\":120,",
        "\"solve_us\":340,",
        "\"schedule_us\":0,",
        "\"enumerate_us\":0,",
        "\"sat_checks\":2,",
        "\"conflicts\":3,",
        "\"propagations\":50,",
        "\"paths_explored\":1,",
        "\"paths_pruned\":0,",
        "\"states\":0,",
        "\"reused_encoding\":true,",
        "\"statically_decided\":false,",
        "\"lint_findings\":0}",
    );
    assert_eq!(
        lines[0], expected_first,
        "event log line shape changed; bump EVENT_SCHEMA_VERSION if intentional"
    );

    // And each line round-trips through the typed event.
    for line in &lines {
        let ev: ScenarioEvent = serde_json::from_str(line).expect("event parses back");
        assert_eq!(ev.schema_version, driver::report::EVENT_SCHEMA_VERSION);
    }
}

/// The timing breakdown must survive the report's own JSON form too
/// (`--json` consumers read the same fields the event log carries).
#[test]
fn report_json_carries_timing_breakdown() {
    let json = fixed_report().to_json();
    for key in ["encode_us", "solve_us", "schedule_us", "enumerate_us"] {
        assert!(json.contains(key), "report JSON lost {key}:\n{json}");
    }
}
