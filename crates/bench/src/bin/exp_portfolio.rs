//! E7: portfolio throughput, plus the CI performance gate.
//!
//! Modes:
//!
//! * `exp_portfolio [scale] [threads]` — the wall-clock table: the same
//!   scenario grid on 1..N workers, sweep and race modes. On a single-core
//!   host the N-thread rows measure scheduling overhead only.
//! * `exp_portfolio --json PATH [--check BASELINE]` — the CI perf gate:
//!   run the pinned grid (every family at scale 1 × all delivery models ×
//!   all engines, 1 thread, sweep) twice — with shared solver sessions and
//!   with from-scratch re-encoding — and write the counters as JSON.
//!   With `--check`, compare the *deterministic* counters (SAT checks and
//!   conflicts; wall clock is recorded but never gated) against a
//!   committed baseline and exit non-zero if any regresses by more than
//!   20%, or if session reuse stops saving at least 20% of
//!   conflicts + propagations.
//! * `exp_portfolio --trace-out PATH` — the tracing-neutrality gate: run
//!   the pinned grid untraced, then again with hierarchical tracing
//!   enabled, write the Chrome trace-event JSON of the traced run to
//!   PATH (load it in Perfetto), and exit non-zero if tracing changed
//!   any scenario outcome field other than the timings. Runs alone (not
//!   combined with `--json`).
//!
//! Any other argument list prints the usage line and exits 2, so a
//! mistyped flag cannot silently skip a gate.
//!
//! Run: `cargo run --release -p bench --bin exp_portfolio [args]`

use driver::prelude::*;
use mcapi::types::DeliveryModel;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::time::Instant;

/// Regression tolerance for the deterministic counters (fraction).
const TOLERANCE: f64 = 0.20;
/// Minimum conflicts+propagations saving session reuse must deliver (%).
const MIN_REDUCTION_PCT: i64 = 20;
/// Minimum drop in directed-search transitions that Mazurkiewicz
/// normal-form pruning must deliver on the branchy paths grid (%).
const MIN_CANONICAL_REDUCTION_PCT: i64 = 40;

fn run_once(scenarios: &[Scenario], threads: usize, mode: Mode) -> (u64, PortfolioReport) {
    let cfg = PortfolioConfig {
        threads,
        mode,
        ..PortfolioConfig::default()
    };
    let start = Instant::now();
    let report = run_portfolio(scenarios, &cfg);
    (start.elapsed().as_millis() as u64, report)
}

/// Deterministic per-scenario counters kept in `BENCH_portfolio.json`.
#[derive(Serialize, Deserialize)]
struct ScenarioCounters {
    scenario: String,
    wall_ms: u64,
    sat_checks: usize,
    conflicts: u64,
    propagations: u64,
    reused_encoding: bool,
    #[serde(default)]
    paths_explored: usize,
    #[serde(default)]
    paths_pruned: usize,
    #[serde(default)]
    directed_transitions: u64,
    #[serde(default)]
    canonical_skipped: u64,
}

/// Aggregate counters of one pinned-grid run.
#[derive(Serialize, Deserialize)]
struct RunCounters {
    wall_ms: u64,
    encodings_built: usize,
    sat_checks: usize,
    conflicts: u64,
    propagations: u64,
    #[serde(default)]
    paths_explored: usize,
    #[serde(default)]
    paths_pruned: usize,
    /// Transitions applied by directed schedule searches (symbolic-paths).
    #[serde(default)]
    directed_transitions: u64,
    /// Schedule extensions pruned by the Mazurkiewicz normal-form test.
    #[serde(default)]
    canonical_skipped: u64,
    per_scenario: Vec<ScenarioCounters>,
}

impl RunCounters {
    fn from_report(wall_ms: u64, report: &PortfolioReport) -> RunCounters {
        RunCounters {
            wall_ms,
            encodings_built: report.encodings_built,
            sat_checks: report.total_sat_checks,
            conflicts: report.total_conflicts,
            propagations: report.total_propagations,
            paths_explored: report.total_paths_explored,
            paths_pruned: report.total_paths_pruned,
            directed_transitions: report.total_directed_transitions,
            canonical_skipped: report.total_canonical_skipped,
            per_scenario: report
                .outcomes
                .iter()
                .map(|o| ScenarioCounters {
                    scenario: o.scenario.clone(),
                    wall_ms: o.wall_ms,
                    sat_checks: o.sat_checks,
                    conflicts: o.conflicts,
                    propagations: o.propagations,
                    reused_encoding: o.reused_encoding,
                    paths_explored: o.paths_explored,
                    paths_pruned: o.paths_pruned,
                    directed_transitions: o.directed_transitions,
                    canonical_skipped: o.canonical_skipped,
                })
                .collect(),
        }
    }
}

/// The perf-gate artifact: both runs plus the headline saving, and the
/// path-exploration gate (sibling paths sharing one encoded core vs a
/// fresh encoding per path).
#[derive(Serialize, Deserialize)]
struct PerfGateReport {
    grid: String,
    scenarios: usize,
    /// Total flattened (loop-unrolled) instructions across the pinned
    /// grid's distinct programs — tracks how much code the `repeat`
    /// unroller feeds the engines.
    #[serde(default)]
    unrolled_instrs: usize,
    /// Same counter for the paths-gate grid (the branch-in-loop
    /// workloads whose sibling paths share sessions).
    #[serde(default)]
    paths_unrolled_instrs: usize,
    /// Batched grid points sharing incremental solver sessions.
    reuse: RunCounters,
    /// Every scenario re-encoded from scratch (the PR-1 shape).
    no_reuse: RunCounters,
    /// Whole-percent saving of conflicts+propagations from session reuse.
    reduction_pct_conflicts_plus_propagations: i64,
    /// The branch-sensitive grid under `symbolic-paths` with sibling-path
    /// session sharing.
    paths_reuse: RunCounters,
    /// The same grid with a fresh encoding per path.
    paths_no_reuse: RunCounters,
    /// Whole-percent saving of conflicts+propagations from sharing cores
    /// across sibling paths.
    paths_reduction_pct_conflicts_plus_propagations: i64,
    /// The paths grid swept with canonical (Mazurkiewicz normal-form)
    /// pruning disabled — every directed search sweeps every
    /// interleaving, the `--no-canonical` shape. Compare `paths_reuse`.
    paths_no_canonical: RunCounters,
    /// Whole-percent drop in directed-search transitions from canonical
    /// pruning on the paths grid.
    canonical_reduction_pct_directed_transitions: i64,
    /// Canonical and full sweeps returned identical per-scenario
    /// verdicts — pruning must be invisible to everything but work.
    canonical_verdicts_match: bool,
}

fn run_full(
    scenarios: &[Scenario],
    session_reuse: bool,
    canonical: bool,
    static_triage: bool,
) -> (RunCounters, PortfolioReport) {
    let cfg = PortfolioConfig {
        threads: 1,
        mode: Mode::Sweep,
        session_reuse,
        canonical,
        static_triage,
        ..PortfolioConfig::default()
    };
    let start = Instant::now();
    let report = run_portfolio(scenarios, &cfg);
    let counters = RunCounters::from_report(start.elapsed().as_millis() as u64, &report);
    (counters, report)
}

fn run_counters(scenarios: &[Scenario], session_reuse: bool) -> RunCounters {
    run_full(scenarios, session_reuse, true, true).0
}

fn reduction_pct(reuse: &RunCounters, no_reuse: &RunCounters) -> i64 {
    let work = |r: &RunCounters| r.conflicts + r.propagations;
    if work(no_reuse) == 0 {
        0
    } else {
        (100.0 * (1.0 - work(reuse) as f64 / work(no_reuse) as f64)).round() as i64
    }
}

/// Total flattened (loop-unrolled) instruction count of a set of grid
/// points — the size the engines actually consume after `repeat`
/// expansion.
fn unrolled_instrs(specs: &[workloads::FamilySpec]) -> usize {
    specs.iter().map(|s| s.build().code_size()).sum()
}

fn pinned_grid_report() -> PerfGateReport {
    let grid = default_grid(1);
    let scenarios = cross(&grid, &DeliveryModel::ALL, &Engine::ALL);
    let reuse = run_counters(&scenarios, true);
    let no_reuse = run_counters(&scenarios, false);
    // The path gate: branch-heavy programs — including the loop families,
    // whose unrolled bodies multiply branch sites — one delivery, paths
    // engine only, so the saving measured is exactly the sibling-path
    // sharing. The storm family anchors the canonicalization half of the
    // gate: its producer ticks independently of the consumer, so its
    // schedule spaces are dominated by commuting interleavings (branchy
    // and credit-window funnel everything into one endpoint and leave
    // the normal-form test far less to prune).
    let mut paths_points = family_grid("branchy", 3);
    paths_points.extend(family_grid("credit-window", 3));
    paths_points.extend(family_grid("storm", 3));
    let paths_scenarios = cross(
        &paths_points,
        &[DeliveryModel::Unordered],
        &[Engine::SymbolicPaths],
    );
    // The paths and canonical gates run with the static triage pre-pass
    // off: they are A/B measurements of *engine* layers (sibling-path
    // session sharing, Mazurkiewicz pruning), and triage settling the
    // assert-free points engine-free would shrink the measured work on
    // both sides until the ratios stop meaning anything. The main pinned
    // grid above keeps the portfolio default (triage on).
    let (paths_reuse, paths_report) = run_full(&paths_scenarios, true, true, false);
    let paths_no_reuse = run_full(&paths_scenarios, false, true, false).0;
    // The canonicalization gate: the same grid with the normal-form
    // pruning off. The verdicts must be identical; the directed-search
    // transition count must not be.
    let (paths_no_canonical, no_canon_report) = run_full(&paths_scenarios, true, false, false);
    let canonical_verdicts_match = paths_report
        .outcomes
        .iter()
        .zip(&no_canon_report.outcomes)
        .all(|(a, b)| a.scenario == b.scenario && a.verdict == b.verdict);
    let canonical_reduction = if paths_no_canonical.directed_transitions == 0 {
        0
    } else {
        (100.0
            * (1.0
                - paths_reuse.directed_transitions as f64
                    / paths_no_canonical.directed_transitions as f64))
            .round() as i64
    };
    PerfGateReport {
        grid: "default_grid(1) x all deliveries x all engines, 1 thread, sweep; \
               paths gate: branchy(scale 3) + credit-window(scale 3) + \
               storm(scale 3) x unordered x symbolic-paths, static triage off"
            .into(),
        scenarios: scenarios.len(),
        unrolled_instrs: unrolled_instrs(&grid),
        paths_unrolled_instrs: unrolled_instrs(&paths_points),
        reduction_pct_conflicts_plus_propagations: reduction_pct(&reuse, &no_reuse),
        reuse,
        no_reuse,
        paths_reduction_pct_conflicts_plus_propagations: reduction_pct(
            &paths_reuse,
            &paths_no_reuse,
        ),
        paths_reuse,
        paths_no_reuse,
        paths_no_canonical,
        canonical_reduction_pct_directed_transitions: canonical_reduction,
        canonical_verdicts_match,
    }
}

/// The command that refreshes the committed baseline after an
/// *intentional* perf change; printed with every gate failure so the fix
/// never has to be dug out of CI config.
const REGEN_CMD: &str =
    "cargo run --release -p bench --bin exp_portfolio -- --json BENCH_portfolio.json";

/// Percentage change of `current` relative to `baseline` (`+25.0` means a
/// quarter more work than the baseline recorded).
fn delta_pct(current: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        if current == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (current as f64 - baseline as f64) / baseline as f64
    }
}

/// One counter comparison against the baseline; returns whether it passes.
fn within_tolerance(name: &str, current: u64, baseline: u64) -> bool {
    let limit = (baseline as f64 * (1.0 + TOLERANCE)).ceil() as u64;
    if current > limit {
        eprintln!(
            "PERF REGRESSION: {name}: {current} vs baseline {baseline} ({:+.1}%, tolerance +{:.0}%, limit {limit})",
            delta_pct(current, baseline),
            TOLERANCE * 100.0
        );
        false
    } else {
        println!(
            "ok: {name}: {current} (baseline {baseline}, {:+.1}%, limit {limit})",
            delta_pct(current, baseline)
        );
        true
    }
}

fn perf_gate(json_path: &str, baseline_path: Option<&str>) -> ExitCode {
    let report = pinned_grid_report();
    let json = serde_json::to_string_pretty(&report).expect("perf report serialises");
    if let Err(e) = std::fs::write(json_path, &json) {
        eprintln!("cannot write {json_path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "pinned grid: {} scenarios, {} unrolled instrs (paths gate: {}) | reuse: {} encodings, {} sat checks, {} conflicts, {} propagations | no-reuse: {} encodings, {} sat checks, {} conflicts, {} propagations | reduction {}%",
        report.scenarios,
        report.unrolled_instrs,
        report.paths_unrolled_instrs,
        report.reuse.encodings_built,
        report.reuse.sat_checks,
        report.reuse.conflicts,
        report.reuse.propagations,
        report.no_reuse.encodings_built,
        report.no_reuse.sat_checks,
        report.no_reuse.conflicts,
        report.no_reuse.propagations,
        report.reduction_pct_conflicts_plus_propagations,
    );
    println!(
        "paths gate: reuse {} encodings / {} paths ({} pruned), {} conflicts, {} propagations | per-path {} encodings, {} conflicts, {} propagations | reduction {}%",
        report.paths_reuse.encodings_built,
        report.paths_reuse.paths_explored,
        report.paths_reuse.paths_pruned,
        report.paths_reuse.conflicts,
        report.paths_reuse.propagations,
        report.paths_no_reuse.encodings_built,
        report.paths_no_reuse.conflicts,
        report.paths_no_reuse.propagations,
        report.paths_reduction_pct_conflicts_plus_propagations,
    );
    println!(
        "canonical gate: {} directed transitions ({} skipped by the normal-form test) vs {} without pruning | reduction {}% | verdicts match: {}",
        report.paths_reuse.directed_transitions,
        report.paths_reuse.canonical_skipped,
        report.paths_no_canonical.directed_transitions,
        report.canonical_reduction_pct_directed_transitions,
        report.canonical_verdicts_match,
    );

    let Some(baseline_path) = baseline_path else {
        return ExitCode::SUCCESS;
    };
    let baseline: PerfGateReport = match std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot load baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut ok = true;
    ok &= within_tolerance(
        "reuse.sat_checks",
        report.reuse.sat_checks as u64,
        baseline.reuse.sat_checks as u64,
    );
    ok &= within_tolerance(
        "reuse.conflicts",
        report.reuse.conflicts,
        baseline.reuse.conflicts,
    );
    ok &= within_tolerance(
        "no_reuse.sat_checks",
        report.no_reuse.sat_checks as u64,
        baseline.no_reuse.sat_checks as u64,
    );
    ok &= within_tolerance(
        "no_reuse.conflicts",
        report.no_reuse.conflicts,
        baseline.no_reuse.conflicts,
    );
    ok &= within_tolerance(
        "paths_reuse.sat_checks",
        report.paths_reuse.sat_checks as u64,
        baseline.paths_reuse.sat_checks as u64,
    );
    ok &= within_tolerance(
        "paths_reuse.conflicts",
        report.paths_reuse.conflicts,
        baseline.paths_reuse.conflicts,
    );
    // Combined search-effort gates: conflicts alone can stay flat while
    // propagation work balloons (or vice versa), so the branchy/loop paths
    // grid and the main reuse grid are each also held to the *sum*.
    ok &= within_tolerance(
        "reuse.conflicts+propagations",
        report.reuse.conflicts + report.reuse.propagations,
        baseline.reuse.conflicts + baseline.reuse.propagations,
    );
    ok &= within_tolerance(
        "paths_reuse.conflicts+propagations",
        report.paths_reuse.conflicts + report.paths_reuse.propagations,
        baseline.paths_reuse.conflicts + baseline.paths_reuse.propagations,
    );
    if report.reduction_pct_conflicts_plus_propagations < MIN_REDUCTION_PCT {
        eprintln!(
            "PERF REGRESSION: session reuse saves only {}% of conflicts+propagations (< {MIN_REDUCTION_PCT}%)",
            report.reduction_pct_conflicts_plus_propagations,
        );
        ok = false;
    } else {
        println!(
            "ok: session reuse saves {}% of conflicts+propagations (>= {MIN_REDUCTION_PCT}%)",
            report.reduction_pct_conflicts_plus_propagations,
        );
    }
    if report.paths_reduction_pct_conflicts_plus_propagations < MIN_REDUCTION_PCT {
        eprintln!(
            "PERF REGRESSION: sibling-path session reuse saves only {}% of conflicts+propagations (< {MIN_REDUCTION_PCT}%)",
            report.paths_reduction_pct_conflicts_plus_propagations,
        );
        ok = false;
    } else {
        println!(
            "ok: sibling-path session reuse saves {}% of conflicts+propagations (>= {MIN_REDUCTION_PCT}%)",
            report.paths_reduction_pct_conflicts_plus_propagations,
        );
    }
    // The canonicalization gate: the pruned search must not drift upward
    // relative to the committed baseline, the pruning must keep paying
    // for itself, and it must never change a verdict.
    ok &= within_tolerance(
        "paths_reuse.directed_transitions",
        report.paths_reuse.directed_transitions,
        baseline.paths_reuse.directed_transitions,
    );
    if report.canonical_reduction_pct_directed_transitions < MIN_CANONICAL_REDUCTION_PCT {
        eprintln!(
            "PERF REGRESSION: canonical pruning drops only {}% of directed-search transitions (< {MIN_CANONICAL_REDUCTION_PCT}%)",
            report.canonical_reduction_pct_directed_transitions,
        );
        ok = false;
    } else {
        println!(
            "ok: canonical pruning drops {}% of directed-search transitions (>= {MIN_CANONICAL_REDUCTION_PCT}%)",
            report.canonical_reduction_pct_directed_transitions,
        );
    }
    if !report.canonical_verdicts_match {
        eprintln!("SOUNDNESS: canonical and full sweeps disagreed on a verdict");
        ok = false;
    } else {
        println!("ok: canonical and full sweeps returned identical verdicts");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("if the change is intentional, refresh the baseline and commit it:");
        eprintln!("  {REGEN_CMD}");
        ExitCode::from(1)
    }
}

/// `--trace-out PATH`: run the pinned grid untraced and then traced,
/// write the traced run's Chrome trace, and fail if tracing changed any
/// scenario outcome apart from its timing fields
/// ([`ScenarioOutcome::without_timings`]) — tracing must be observation
/// only.
fn traced_grid_gate(path: &str) -> ExitCode {
    let grid = default_grid(1);
    let scenarios = cross(&grid, &DeliveryModel::ALL, &Engine::ALL);
    let cfg = PortfolioConfig {
        threads: 1,
        mode: Mode::Sweep,
        session_reuse: true,
        ..PortfolioConfig::default()
    };
    let untraced = run_portfolio(&scenarios, &cfg);
    let tracer = trace::Tracer::new();
    let traced = run_portfolio_traced(&scenarios, &cfg, Some(&tracer));
    if let Err(e) = std::fs::write(path, tracer.chrome_trace()) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for (u, t) in untraced.outcomes.iter().zip(&traced.outcomes) {
        if u.without_timings() != t.without_timings() {
            eprintln!(
                "TRACING DRIFT: {}: traced run disagrees with untraced \
                 (verdict {:?} vs {:?}, sat checks {} vs {}, conflicts {} vs {})",
                u.scenario,
                t.verdict,
                u.verdict,
                t.sat_checks,
                u.sat_checks,
                t.conflicts,
                u.conflicts,
            );
            ok = false;
        }
    }
    println!(
        "traced pinned grid: {} scenarios, {} spans recorded ({} dropped) -> {path}",
        traced.outcomes.len(),
        tracer.span_count(),
        tracer.dropped_count(),
    );
    if ok {
        println!("ok: tracing changed no verdict or deterministic counter");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

const USAGE: &str =
    "usage: exp_portfolio [scale] [threads] | --json PATH [--check BASELINE] | --trace-out PATH";

/// One invocation; [`parse_args`] accepts these forms and nothing else.
#[derive(Debug, PartialEq)]
enum Command {
    /// `[scale] [threads]`: the wall-clock table (`threads` defaults to
    /// the host's parallelism).
    Table {
        scale: usize,
        max_threads: Option<usize>,
    },
    /// `--json PATH [--check BASELINE]`: the counter gate.
    PerfGate {
        json: String,
        baseline: Option<String>,
    },
    /// `--trace-out PATH`: the tracing-neutrality gate.
    TraceOut(String),
}

/// Parse the argument list, or `None` for anything outside the usage
/// line: an unknown flag, a flag without its value, a non-numeric
/// scale or thread count, `--check` without `--json`.
fn parse_args(args: &[String]) -> Option<Command> {
    let value = |v: &str| (!v.starts_with("--")).then(|| v.to_string());
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["--trace-out", path] => value(path).map(Command::TraceOut),
        ["--json", json] => Some(Command::PerfGate {
            json: value(json)?,
            baseline: None,
        }),
        ["--json", json, "--check", baseline] => Some(Command::PerfGate {
            json: value(json)?,
            baseline: Some(value(baseline)?),
        }),
        [] => Some(Command::Table {
            scale: 2,
            max_threads: None,
        }),
        [scale] => Some(Command::Table {
            scale: scale.parse().ok()?,
            max_threads: None,
        }),
        [scale, threads] => Some(Command::Table {
            scale: scale.parse().ok()?,
            max_threads: Some(threads.parse().ok()?),
        }),
        _ => None,
    }
}

/// `[scale] [threads]`: the wall-clock table on 1, 2, 4, … workers.
fn wall_clock_table(scale: usize, max_threads: usize) -> ExitCode {
    let scenarios = cross(&default_grid(scale), &DeliveryModel::ALL, &Engine::ALL);
    println!(
        "# E7: portfolio wall clock, {} scenarios (scale {scale})\n",
        scenarios.len()
    );
    println!(
        "{}",
        bench::header(&["mode", "threads", "wall ms", "verdict counts"])
    );

    let mut threads = 1usize;
    while threads <= max_threads {
        for mode in [Mode::Sweep, Mode::Race] {
            let (ms, report) = run_once(&scenarios, threads, mode);
            println!(
                "{}",
                bench::row(&[
                    mode.tag().to_string(),
                    threads.to_string(),
                    ms.to_string(),
                    format!(
                        "{} safe / {} violation / {} unknown / {} skipped",
                        report.safe, report.violations, report.unknown, report.skipped
                    ),
                ])
            );
        }
        threads *= 2;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Some(Command::TraceOut(path)) => traced_grid_gate(&path),
        Some(Command::PerfGate { json, baseline }) => perf_gate(&json, baseline.as_deref()),
        Some(Command::Table { scale, max_threads }) => {
            let max_threads = max_threads.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            });
            wall_clock_table(scale, max_threads)
        }
        None => {
            eprintln!("exp_portfolio: unrecognised arguments: {}", args.join(" "));
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Option<Command> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn accepts_the_three_documented_forms() {
        assert_eq!(
            parse(&[]),
            Some(Command::Table {
                scale: 2,
                max_threads: None
            })
        );
        assert_eq!(
            parse(&["1", "4"]),
            Some(Command::Table {
                scale: 1,
                max_threads: Some(4)
            })
        );
        assert_eq!(
            parse(&["--json", "g.json"]),
            Some(Command::PerfGate {
                json: "g.json".into(),
                baseline: None
            })
        );
        assert_eq!(
            parse(&["--json", "g.json", "--check", "BENCH_portfolio.json"]),
            Some(Command::PerfGate {
                json: "g.json".into(),
                baseline: Some("BENCH_portfolio.json".into())
            })
        );
        assert_eq!(
            parse(&["--trace-out", "t.json"]),
            Some(Command::TraceOut("t.json".into()))
        );
    }

    #[test]
    fn rejects_everything_else() {
        for args in [
            &["--json", "g.json", "--chek", "BENCH_portfolio.json"][..],
            &["--last", "5"],
            &["abc"],
            &["1", "x"],
            &["1", "2", "3"],
            &["--json"],
            &["--json", "--check", "b.json"],
            &["--trace-out"],
            &["--check", "BENCH_portfolio.json"],
            &["--trace-out", "t.json", "--json", "g.json"],
        ] {
            assert_eq!(parse(args), None, "{args:?}");
        }
    }
}
