//! Harness self-test. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use driver::scenario::{cross, Engine, ProgramSpec};
use driver::{run_portfolio, Mode};
use mcapi::types::DeliveryModel;
use perfbench::ledger::{replay_request, CheckCounters, Ledger};
use perfbench::run::request_config;
use perfbench::{Setup, Workload};
use std::process::Command;
use workloads::grid::FamilySpec;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let entries = field(&doc, list).as_array().expect("metric list").to_vec();
    entries
        .iter()
        .map(|m| (string(field(m, "name")), string(field(m, "unit"))))
        .collect()
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn string(v: &serde_json::Value) -> String {
    match v {
        serde_json::Value::Str(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

/// Run the harness binary once and return its parsed result line.
fn run(workload: &str, trace: &str) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("harness runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "harness failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

#[test]
fn short_runs_print_every_declared_metric_with_its_unit_and_no_failures() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run("grid-sweep", trace);
        assert_eq!(field(&result, "correct"), &serde_json::Value::Bool(true));
        assert_eq!(field(&result, "failed"), &serde_json::Value::Int(0));
        assert!(matches!(field(&result, "attempted"), serde_json::Value::Int(n) if *n >= 100));
        let metrics = field(&result, "metrics");
        let printed: Vec<(String, String)> = metrics
            .as_object()
            .expect("metrics object")
            .iter()
            .map(|(name, m)| (name.clone(), string(field(m, "unit"))))
            .collect();
        let mut want = declared(list);
        let mut got = printed.clone();
        want.sort();
        got.sort();
        assert_eq!(
            got, want,
            "--trace {trace} must print exactly the {list} metrics"
        );
    }
}

#[test]
fn replica_matches_run_portfolio_on_a_small_input() {
    let cfg = request_config();
    assert_eq!((cfg.threads, cfg.mode, cfg.max_paths), (1, Mode::Sweep, 64));
    for point in [
        FamilySpec::Fig1Assert,
        FamilySpec::Branchy { rounds: 2 },
        FamilySpec::RaceAssert { width: 3 },
        FamilySpec::DelayGap { chain: 1 },
        FamilySpec::Race { width: 2 },
    ] {
        let program = point.build();
        let spec = ProgramSpec::source(point.name(), program.clone());
        let scenarios = cross(&[spec], &DeliveryModel::ALL, &Engine::ALL);
        let plain: Vec<CheckCounters> = run_portfolio(&scenarios, &cfg)
            .outcomes
            .iter()
            .map(CheckCounters::of_outcome)
            .collect();
        let mut ledger = Ledger::default();
        let traced = replay_request(&program, &scenarios, &cfg, &mut ledger);
        assert_eq!(traced, plain, "{point}");
        assert_eq!(ledger.counts.checks, 12);
        assert!(ledger.times.layer_sum() <= ledger.times.request_wall);
    }
}

/// One traced pass of `workload` in the order `seed` shuffles it.
fn pass_counts(workload: Workload, seed: u64) -> perfbench::ledger::LayerCounts {
    let setup = Setup::new(workload, seed).expect("set-up");
    let cfg = request_config();
    let mut ledger = Ledger::default();
    for &i in &setup.first_order {
        let r = &setup.requests[i];
        replay_request(&r.program, &r.scenarios, &cfg, &mut ledger);
    }
    ledger.counts
}

#[test]
fn two_seeds_give_identical_counts_on_the_seed_independent_workloads() {
    for workload in [Workload::PathsBranchy, Workload::PreciseDeep] {
        let a = Setup::new(workload, 1).unwrap().first_order;
        let b = Setup::new(workload, 2).unwrap().first_order;
        assert_ne!(a, b, "the seeds must shuffle differently");
        assert_eq!(
            pass_counts(workload, 1),
            pass_counts(workload, 2),
            "{workload:?}"
        );
    }
}
