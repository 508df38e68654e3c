//! End-to-end tests of the hierarchical tracing layer: Chrome-trace
//! schema validity, span coverage of portfolio runs, nesting discipline
//! under the multithreaded pool, and — the hard guarantee — that tracing
//! is observation only (traced and untraced runs produce bit-identical
//! verdicts and deterministic counters).

use driver::pool::{CancelToken, WorkerPool};
use driver::prelude::*;
use mcapi::types::DeliveryModel;
use proptest::prelude::*;

fn small_grid() -> Vec<Scenario> {
    cross(
        &[
            FamilySpec::Fig1,
            FamilySpec::Fig1Assert,
            FamilySpec::Race { width: 2 },
        ],
        &DeliveryModel::ALL,
        &Engine::ALL,
    )
}

fn sweep_cfg(threads: usize) -> PortfolioConfig {
    PortfolioConfig {
        threads,
        mode: Mode::Sweep,
        ..PortfolioConfig::default()
    }
}

/// Field lookup in the vendored minimal JSON [`serde_json::Value`].
fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?} in {v:?}"))
}

fn as_int(v: &serde_json::Value) -> Option<i64> {
    match v {
        serde_json::Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn as_str(v: &serde_json::Value) -> Option<&str> {
    match v {
        serde_json::Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// The exported trace parses as JSON with the pinned top-level shape.
#[test]
fn chrome_trace_export_is_schema_valid() {
    let tracer = trace::Tracer::new();
    let report = run_portfolio_traced(&small_grid(), &sweep_cfg(1), Some(&tracer));
    assert!(!report.outcomes.is_empty());

    let json = tracer.chrome_trace();
    let doc: serde_json::Value = serde_json::from_str(&json).expect("trace is valid JSON");
    assert_eq!(
        as_int(field(&doc, "schemaVersion")),
        Some(trace::TRACE_SCHEMA_VERSION as i64)
    );
    assert_eq!(as_str(field(&doc, "displayTimeUnit")), Some("ms"));
    assert_eq!(as_int(field(&doc, "droppedEvents")), Some(0));
    let events = field(&doc, "traceEvents")
        .as_array()
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        match as_str(field(e, "ph")) {
            Some("M") => {
                assert_eq!(as_str(field(e, "name")), Some("thread_name"));
                assert!(as_str(field(field(e, "args"), "name")).is_some());
            }
            Some("X") => {
                assert!(as_int(field(e, "ts")).is_some(), "{e:?}");
                assert!(as_int(field(e, "dur")).is_some(), "{e:?}");
                assert!(as_str(field(e, "name")).is_some());
                assert!(as_int(field(e, "pid")).is_some());
                assert!(as_int(field(e, "tid")).is_some());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
}

/// Every executed scenario gets a span carrying its name, and every
/// solver query gets an `smt.solve` span.
#[test]
fn trace_covers_every_scenario_and_solver_query() {
    let scenarios = small_grid();
    let tracer = trace::Tracer::new();
    let report = run_portfolio_traced(&scenarios, &sweep_cfg(2), Some(&tracer));

    let spans: Vec<(String, String)> = tracer
        .lanes()
        .into_iter()
        .flat_map(|l| {
            let lane = l.name;
            l.events.into_iter().map(move |e| (lane.clone(), e.name))
        })
        .collect();
    for s in &scenarios {
        assert!(
            spans.iter().any(|(_, n)| *n == s.name()),
            "no span for scenario {}",
            s.name()
        );
    }
    let solves = spans.iter().filter(|(_, n)| n == "smt.solve").count();
    assert!(
        solves >= report.total_sat_checks,
        "{solves} smt.solve spans < {} recorded sat checks",
        report.total_sat_checks
    );
    assert!(report.total_sat_checks > 0, "grid exercises the solver");
    // Spans land on pool worker lanes, never a phantom lane.
    for lane in tracer.lanes() {
        assert!(lane.name.starts_with("worker-"), "{}", lane.name);
    }
}

/// Tracing is observation only: a traced run's verdicts and every
/// deterministic counter are bit-identical to an untraced run's.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let scenarios = small_grid();
    let cfg = sweep_cfg(1);
    let untraced = run_portfolio(&scenarios, &cfg);
    let tracer = trace::Tracer::new();
    let traced = run_portfolio_traced(&scenarios, &cfg, Some(&tracer));

    assert_eq!(untraced.outcomes.len(), traced.outcomes.len());
    for (u, t) in untraced.outcomes.iter().zip(&traced.outcomes) {
        assert_eq!(u.without_timings(), t.without_timings(), "{}", u.scenario);
    }
    assert!(tracer.span_count() > 0, "the traced run recorded spans");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary nesting shapes across an arbitrary pool width: every
    /// span is recorded exactly once, nothing is dropped below capacity,
    /// and every child span sits inside a parent one depth up on the
    /// same lane (±1 µs slack for the independent flooring of begin time
    /// and duration).
    #[test]
    fn spans_nest_properly_under_multithreaded_pool(
        fanouts in proptest::collection::vec(0usize..5, 1..20),
        workers in 1usize..5,
    ) {
        let tracer = trace::Tracer::new();
        let pool = WorkerPool::new(workers);
        pool.run_traced(
            fanouts.clone(),
            &CancelToken::new(),
            Some(&tracer),
            |_idx, k, _cancel| {
                let mut outer = trace::span("outer");
                for _ in 0..k {
                    let mut inner = trace::span("inner");
                    inner.arg("depth", 1);
                }
                outer.arg("k", k as u64);
            },
        );

        let lanes = tracer.lanes();
        let count = |name: &str| -> usize {
            lanes
                .iter()
                .flat_map(|l| &l.events)
                .filter(|e| e.name == name)
                .count()
        };
        prop_assert_eq!(count("outer"), fanouts.len());
        prop_assert_eq!(count("inner"), fanouts.iter().sum::<usize>());
        for lane in &lanes {
            prop_assert_eq!(lane.dropped, 0);
            for child in lane.events.iter().filter(|e| e.depth > 0) {
                let contained = lane.events.iter().any(|p| {
                    p.depth + 1 == child.depth
                        && p.ts_us <= child.ts_us
                        && child.ts_us + child.dur_us <= p.ts_us + p.dur_us + 1
                });
                prop_assert!(
                    contained,
                    "span {:?} (depth {}) has no containing parent on lane {}",
                    child.name, child.depth, lane.name
                );
            }
        }
    }
}
