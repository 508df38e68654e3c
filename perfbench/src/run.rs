//! One benchmark run: set-up, the closed request loop, and the report.

use crate::ledger::{replay_request, CheckCounters, Ledger};
use crate::reference::References;
use crate::stats::{median, percentile};
use crate::workload::{Request, SplitMix, Workload};
use driver::{run_portfolio, Mode, PortfolioConfig, VerdictKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Every run holds at least this many latency samples, so at least ten
/// lie beyond p90.
pub const MIN_SAMPLES: usize = 100;

/// Set-ups timed after every pass of an untraced run. `setup_s` is the
/// median of all set-ups, so like the request times it samples the whole
/// run rather than one instant of it.
pub const SETUPS_PER_PASS: usize = 3;

/// Every traced run holds at least this many traced passes, so the
/// per-pass counts can be seen to repeat.
pub const MIN_TRACED_PASSES: usize = 2;

/// The request configuration: single-threaded sweep, everything else
/// at the driver's defaults (triage, session reuse and canonical pruning
/// on, `max_paths` 64, no budget).
pub fn request_config() -> PortfolioConfig {
    PortfolioConfig {
        threads: 1,
        mode: Mode::Sweep,
        ..PortfolioConfig::default()
    }
}

/// Everything a run needs before its first timed request.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub requests: Vec<Request>,
    pub refs: References,
    /// Request order of the first pass.
    pub first_order: Vec<usize>,
}

impl Setup {
    /// Build every program, load the reference table, and shuffle the
    /// first pass. Fails when a check has no reference verdict.
    pub fn new(workload: Workload, seed: u64) -> Result<Setup, String> {
        let requests = workload.requests(seed);
        let refs = References::load()?;
        for r in &requests {
            for s in &r.scenarios {
                if !r.assertion_free && refs.get(&s.spec.name(), &s.delivery.to_string()).is_none()
                {
                    return Err(format!("no reference verdict for {}", s.name()));
                }
            }
        }
        let first_order = SplitMix::for_pass(seed, 0).permutation(requests.len());
        Ok(Setup {
            workload,
            seed,
            requests,
            refs,
            first_order,
        })
    }

    /// The request order of pass `pass`.
    fn order(&self, pass: usize) -> Vec<usize> {
        if pass == 0 {
            self.first_order.clone()
        } else {
            SplitMix::for_pass(self.seed, pass as u64).permutation(self.requests.len())
        }
    }

    /// The verdict every decided check of `scenario` must reach.
    fn expected(&self, request: &Request, index: usize) -> VerdictKind {
        let s = &request.scenarios[index];
        if request.assertion_free {
            VerdictKind::Safe
        } else {
            self.refs
                .get(&s.spec.name(), &s.delivery.to_string())
                .expect("set-up checked every reference")
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (passes, requests, set-ups or checks).
    pub samples: usize,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a run prints.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    pub attempted: usize,
    pub failed: usize,
    pub passes: usize,
    pub elapsed_s: f64,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// The result object: the last line of a run's standard output.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Run provenance and per-metric sample counts (printed before the
    /// result line).
    pub fn info_json(&self, setup: &Setup, seconds: u64, trace: bool) -> String {
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.samples))
            .collect();
        let checks: usize = setup.requests.iter().map(|r| r.scenarios.len()).sum();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"passes\": {}, \"requests_per_pass\": {}, \"checks_per_pass\": {}, \
             \"elapsed_s\": {}, \"samples\": {{{}}}}}",
            setup.workload.name(),
            setup.seed,
            seconds,
            u8::from(trace),
            self.passes,
            setup.requests.len(),
            checks,
            json_number(self.elapsed_s),
            samples.join(", ")
        )
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The process's memory high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Wait (up to 50 ms) until the request's pool worker thread has fully
/// exited. `run_portfolio` joins its workers before it returns, but the C
/// allocator hands a finished thread's arena back only in the thread's
/// exit path; a request started before that creates a fresh arena, which
/// makes `peak_rss_mb` depend on scheduling. A single `run_portfolio`
/// call never meets this, so the wait removes an artefact of calling it
/// back to back. It is not part of any request's time.
fn await_worker_exit() {
    let deadline = Instant::now() + Duration::from_millis(50);
    while Instant::now() < deadline {
        let threads = std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count());
        if threads <= 1 {
            return;
        }
        std::thread::yield_now();
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One untraced request: its wall time, and per check either the
/// outcome's counters or `None` when the request panicked.
fn untraced_request(
    request: &Request,
    cfg: &PortfolioConfig,
) -> (Duration, Option<Vec<CheckCounters>>) {
    let t = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| run_portfolio(&request.scenarios, cfg)));
    let wall = t.elapsed();
    await_worker_exit();
    let counters = report
        .ok()
        .map(|r| r.outcomes.iter().map(CheckCounters::of_outcome).collect());
    (wall, counters)
}

/// Judge the checks of one request: which ones failed — a panic, a
/// skipped check, or a decided verdict that differs from the reference —
/// and how many were decided.
fn judge(
    setup: &Setup,
    request: &Request,
    counters: Option<&[CheckCounters]>,
) -> (Vec<bool>, usize) {
    let n = request.scenarios.len();
    let Some(counters) = counters else {
        eprintln!("perfbench: request {} panicked", request.label);
        return (vec![true; n], 0);
    };
    let mut decided = 0;
    let failed = counters
        .iter()
        .enumerate()
        .map(|(i, c)| match c.verdict {
            Some(v @ (VerdictKind::Safe | VerdictKind::Violation)) => {
                decided += 1;
                let want = setup.expected(request, i);
                if v != want {
                    eprintln!(
                        "perfbench: {} answered {v}, reference says {want}",
                        request.scenarios[i].name()
                    );
                }
                v != want
            }
            Some(VerdictKind::Unknown) => false,
            _ => {
                eprintln!("perfbench: {} did not run", request.scenarios[i].name());
                true
            }
        })
        .collect();
    (failed, decided)
}

/// Add one request's checks to `attempted` and its failed checks to
/// `failed`.
fn tally(report: &mut RunReport, failed: &[bool]) {
    report.attempted += failed.len();
    report.failed += failed.iter().filter(|&&f| f).count();
}

/// The untraced run: whole passes until `seconds` have elapsed and at
/// least [`MIN_SAMPLES`] requests have completed. Reports the end-to-end
/// metrics; `first_setup_s` is the set-up the run started with, timed from
/// process start.
///
/// The time metrics are built from each request kind's median time over
/// the run's passes. On a shared virtual machine a few percent of
/// requests are stalled for milliseconds by the host; taken raw, those
/// stalls shift the p90 rank from one request kind onto the next, which
/// can be several times slower. A kind's median ignores them unless they
/// hit most of its passes.
pub fn run_untraced(setup: &Setup, first_setup_s: f64, seconds: u64) -> RunReport {
    let cfg = request_config();
    let mut report = RunReport::default();
    let mut kind_ms: Vec<Vec<f64>> = vec![Vec::new(); setup.requests.len()];
    let mut setup_times = vec![first_setup_s];
    let mut decided = 0usize;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds)
        || report.passes * setup.requests.len() < MIN_SAMPLES
    {
        for i in setup.order(report.passes) {
            let request = &setup.requests[i];
            let (wall, counters) = untraced_request(request, &cfg);
            kind_ms[i].push(wall.as_secs_f64() * 1e3);
            let (failed, d) = judge(setup, request, counters.as_deref());
            tally(&mut report, &failed);
            decided += d;
        }
        report.passes += 1;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            std::hint::black_box(Setup::new(setup.workload, setup.seed).ok());
            setup_times.push(t.elapsed().as_secs_f64());
        }
    }
    report.elapsed_s = start.elapsed().as_secs_f64();
    let n = report.passes * setup.requests.len();
    let typical_ms: Vec<f64> = kind_ms.iter().map(|v| median(v)).collect();
    let checks_per_pass = report.attempted / report.passes;
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        report.failed += 1;
        0.0
    });
    report.metrics = vec![
        Metric::new("setup_s", median(&setup_times), "s", setup_times.len()),
        Metric::new(
            "checks_per_s",
            checks_per_pass as f64 / (typical_ms.iter().sum::<f64>() / 1e3),
            "1/s",
            n,
        ),
        Metric::new("verdict_ms_p50", percentile(&typical_ms, 50.0), "ms", n),
        Metric::new("verdict_ms_p90", percentile(&typical_ms, 90.0), "ms", n),
        Metric::new(
            "decided_ratio",
            ratio(decided as f64, report.attempted as f64),
            "ratio",
            report.attempted,
        ),
        Metric::new("peak_rss_mb", rss, "MiB", 1),
    ];
    report
}

/// The traced run: each pass runs the shuffled requests untraced, then
/// again through the harness-side replica, and compares every check's
/// verdict and counters. A check fails when its untraced verdict differs
/// from the reference or its replica diverges. Reports the per-layer
/// metrics.
pub fn run_traced(setup: &Setup, seconds: u64) -> RunReport {
    let cfg = request_config();
    let mut report = RunReport::default();
    let mut ledgers: Vec<Ledger> = Vec::new();
    let mut untraced_ns = 0u128;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds) || ledgers.len() < MIN_TRACED_PASSES {
        let mut ledger = Ledger::default();
        for i in setup.order(report.passes) {
            let request = &setup.requests[i];
            let (wall, plain) = untraced_request(request, &cfg);
            untraced_ns += wall.as_nanos();
            let (mut failed, _) = judge(setup, request, plain.as_deref());
            let traced = catch_unwind(AssertUnwindSafe(|| {
                replay_request(&request.program, &request.scenarios, &cfg, &mut ledger)
            }));
            await_worker_exit();
            match (plain, traced) {
                (Some(plain), Ok(traced)) => {
                    for (k, (p, t)) in plain.iter().zip(&traced).enumerate() {
                        if p != t {
                            eprintln!(
                                "perfbench: replica of {} diverged: {t:?} vs {p:?}",
                                request.scenarios[k].name()
                            );
                            failed[k] = true;
                        }
                    }
                }
                _ => failed.fill(true),
            }
            tally(&mut report, &failed);
        }
        if ledgers.first().is_some_and(|l| l.counts != ledger.counts) {
            eprintln!(
                "perfbench: layer counts of pass {} differ from pass 0",
                report.passes
            );
            report.failed += 1;
        }
        ledgers.push(ledger);
        report.passes += 1;
    }
    report.elapsed_s = start.elapsed().as_secs_f64();
    report.metrics = layer_metrics(&ledgers, untraced_ns);
    report
}

/// Median-per-pass self times and per-pass counts from the traced passes.
fn layer_metrics(ledgers: &[Ledger], untraced_ns: u128) -> Vec<Metric> {
    let n = ledgers.len();
    let us = |f: &dyn Fn(&Ledger) -> f64| median(&ledgers.iter().map(f).collect::<Vec<_>>());
    let t = |f: fn(&crate::ledger::LayerTimes) -> u64| us(&|l: &Ledger| f(&l.times) as f64 / 1e3);
    let c = ledgers[0].counts;
    let traced_ns: u128 = ledgers.iter().map(|l| l.times.request_wall as u128).sum();
    let count = |name, v: u64| Metric::new(name, v as f64, "count", n);
    vec![
        Metric::new("matchpairs.us", t(|x| x.matchpairs), "us", n),
        count("matchpairs.states", c.matchpairs_states),
        count("matchpairs.pairs", c.matchpairs_pairs),
        Metric::new("paths.setup_us", t(|x| x.paths_setup), "us", n),
        Metric::new("paths.frontier_us", t(|x| x.paths_frontier), "us", n),
        Metric::new("paths.prune_us", t(|x| x.paths_prune), "us", n),
        Metric::new("paths.search_us", t(|x| x.paths_search), "us", n),
        count("paths.plans", c.paths_plans),
        count("paths.explored", c.paths_explored),
        count("paths.pruned", c.paths_pruned),
        Metric::new(
            "paths.prune_yield",
            ratio(c.paths_pruned as f64, c.paths_plans as f64),
            "ratio",
            n,
        ),
        count("paths.directed_transitions", c.directed_transitions),
        Metric::new(
            "paths.canonical_skip_ratio",
            ratio(
                c.canonical_skipped as f64,
                (c.canonical_skipped + c.directed_transitions) as f64,
            ),
            "ratio",
            n,
        ),
        Metric::new("session.encode_us", t(|x| x.session_encode), "us", n),
        count("session.built", c.session_built),
        Metric::new(
            "session.reuse_ratio",
            ratio(c.session_reused as f64, c.session_lookups as f64),
            "ratio",
            n,
        ),
        Metric::new("mcapi.trace_gen_us", t(|x| x.trace_gen), "us", n),
        Metric::new("checker.query_us", t(|x| x.query), "us", n),
        Metric::new("smt.solve_us", t(|x| x.solve), "us", n),
        count("checker.refinements", c.refinements),
        count("smt.sat_checks", c.sat_checks),
        count("smt.conflicts", c.conflicts),
        count("smt.propagations", c.propagations),
        Metric::new("explicit.explore_us", t(|x| x.explore), "us", n),
        count("explicit.states", c.explicit_states),
        count("explicit.transitions", c.explicit_transitions),
        Metric::new("analysis.triage_us", t(|x| x.triage), "us", n),
        Metric::new(
            "analysis.settled_ratio",
            ratio(c.settled as f64, c.checks as f64),
            "ratio",
            n,
        ),
        Metric::new("driver.worker_us", t(|x| x.worker), "us", n),
        Metric::new("driver.request_us", t(|x| x.request_wall), "us", n),
        Metric::new(
            "driver.unattributed_us",
            us(&|l: &Ledger| (l.times.request_wall - l.times.layer_sum()) as f64 / 1e3),
            "us",
            n,
        ),
        Metric::new(
            "driver.layer_coverage",
            us(&|l: &Ledger| ratio(l.times.layer_sum() as f64, l.times.request_wall as f64)),
            "ratio",
            n,
        ),
        Metric::new(
            "bench.trace_overhead_ratio",
            ratio(traced_ns as f64, untraced_ns as f64),
            "ratio",
            n,
        ),
    ]
}
