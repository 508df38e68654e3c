//! perfbench command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steadiness <runs> --seconds <s> [--trace <0|1>] [--seed <first seed>]
//! perfbench --derive-references
//! ```

use driver::scenario::{cross, Engine, ProgramSpec};
use driver::{run_portfolio, PortfolioConfig, VerdictKind};
use mcapi::types::DeliveryModel;
use perfbench::reference::References;
use perfbench::stats::{median, quartiles};
use perfbench::{run_traced, run_untraced, Setup, Workload};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <grid-sweep|paths-branchy|precise-deep> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --steadiness <runs> --seconds <s> \
[--trace <0|1>] [--seed <n>]\n       perfbench --derive-references";

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    steadiness: Option<usize>,
    derive: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--derive-references" {
            args.derive = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = Some(number(&value)?.max(1)),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--steadiness" => args.steadiness = Some(number(&value)?.max(1) as usize),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.derive, args.steadiness, args.workload, args.seconds) {
        (true, ..) => derive_references(),
        (false, Some(runs), None, Some(seconds)) => steadiness(&args, runs, seconds),
        (false, None, Some(workload), Some(seconds)) => {
            single_run(workload, &args, seconds, process_start)
        }
        _ => {
            eprintln!(
                "perfbench: --seconds and one of --workload or --steadiness are required\n{USAGE}"
            );
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One measured run; the result object is the last line of stdout.
fn single_run(
    workload: Workload,
    args: &Args,
    seconds: u64,
    process_start: Instant,
) -> Result<bool, String> {
    let setup = Setup::new(workload, args.seed)?;
    let first_setup_s = process_start.elapsed().as_secs_f64();
    let report = if args.trace {
        run_traced(&setup, seconds)
    } else {
        run_untraced(&setup, first_setup_s, seconds)
    };
    println!("{}", report.info_json(&setup, seconds, args.trace));
    println!("{}", report.result_json());
    Ok(report.failed == 0)
}

/// Repeat every workload `runs` times as child processes, rotating the
/// workload order each round so machine drift hits all of them, and
/// print each metric's spread across runs.
fn steadiness(args: &Args, runs: usize, seconds: u64) -> Result<bool, String> {
    let workloads = Workload::ALL;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut values: BTreeMap<(usize, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut all_correct = true;
    for round in 0..runs {
        for k in 0..workloads.len() {
            let w = (round + k) % workloads.len();
            let seed = args.seed + round as u64;
            let out = Command::new(&exe)
                .args(["--workload", workloads[w].name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let result: serde_json::Value = serde_json::from_str(last).map_err(|e| {
                format!("{} seed {seed}: bad result line: {e}", workloads[w].name())
            })?;
            let field = |name: &str| result.as_object().and_then(|o| get(o, name)).cloned();
            let correct = field("correct") == Some(serde_json::Value::Bool(true));
            all_correct &= correct && out.status.success();
            eprintln!(
                "round {round} {} seed {seed}: correct={correct}",
                workloads[w].name()
            );
            let metrics = field("metrics").unwrap_or(serde_json::Value::Null);
            for (name, m) in metrics.as_object().unwrap_or_default() {
                let Some(m) = m.as_object() else { continue };
                let value = match get(m, "value") {
                    Some(serde_json::Value::Float(x)) => *x,
                    Some(serde_json::Value::Int(x)) => *x as f64,
                    _ => continue,
                };
                let unit = match get(m, "unit") {
                    Some(serde_json::Value::Str(u)) => u.clone(),
                    _ => String::new(),
                };
                values
                    .entry((w, name.clone()))
                    .or_insert_with(|| (unit, Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    println!(
        "{:<14} {:<28} {:<6} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "unit", "n", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for ((w, name), (unit, v)) in &values {
        let med = median(v);
        let (q1, q3) = quartiles(v).unwrap_or((med, med));
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
        println!(
            "{:<14} {:<28} {:<6} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8.4}",
            workloads[*w].name(),
            name,
            unit,
            v.len(),
            significant(med),
            significant(q1),
            significant(q3),
            significant(min),
            significant(max),
            spread
        );
    }
    Ok(all_correct)
}

/// `x` with six significant digits, so sub-millisecond times stay legible.
fn significant(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{:.*}", (5 - magnitude).max(0) as usize, x)
}

fn get<'a>(object: &'a [(String, serde_json::Value)], key: &str) -> Option<&'a serde_json::Value> {
    object.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Print the reference table: the explicit engine's verdict for every
/// (program, delivery) the workloads check, bar the assertion-free points
/// (or the path engine's, where the BFS hits its state cap), after
/// checking that every symbolic engine's decided verdict agrees with it.
fn derive_references() -> Result<bool, String> {
    let mut specs: Vec<ProgramSpec> = Vec::new();
    for w in Workload::ALL {
        for r in w.requests(0) {
            let spec = r.scenarios[0].spec.clone();
            if !r.assertion_free && !specs.contains(&spec) {
                specs.push(spec);
            }
        }
    }
    let cfg = PortfolioConfig {
        threads: 2,
        static_triage: false,
        ..PortfolioConfig::default()
    };
    let mut rows = Vec::new();
    let mut agree = true;
    for spec in &specs {
        let scenarios = cross(
            std::slice::from_ref(spec),
            &DeliveryModel::ALL,
            &Engine::ALL,
        );
        let report = run_portfolio(&scenarios, &cfg);
        for delivery in DeliveryModel::ALL {
            let of = |engine: Engine| {
                scenarios
                    .iter()
                    .zip(&report.outcomes)
                    .find(|(s, _)| s.delivery == delivery && s.engine == engine)
                    .map(|(_, o)| o.verdict)
                    .expect("every engine ran")
            };
            // The explicit BFS gives up at `max_states` on the largest
            // points; the branch-complete path engine answers for it there.
            let decided = |v: VerdictKind| matches!(v, VerdictKind::Safe | VerdictKind::Violation);
            let (truth, source) = match of(Engine::Explicit) {
                v if decided(v) => (v, "explicit"),
                _ => (of(Engine::SymbolicPaths), "symbolic-paths"),
            };
            if !decided(truth) {
                return Err(format!("{}/{delivery}: no engine decided it", spec.name()));
            }
            for engine in Engine::ALL {
                let v = of(engine);
                if decided(v) && v != truth {
                    eprintln!(
                        "{}/{delivery}/{}: {v} disagrees with {source}'s {truth}",
                        spec.name(),
                        engine.tag()
                    );
                    agree = false;
                }
            }
            rows.push((spec.name(), delivery.to_string(), truth, source));
        }
        eprintln!("{}: done", spec.name());
    }
    print!("{}", References::render(&rows));
    Ok(agree)
}
