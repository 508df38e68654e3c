//! `mcapi-smc` — command-line front end for the symbolic checker.
//!
//! Programs are exchanged either as **MCAPI-lite** source (`.mcapi`, see
//! `crates/frontend` and the grammar reference in ARCHITECTURE.md) or as
//! JSON (the DSL serialises with serde). `check`/`info`/`behaviours`/
//! `explore`/`run` accept both: files ending in `.json` — or whose first
//! non-blank character is `{` — take the JSON path, everything else is
//! parsed as MCAPI-lite with caret diagnostics on error.
//!
//! ```text
//! mcapi-smc check <program> [--delivery unordered|fifo|zero] [--engine E] [--budget-ms MS] [--max-paths N] [--unroll N] [--no-canonical]
//! mcapi-smc fmt <program|-> [--write]   # canonical MCAPI-lite (idempotent)
//! mcapi-smc lint <program|dir> [--deny warnings] [--unroll N]  # static analysis, caret diagnostics
//! mcapi-smc export <family|point> [--scale K] [--out DIR]  # grid → .mcapi
//! mcapi-smc behaviours <program> [--delivery ...] [--limit N]
//! mcapi-smc explore <program> [--delivery ...]    # explicit ground truth (exit 3 at the state cap)
//! mcapi-smc run <program> [--seed N] [--delivery ...]  # one random execution
//! mcapi-smc demo <name>          # print a workload grid point as JSON
//! mcapi-smc --list-programs      # every accepted grid-point name
//! mcapi-smc portfolio [opts]     # parallel grid, cancel on first violation
//! mcapi-smc sweep [opts]         # parallel grid, run everything
//! mcapi-smc corpus-check <dir> [--min N] [--slowest N]  # verify `// expect:` headers
//! mcapi-smc --help | <command> --help  # usage lines, from the command table
//! ```
//!
//! Each subcommand accepts exactly the flags in its [`COMMANDS`] entry;
//! any other `--flag` (a typo such as `--enigne`) is a usage error (exit 2).
//!
//! `check` engines: `symbolic-overapprox` (default), `symbolic-precise`
//! (`--precise` is the legacy spelling), `symbolic-paths` (branch-complete:
//! enumerates every feasible control-flow path and checks each one —
//! `--max-paths N` bounds the frontier, truncation degrades to UNKNOWN),
//! `explicit`. `check`, `explore` and `corpus-check` run their engine
//! through the driver's one dispatch (`driver::run_engine`) and print from
//! its result; an incomplete search is UNKNOWN (exit 3) in every engine.
//! A `.mcapi` file's `// delivery:` header supplies the delivery model when
//! no `--delivery` flag is given; an unknown model there is a usage error
//! like a misspelt flag. `repeat` loops are
//! unrolled at compile time; `--unroll N` sets the iteration bound
//! (precedence: flag > the file's `// unroll:` header > default 64 —
//! each level replaces the bound, in either direction).
//!
//! Portfolio options: `--threads N` (≥ 1, default: all cores), `--scale K`
//! (grid size per family, ≥ 1, default 2), `--families a,b,c` (default: all),
//! `--corpus DIR` (also cross every `.mcapi` file in DIR), `--delivery
//! MODEL` (default: all three), `--budget-ms MS` (per-scenario wall-clock
//! budget), `--max-paths N` (per-scenario path budget for the
//! `symbolic-paths` engine), `--json PATH` (`-` for stdout; suppresses the
//! table), `--metrics-out PATH` (Prometheus text exposition of the run's
//! counters/gauges/histograms), `--events-out PATH` (one structured JSON
//! event per scenario, with encode/solve/schedule/enumerate timing
//! breakdowns), `--trace-out PATH` (Chrome trace-event JSON of the whole
//! run — one timeline lane per worker thread, spans down to individual
//! solver queries; load it in Perfetto or `chrome://tracing`),
//! `--no-session-reuse` (re-encode every scenario from scratch instead
//! of sharing incremental solver sessions per grid point),
//! `--no-canonical` (sweep every interleaving instead of one canonical
//! representative per Mazurkiewicz trace class — the directed searches
//! behind `symbolic-paths` and the explicit engine's state graph both
//! honour it; see `mcapi::canon`), `--no-static-triage` (skip the static
//! analysis pre-pass: scenarios it can decide soundly are normally
//! settled with zero engine work).
//!
//! `check` accepts the same `--metrics-out`/`--events-out`/`--trace-out`
//! flags: the single scenario is reported through the identical
//! portfolio plumbing, so its exposition shape matches a grid run's.

use driver::prelude::*;
use mcapi::error::McapiError;
use mcapi::program::{Program, UnrollConfig};
use mcapi::runtime::execute_random;
use mcapi::types::DeliveryModel;
use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use symbolic::checker::{enumerate_matchings, generate_trace, CheckConfig, MatchGen, Verdict};
use symbolic::session::SessionPool;

/// The `--delivery` flag, if present. A typo is a usage error: falling
/// back to unordered here would silently override a file's
/// `// delivery:` header and can flip the verdict.
fn delivery_flag(args: &[String]) -> Result<Option<DeliveryModel>, String> {
    strict_value(args, "--delivery")?
        .map(|v| {
            frontend::parse_delivery(v).ok_or_else(|| {
                format!(
                    "unknown delivery model {v:?}; expected unordered|fifo|zero\n{}",
                    usage(&args[0])
                )
            })
        })
        .transpose()
}

/// Every subcommand with its usage spec: the positional arguments, then
/// one `[--flag]` or `[--flag VALUE]` group per accepted flag. The spec is
/// both the `--help` text and the flag table: any other `--flag` is a
/// usage error.
const COMMANDS: &[(&str, &str)] = &[
    (
        "check",
        "<program> [--delivery unordered|fifo|zero] \
         [--engine symbolic-precise|symbolic-overapprox|symbolic-paths|explicit] [--precise] \
         [--budget-ms MS] [--max-paths N] [--unroll N] [--no-canonical] [--no-static-triage] \
         [--metrics-out PATH] [--events-out PATH] [--trace-out PATH]",
    ),
    ("fmt", "<program|-> [--write]"),
    ("lint", "<program|dir> [--deny warnings] [--unroll N]"),
    ("export", "<family|point> [--scale K] [--out DIR]"),
    (
        "behaviours",
        "<program> [--delivery unordered|fifo|zero] [--limit N] [--unroll N]",
    ),
    (
        "explore",
        "<program> [--delivery unordered|fifo|zero] [--unroll N]",
    ),
    (
        "run",
        "<program> [--delivery unordered|fifo|zero] [--seed N] [--unroll N]",
    ),
    ("info", "<program> [--unroll N]"),
    ("demo", "<name>"),
    ("portfolio", PORTFOLIO_SPEC),
    ("sweep", PORTFOLIO_SPEC),
    ("corpus-check", "<dir> [--min N] [--slowest N]"),
];

const PORTFOLIO_SPEC: &str = "[--threads N] [--scale K] [--families a,b,c] [--corpus DIR] \
     [--delivery unordered|fifo|zero] [--budget-ms MS] [--max-paths N] [--json PATH|-] \
     [--metrics-out PATH] [--events-out PATH] [--trace-out PATH] [--no-session-reuse] \
     [--no-canonical] [--no-static-triage]";

/// `cmd`'s usage line.
fn usage(cmd: &str) -> String {
    let (_, spec) = COMMANDS
        .iter()
        .find(|(name, _)| *name == cmd)
        .expect("usage of a table command");
    format!("usage: mcapi-smc {cmd} {spec}")
}

/// Every command's usage line, for `--help` and bare invocations.
fn help() -> String {
    let lines: String = COMMANDS
        .iter()
        .map(|(name, spec)| format!("  mcapi-smc {name} {spec}\n"))
        .collect();
    format!(
        "usage:\n{lines}  mcapi-smc --list-programs\n\
         exit codes: 0 safe, 1 violation, 2 bad usage, 3 unknown"
    )
}

/// The first `--flag` in `args` that `spec` does not accept. A value
/// flag's value is skipped unless it is itself `--`-prefixed, which the
/// flag's own parser then rejects as a missing value.
fn unknown_flag<'a>(spec: &str, args: &'a [String]) -> Option<&'a str> {
    // (flag, takes a value) for every `[--flag ...]` group of the spec.
    let accepted: Vec<(&str, bool)> = spec
        .split('[')
        .skip(1)
        .filter_map(|group| {
            let mut words = group.split(']').next()?.split_whitespace();
            Some((words.next()?, words.next().is_some()))
        })
        .collect();
    let mut rest = args.iter().skip(1).peekable();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match accepted.iter().find(|(flag, _)| flag == arg) {
            None => return Some(arg),
            Some((_, true)) => {
                rest.next_if(|v| !v.starts_with("--"));
            }
            Some((_, false)) => {}
        }
    }
    None
}

/// The subcommand's positional argument, if given.
fn positional(args: &[String]) -> Option<&str> {
    args.get(1)
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
}

/// Does this text look like a serialised JSON program rather than
/// MCAPI-lite source?
fn looks_like_json(text: &str) -> bool {
    text.trim_start().starts_with('{')
}

/// Parse program text by format: JSON (serde + re-compile) or MCAPI-lite
/// (frontend, with source-located diagnostics via [`McapiError::Parse`]).
/// An explicit `unroll` bound (the `--unroll` flag) overrides the file's
/// `// unroll:` header; without either, the default bounds apply.
fn parse_source(path: &str, text: &str, unroll: Option<u64>) -> Result<Program, McapiError> {
    let cfg = unroll.map(|n| UnrollConfig::with_max_count(n as usize));
    if path.ends_with(".json") || looks_like_json(text) {
        let program: Program = serde_json::from_str(text)
            .map_err(|e| McapiError::Builder(format!("cannot parse JSON: {e}")))?;
        match cfg {
            Some(c) => program.compile_with(&c),
            None => program.compile(),
        }
    } else {
        match cfg {
            Some(c) => frontend::parse_program_with(text, &c),
            None => frontend::parse_program(text),
        }
    }
}

/// Read and parse a program file, also returning its header directives
/// (`// delivery:` etc.; empty for JSON programs).
fn load_program(
    path: &str,
    unroll: Option<u64>,
) -> Result<(Program, frontend::Directives), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let directives = frontend::directives(&text).map_err(|e| format!("{path}: {e}"))?;
    match parse_source(path, &text, unroll) {
        Ok(p) => Ok((p, directives)),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Resolve a demo/program name: any grid-point name
/// ([`FamilySpec::from_name`]) plus the legacy unsized aliases the CLI
/// accepted before the table was derived from the grid.
fn named_program(name: &str) -> Option<FamilySpec> {
    let legacy = match name {
        "delay-gap" => Some(FamilySpec::DelayGap { chain: 1 }),
        "pipeline" => Some(FamilySpec::Pipeline {
            stages: 3,
            items: 3,
        }),
        "scatter" => Some(FamilySpec::Scatter { workers: 3 }),
        "ring" => Some(FamilySpec::Ring { nodes: 4, laps: 2 }),
        _ => None,
    };
    legacy.or_else(|| FamilySpec::from_name(name))
}

/// Print every accepted program name, derived from the live grid rather
/// than a hardcoded table (so new families can never be silently
/// omitted). Families whose programs contain conditional branches are
/// marked: on those, the trace-pinned symbolic engines scope their
/// verdict to one path and only `symbolic-paths`/`explicit` are
/// whole-program.
fn list_programs() {
    println!("program names (accepted by `demo`, `export`, and `--families` as family tags):");
    for family in FAMILIES {
        let grid = family_grid(family, 3);
        let examples: Vec<String> = grid.iter().map(|p| p.name()).collect();
        let branchy = grid.first().is_some_and(|p| p.build().has_branches());
        let mark = if branchy { " [branch-sensitive]" } else { "" };
        println!("  {family:<18} {}{mark}", examples.join(" "));
    }
    println!();
    println!("[branch-sensitive]: verdicts differ between the trace-pinned symbolic");
    println!("engines (one control-flow path) and symbolic-paths/explicit (all paths).");
    println!();
    println!("any point of a family's parameter space works, not just the examples:");
    println!("  raceN race-assertN delay-gapN scatterN branchyN randomSEED");
    println!("  pipelineSTAGESxITEMS ringNODESxLAPS");
    println!("  iterated-handshakeN credit-windowWINDOWxROUNDS");
    println!("legacy aliases: delay-gap pipeline scatter ring");
}

/// Portfolio defaults with the engine flags a command accepts applied:
/// `--budget-ms`, `--max-paths` (else `max_paths`) and `--no-canonical`.
fn engine_config(args: &[String], max_paths: usize) -> Result<PortfolioConfig, String> {
    Ok(PortfolioConfig {
        budget_ms: parse_flag_strict(args, "--budget-ms")?,
        max_paths: parse_flag_strict(args, "--max-paths")?.map_or(max_paths, |n| n as usize),
        canonical: !args.iter().any(|a| a == "--no-canonical"),
        ..PortfolioConfig::default()
    })
}

/// The [`PortfolioConfig`] the single-program commands (`check`, `explore`,
/// `corpus-check`) run under: a wider path frontier than a grid's.
fn single_config(args: &[String]) -> Result<PortfolioConfig, String> {
    engine_config(args, 256)
}

/// Run one engine on one program through the driver's dispatch
/// ([`run_engine`]) on a fresh session pool, with no triage pre-pass.
fn run_single(
    program: &Program,
    delivery: DeliveryModel,
    engine: Engine,
    cfg: &PortfolioConfig,
) -> (Scenario, EngineRun) {
    let spec = ProgramSpec::source(program.name.clone(), program.clone());
    let scenario = Scenario::new(spec, delivery, engine);
    let run = run_engine(program, &scenario, cfg, &mut SessionPool::new());
    (scenario, run)
}

/// The exit code of one verdict: 0 safe, 1 violation, 3 unknown.
fn verdict_exit(verdict: VerdictKind) -> u8 {
    match verdict {
        VerdictKind::Safe => 0,
        VerdictKind::Violation => 1,
        VerdictKind::Unknown | VerdictKind::Skipped => 3,
    }
}

/// The three observability output flags shared by `check` and the
/// portfolio subcommands.
struct OutputFlags {
    metrics_out: Option<String>,
    events_out: Option<String>,
    trace_out: Option<String>,
}

fn output_flags(args: &[String]) -> Result<OutputFlags, String> {
    let path = |flag: &str| -> Result<Option<String>, String> {
        Ok(strict_value(args, flag)?.map(str::to_string))
    };
    Ok(OutputFlags {
        metrics_out: path("--metrics-out")?,
        events_out: path("--events-out")?,
        trace_out: path("--trace-out")?,
    })
}

/// Write `data` to `path`; a failure is reported with the path.
fn write_file(path: impl AsRef<Path>, data: String) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Write the observability outputs a run asked for. `check` reports its
/// single scenario through the same [`PortfolioReport`] plumbing as
/// `portfolio`/`sweep`, so the metrics and event expositions have
/// identical shape either way.
fn write_outputs(
    outputs: &OutputFlags,
    report: &PortfolioReport,
    tracer: Option<&trace::Tracer>,
) -> Result<(), String> {
    if let Some(path) = &outputs.metrics_out {
        write_file(path, report.to_prometheus())?;
    }
    if let Some(path) = &outputs.events_out {
        write_file(path, report.events_jsonl())?;
    }
    if let (Some(path), Some(t)) = (&outputs.trace_out, tracer) {
        write_file(path, t.chrome_trace())?;
    }
    Ok(())
}

/// The value following `flag` of `args[0]`'s command, refusing to consume
/// a `--`-prefixed token: in `--json --budget-ms 100` the `--json` value
/// is *missing*, not `"--budget-ms"` (which would otherwise be
/// interpreted twice).
fn strict_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1).map(String::as_str) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{flag} needs a value\n{}", usage(&args[0]))),
    }
}

/// Strict numeric flag parsing: a present flag with a missing or
/// unparseable value is a usage error, not a silent fallback
/// (`--budget-ms 10s` must not mean "unbounded").
fn parse_flag_strict(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    strict_value(args, flag)?
        .map(|raw| {
            raw.parse().map_err(|_| {
                format!(
                    "{flag}: cannot parse {raw:?} as a number\n{}",
                    usage(&args[0])
                )
            })
        })
        .transpose()
}

/// A count flag of `args[0]`'s command that must be at least 1: `0` is a
/// usage error, not a silent clamp to 1 that would run another command
/// than the one typed.
fn count_flag(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    match parse_flag_strict(args, flag)? {
        Some(0) => Err(format!("{flag} must be at least 1\n{}", usage(&args[0]))),
        n => Ok(n.map(|n| n as usize)),
    }
}

/// The exit code for a portfolio's verdicts: 1 on any violation, else 3
/// on any unknown, else 0.
fn exit_code(violation: bool, unknown: bool) -> ExitCode {
    if violation {
        ExitCode::from(1)
    } else if unknown {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// Build and run a scenario grid; see the module docs for the flags.
fn portfolio(args: &[String], mode: Mode) -> Result<ExitCode, String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let scale = count_flag(args, "--scale")?.unwrap_or(2);
    let threads = match count_flag(args, "--threads")? {
        Some(n) => n,
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    let base = engine_config(args, PortfolioConfig::default().max_paths)?;

    let specs: Vec<FamilySpec> = match strict_value(args, "--families")? {
        Some(list) => {
            let mut seen = std::collections::BTreeSet::new();
            let mut specs = Vec::new();
            for f in list.split(',') {
                if !seen.insert(f) {
                    continue; // deduplicate, keeping first-mention order
                }
                let pts = family_grid(f, scale);
                if pts.is_empty() {
                    return Err(format!("unknown family {f}; known families: {FAMILIES:?}"));
                }
                specs.extend(pts);
            }
            specs
        }
        None => default_grid(scale),
    };

    // A delivery typo is a usage error (`delivery_flag`), never a silent
    // fallback that would drop 2/3 of the grid.
    let deliveries: Vec<DeliveryModel> = match delivery_flag(args)? {
        Some(m) => vec![m],
        None => DeliveryModel::ALL.to_vec(),
    };
    let json_target = strict_value(args, "--json")?;
    let outputs = output_flags(args)?;

    let mut scenarios = cross(&specs, &deliveries, &Engine::ALL);
    if let Some(dir) = strict_value(args, "--corpus")? {
        let mut extra = corpus_scenarios(Path::new(dir), &deliveries, &Engine::ALL)?;
        if extra.is_empty() {
            eprintln!("warning: no .mcapi files under {dir}");
        }
        scenarios.append(&mut extra);
    }

    let cfg = PortfolioConfig {
        threads,
        mode,
        session_reuse: !has("--no-session-reuse"),
        static_triage: !has("--no-static-triage"),
        ..base
    };
    let tracer = outputs.trace_out.as_ref().map(|_| trace::Tracer::new());
    let report = {
        // A `main` lane holds one umbrella span over the whole run; the
        // per-worker lanes are installed inside the pool.
        let _lane = tracer.as_ref().map(|t| t.install("main"));
        let mut run_span = trace::span("portfolio.run");
        let report = run_portfolio_traced(&scenarios, &cfg, tracer.as_ref());
        run_span.arg("scenarios", scenarios.len() as u64);
        report
    };
    write_outputs(&outputs, &report, tracer.as_ref())?;

    match json_target {
        Some("-") => println!("{}", report.to_json()),
        Some(path) => {
            write_file(path, report.to_json())?;
            print!("{}", report.render_table());
        }
        None => print!("{}", report.render_table()),
    }
    Ok(exit_code(report.found_violation(), report.unknown > 0))
}

/// `corpus-check <dir>`: verify every corpus file's `// expect:` header
/// against the branch-complete engine, in-process — the structured
/// replacement for CI's old shell loop over `mcapi-smc check`. The
/// exit-code contract matches the loop it replaced: 0 when every file
/// reproduces its header (and the corpus floor holds), 1 on any
/// mismatch, missing header, or a corpus smaller than `--min` (default
/// 21). Each file's `// delivery:`/`// unroll:` headers apply exactly as
/// they do under `check --engine symbolic-paths`.
fn corpus_check(args: &[String]) -> Result<ExitCode, String> {
    let dir = positional(args).ok_or_else(|| usage("corpus-check"))?;
    let min = parse_flag_strict(args, "--min")?.unwrap_or(21) as usize;
    let slowest = parse_flag_strict(args, "--slowest")?.unwrap_or(0) as usize;
    let cfg = single_config(args)?;
    let files = corpus_files(Path::new(dir))?;
    println!("{} corpus files", files.len());
    let mut fail = false;
    if files.len() < min {
        eprintln!(
            "corpus floor violated: {} files < required {min}",
            files.len()
        );
        fail = true;
    }
    // (display name, parse + check wall-clock) for every file that ran
    // the checker, feeding the per-file column and the --slowest summary.
    let mut timings: Vec<(String, u64)> = Vec::with_capacity(files.len());
    for path in &files {
        let shown = path.display();
        let file_start = std::time::Instant::now();
        let (program, directives) = match load_program(&path.display().to_string(), None) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                fail = true;
                continue;
            }
        };
        let Some(expect) = directives.expect else {
            println!("{shown}: missing or invalid // expect: header");
            fail = true;
            continue;
        };
        let want = match expect {
            frontend::Expect::Safe => 0u8,
            frontend::Expect::Violation => 1,
            frontend::Expect::Unknown => 3,
        };
        // Mirror `check --engine symbolic-paths` defaults: header
        // delivery (or unordered), over-approximating match pairs with
        // refinement, the single-program path frontier.
        let delivery = directives.delivery.unwrap_or(DeliveryModel::Unordered);
        let (scenario, run) = run_single(&program, delivery, Engine::SymbolicPaths, &cfg);
        let got = verdict_exit(run.outcome(&scenario).verdict);
        let wall_ms = file_start.elapsed().as_millis() as u64;
        timings.push((shown.to_string(), wall_ms));
        if got != want {
            println!("{shown}: expected {expect} (exit {want}), got exit {got} [{wall_ms} ms]");
            fail = true;
        } else {
            println!("{shown}: {expect} (ok) [{wall_ms} ms]");
        }
    }
    if slowest > 0 && !timings.is_empty() {
        timings.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        println!(
            "slowest {} of {}:",
            slowest.min(timings.len()),
            timings.len()
        );
        for (name, ms) in timings.iter().take(slowest) {
            println!("  {ms:>6} ms  {name}");
        }
    }
    Ok(exit_code(fail, false))
}

/// `lint <file|dir>`: run the static communication analysis with caret
/// diagnostics against the source. Exit contract: 0 when every file is
/// clean (or every finding is declared by an `// expect-lint:` header),
/// 1 on findings (errors always; warnings only under `--deny warnings`;
/// a stale `expect-lint` header that matches nothing always fails), 2 on
/// usage errors. Files that do not compile are reported (with their
/// caret diagnostic) and count as failures.
fn lint_cmd(args: &[String]) -> Result<ExitCode, String> {
    let target = positional(args).ok_or_else(|| usage("lint"))?;
    let deny_warnings = match strict_value(args, "--deny")? {
        Some("warnings") => true,
        Some(_) => return Err("--deny accepts exactly `warnings`".into()),
        None => false,
    };
    let unroll_flag = parse_flag_strict(args, "--unroll")?;
    let path = Path::new(target);
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        corpus_files(path)?
    } else {
        vec![path.to_path_buf()]
    };
    if files.is_empty() {
        return Err(format!("no .mcapi files under {target}"));
    }

    let mut fail = false;
    let (mut errors, mut warnings, mut expected_total) = (0usize, 0usize, 0usize);
    for file in &files {
        let shown = file.display();
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {shown}: {e}");
                errors += 1;
                fail = true;
                continue;
            }
        };
        let report = frontend::directives(&text).and_then(|d| {
            // Unroll precedence mirrors `check`: flag > header > default.
            let unroll = match unroll_flag.or(d.unroll.map(|n| n as u64)) {
                Some(n) => UnrollConfig::with_max_count(n as usize),
                None => UnrollConfig::default(),
            };
            frontend::lint_source(&text, &unroll)
        });
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{shown}: {e}");
                errors += 1;
                fail = true;
                continue;
            }
        };
        let expected = frontend::expect_lints(&text);
        let exp = frontend::check_expectations(&report, &expected);
        for f in &report.findings {
            println!("{shown}: {}", f.rendered);
        }
        for want in &exp.missing {
            println!("{shown}: error: expected lint matching {want:?} was not produced");
        }
        errors += exp.unexpected_errors;
        warnings += exp.unexpected_warnings;
        expected_total += exp.matched;
        if !exp.pass(deny_warnings) {
            fail = true;
        }
    }
    println!(
        "{} file(s): {errors} error(s), {warnings} warning(s), {expected_total} expected finding(s)",
        files.len()
    );
    Ok(exit_code(fail, false))
}

/// `fmt`: canonicalise MCAPI-lite (or convert a JSON program to it).
fn fmt(args: &[String]) -> Result<ExitCode, String> {
    let path = positional(args).ok_or_else(|| usage("fmt"))?;
    let write_back = args.iter().any(|a| a == "--write");
    if write_back && path == "-" {
        return Err("fmt: --write needs a file path, not stdin (`-`)".into());
    }
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    let formatted = if looks_like_json(&text) {
        // JSON → canonical MCAPI-lite (a one-way migration aid).
        parse_source("stdin.json", &text, None).map(|p| frontend::pretty(&p))
    } else {
        frontend::format_source(&text)
    };
    let out = formatted.map_err(|e| format!("{path}: {e}"))?;
    if write_back {
        write_file(path, out)?;
    } else {
        print!("{out}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `export`: dump a grid family (or a single point) as MCAPI-lite.
fn export(args: &[String]) -> Result<ExitCode, String> {
    let target = positional(args)
        .ok_or_else(|| format!("{}\nfamilies: {}", usage("export"), FAMILIES.join(" ")))?;
    let scale = count_flag(args, "--scale")?.unwrap_or(2);
    // A family tag exports the whole grid; otherwise fall back to a
    // single named point (`ring` is a family, `ring4x2` — and the legacy
    // alias spellings — a point).
    let family = family_grid(target, scale);
    let points: Vec<FamilySpec> = if family.is_empty() {
        named_program(target).into_iter().collect()
    } else {
        family
    };
    if points.is_empty() {
        return Err(format!(
            "unknown family or point `{target}`; known families: {FAMILIES:?}\n\
             (run `mcapi-smc --list-programs` for point-name patterns)"
        ));
    }
    let render = |spec: &FamilySpec| {
        format!(
            "// family: {}\n// point: {}\n{}",
            spec.family(),
            spec.name(),
            frontend::pretty(&spec.build())
        )
    };
    match strict_value(args, "--out")? {
        Some(dir) => {
            let dir = Path::new(dir);
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            for spec in &points {
                let path = dir.join(format!("{}.mcapi", spec.name()));
                write_file(&path, render(spec))?;
                println!("wrote {}", path.display());
            }
        }
        None => {
            for (i, spec) in points.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                print!("{}", render(spec));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `demo <name>`: print a workload grid point as JSON.
fn demo(args: &[String]) -> Result<ExitCode, String> {
    let Some(name) = positional(args) else {
        list_programs();
        return Err(usage("demo"));
    };
    let spec = named_program(name)
        .ok_or_else(|| format!("unknown demo {name}; run `mcapi-smc --list-programs`"))?;
    println!("{}", serde_json::to_string_pretty(&spec.build()).unwrap());
    Ok(ExitCode::SUCCESS)
}

/// The subcommands that load one program file: `info`, `check`,
/// `behaviours`, `explore` and `run`.
fn program_command(cmd: &str, args: &[String]) -> Result<ExitCode, String> {
    let path = positional(args).ok_or_else(|| usage(cmd))?;
    // `--unroll N` sets the loop-unroll bound; precedence over the file's
    // `// unroll:` header mirrors `--delivery`.
    let (program, directives) = load_program(path, parse_flag_strict(args, "--unroll")?)?;
    if cmd == "info" {
        print!("{}", program.render());
        println!(
            "{} threads, {} sends, {} recvs, {} instructions",
            program.threads.len(),
            program.num_static_sends(),
            program.num_static_recvs(),
            program.code_size()
        );
        return Ok(ExitCode::SUCCESS);
    }
    // Precedence: --delivery flag, then the file's `// delivery:` header,
    // then unordered.
    let delivery = delivery_flag(args)?
        .or(directives.delivery)
        .unwrap_or(DeliveryModel::Unordered);
    match cmd {
        "check" => check(args, &program, delivery),
        "behaviours" => {
            let limit = parse_flag_strict(args, "--limit")?.unwrap_or(10_000) as usize;
            let cfg = CheckConfig {
                delivery,
                matchgen: MatchGen::OverApprox,
                ..CheckConfig::default()
            };
            let trace = generate_trace(&program, &cfg);
            let en = enumerate_matchings(&program, &trace, &cfg, limit);
            println!(
                "{} behaviours ({} spurious blocked, {} SMT checks){}:",
                en.matchings.len(),
                en.spurious,
                en.sat_checks,
                if en.truncated {
                    " [truncated: limit/budget reached]"
                } else {
                    ""
                }
            );
            for m in &en.matchings {
                let s: Vec<String> = m.iter().map(|(r, s)| format!("{r:?}<-{s:?}")).collect();
                println!("  {}", s.join(" "));
            }
            Ok(ExitCode::SUCCESS)
        }
        "explore" => {
            // Ground truth over every interleaving: no canonical pruning.
            let cfg = PortfolioConfig {
                canonical: false,
                ..single_config(args)?
            };
            let (scenario, run) = run_single(&program, delivery, Engine::Explicit, &cfg);
            let EngineRun::Explicit(r) = &run else {
                unreachable!("the explicit engine returns an exploration")
            };
            println!(
                "states: {} | transitions: {} | behaviours: {} | deadlocks: {}",
                r.states,
                r.transitions,
                r.matchings.len(),
                r.deadlocks
            );
            for v in &r.violations {
                println!("violation: {v}");
            }
            let out = run.outcome(&scenario);
            if out.verdict == VerdictKind::Unknown {
                println!("verdict: UNKNOWN ({})", out.detail);
            }
            Ok(ExitCode::from(verdict_exit(out.verdict)))
        }
        _ => {
            let seed = parse_flag_strict(args, "--seed")?.unwrap_or(0);
            let out = execute_random(&program, delivery, seed);
            print!("{}", out.trace.render());
            if out.trace.deadlock {
                println!("deadlock");
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// `check`: one program under one engine; see the module docs.
fn check(args: &[String], program: &Program, delivery: DeliveryModel) -> Result<ExitCode, String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let engine = match strict_value(args, "--engine")? {
        None if has("--precise") => Engine::Symbolic(MatchGen::Precise),
        None => Engine::Symbolic(MatchGen::OverApprox),
        Some("symbolic-precise" | "precise") => Engine::Symbolic(MatchGen::Precise),
        Some("symbolic-overapprox" | "overapprox" | "symbolic") => {
            Engine::Symbolic(MatchGen::OverApprox)
        }
        Some("symbolic-paths" | "paths") => Engine::SymbolicPaths,
        Some("explicit") => Engine::Explicit,
        Some(other) => {
            return Err(format!(
                "unknown engine {other:?}; expected \
                 symbolic-precise|symbolic-overapprox|symbolic-paths|explicit\n{}",
                usage(&args[0])
            ))
        }
    };
    // Validate --budget-ms/--max-paths before engine dispatch so a
    // malformed value is a usage error on every engine.
    let cfg = single_config(args)?;
    if has("--max-paths") && engine != Engine::SymbolicPaths {
        eprintln!(
            "note: --max-paths bounds the symbolic-paths frontier; \
             the {} engine analyses one trace and ignores it",
            engine.tag()
        );
    }
    let outputs = output_flags(args)?;
    let tracer = outputs.trace_out.as_ref().map(|_| trace::Tracer::new());
    let start = std::time::Instant::now();
    let (scenario, run) = {
        let _lane = tracer.as_ref().map(|t| t.install("main"));
        run_single(program, delivery, engine, &cfg)
    };
    let mut out = run.outcome(&scenario);
    print_check(&scenario, &run, &out);
    let code = ExitCode::from(verdict_exit(out.verdict));
    // The single scenario is recorded under the program's own name.
    out.scenario = program.name.clone();
    out.family = "file".to_string();
    out.wall_ms = start.elapsed().as_millis() as u64;
    let report = PortfolioReport::from_outcomes("check", 1, out.wall_ms, vec![out]);
    write_outputs(&outputs, &report, tracer.as_ref())?;
    Ok(code)
}

/// Print `check`'s report of one engine run: the configuration, the
/// engine's work, then the verdict with its witness.
fn print_check(scenario: &Scenario, run: &EngineRun, out: &ScenarioOutcome) {
    let (name, delivery) = (scenario.spec.name(), scenario.delivery);
    match scenario.engine {
        Engine::Symbolic(matchgen) => {
            println!("program: {name} | delivery: {delivery} | matchgen: {matchgen:?}")
        }
        engine => println!(
            "program: {name} | delivery: {delivery} | engine: {}",
            engine.tag()
        ),
    }
    match run {
        EngineRun::Explicit(r) => println!(
            "states: {} | transitions: {} | behaviours: {}",
            r.states,
            r.transitions,
            r.matchings.len()
        ),
        EngineRun::Symbolic { report, .. } => {
            println!(
                "encoding: {} vars, {} clauses, {} atoms | match-pairs: {} ({} states)",
                report.encode_stats.sat_vars,
                report.encode_stats.sat_clauses,
                report.encode_stats.theory_atoms,
                report.matchgen_pairs,
                report.matchgen_states,
            );
            if scenario.engine == Engine::SymbolicPaths {
                println!(
                    "paths: {} explored, {} pruned | directed: {} transitions, {} canonical-skipped",
                    report.paths_explored,
                    report.paths_pruned,
                    report.directed_transitions,
                    report.canonical_skipped,
                );
            }
        }
    }
    match (out.verdict, run) {
        (VerdictKind::Unknown | VerdictKind::Skipped, _) => {
            println!("verdict: UNKNOWN ({})", out.detail)
        }
        (VerdictKind::Safe, EngineRun::Explicit(_)) => println!("verdict: SAFE"),
        (VerdictKind::Safe, _) if scenario.engine == Engine::SymbolicPaths => {
            println!("verdict: SAFE (all feasible control-flow paths)")
        }
        (VerdictKind::Safe, _) => {
            println!("verdict: SAFE (no violation within this trace's branches)")
        }
        (VerdictKind::Violation, EngineRun::Explicit(r)) => {
            println!("verdict: VIOLATION");
            for v in &r.violations {
                println!("  {v}");
            }
        }
        (VerdictKind::Violation, EngineRun::Symbolic { report, .. }) => {
            println!("verdict: VIOLATION");
            let Verdict::Violation(cv) = &report.verdict else {
                return;
            };
            if let Some(path) = &cv.branch_path {
                println!("  path: {path}");
            }
            for m in &cv.violated_props {
                println!("  property: {m}");
            }
            for (r, s) in &cv.witness.matching {
                println!("  {r:?} <- {s:?}");
            }
            if let Some(v) = &cv.violation {
                println!("  replayed: {v}");
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-programs") {
        list_programs();
        return ExitCode::SUCCESS;
    }
    dispatch(&args).unwrap_or_else(|usage_error| {
        eprintln!("{usage_error}");
        ExitCode::from(2)
    })
}

/// Check the command line against [`COMMANDS`] and run the subcommand.
/// `Err` is a usage error (exit 2) carrying its message.
fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let is_help = |a: &String| a == "--help" || a == "-h";
    let Some(first) = args.first() else {
        return Err(help());
    };
    if is_help(first) {
        println!("{}", help());
        return Ok(ExitCode::SUCCESS);
    }
    let Some(&(cmd, spec)) = COMMANDS.iter().find(|(name, _)| name == first) else {
        return Err(format!("unknown command {first}\n{}", help()));
    };
    if args.iter().any(is_help) {
        println!("{}", usage(cmd));
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(flag) = unknown_flag(spec, args) {
        return Err(format!("unknown flag {flag} for `{cmd}`\n{}", usage(cmd)));
    }
    match cmd {
        "portfolio" => portfolio(args, Mode::Race),
        "sweep" => portfolio(args, Mode::Sweep),
        "fmt" => fmt(args),
        "lint" => lint_cmd(args),
        "export" => export(args),
        "corpus-check" => corpus_check(args),
        "demo" => demo(args),
        _ => program_command(cmd, args),
    }
}
