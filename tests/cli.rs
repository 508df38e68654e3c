//! End-to-end tests of the `mcapi-smc` command-line tool.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcapi-smc"))
}

fn demo_json(name: &str) -> String {
    let out = bin().args(["demo", name]).output().expect("run demo");
    assert!(out.status.success(), "demo {name} failed");
    String::from_utf8(out.stdout).unwrap()
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mcapi-smc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn demo_emits_parseable_program() {
    let json = demo_json("fig1");
    let p: mcapi::Program = serde_json::from_str(&json).expect("valid program JSON");
    assert_eq!(p.threads.len(), 3);
}

#[test]
fn check_finds_violation_with_exit_code_1() {
    let path = write_temp("fig1-assert.json", &demo_json("fig1-assert"));
    let out = bin()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "violation => exit 1");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("VIOLATION"), "{stdout}");
    assert!(stdout.contains("replayed"), "{stdout}");
}

#[test]
fn check_zero_delay_is_safe_with_exit_code_0() {
    let path = write_temp("fig1-assert-zd.json", &demo_json("fig1-assert"));
    let out = bin()
        .args(["check", path.to_str().unwrap(), "--delivery", "zero"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "safe => exit 0");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("SAFE"), "{stdout}");
}

#[test]
fn check_unroll_flag_and_header_raise_the_loop_bound() {
    // 100 iterations exceed the default bound of 64.
    let src = "program p { thread t0 { var x; x = 0; repeat 100 { x = x + 1; } } }";
    let path = write_temp("big-loop.mcapi", src);
    let out = bin()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "over-bound loop is rejected");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unroll"), "{stderr}");
    // --unroll raises it.
    let out = bin()
        .args(["check", path.to_str().unwrap(), "--unroll", "128"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "raised bound => safe");
    // A `// unroll:` header works too; the flag has precedence, so an
    // explicit *lower* flag still rejects.
    let with_header = format!("// unroll: 128\n{src}");
    let path = write_temp("big-loop-header.mcapi", &with_header);
    let out = bin()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "header raises the bound");
    let out = bin()
        .args(["check", path.to_str().unwrap(), "--unroll", "50"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "flag overrides the header");
    // A malformed value is a usage error, not a silent default.
    let out = bin()
        .args(["check", path.to_str().unwrap(), "--unroll", "lots"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn second_lap_corpus_file_violates_under_every_engine() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/second-lap.mcapi");
    for engine in [
        "symbolic-precise",
        "symbolic-overapprox",
        "symbolic-paths",
        "explicit",
    ] {
        let out = bin()
            .args(["check", corpus.to_str().unwrap(), "--engine", engine])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{engine} must report the second-iteration violation"
        );
    }
}

#[test]
fn loop_storm_corpus_file_degrades_to_unknown() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/loop-storm.mcapi");
    let out = bin()
        .args([
            "check",
            corpus.to_str().unwrap(),
            "--engine",
            "symbolic-paths",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "path blowup => UNKNOWN, exit 3");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("UNKNOWN"), "{stdout}");

    // The explicit search stops at its state cap: an incomplete search is
    // UNKNOWN (exit 3), never a clean exit 0.
    let out = bin()
        .args(["explore", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(3), "{stdout}");
    assert!(
        stdout.contains("verdict: UNKNOWN (state budget exhausted at 1000000)"),
        "{stdout}"
    );
}

/// The explicit engine honours `--budget-ms`: loop-storm's search is cut
/// by the clock, long before its 1,000,000-state cap, and the verdict is
/// UNKNOWN (exit 3) naming the time budget.
#[test]
fn explicit_engine_stops_at_time_budget() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/loop-storm.mcapi");
    let out = bin()
        .args([
            "check",
            corpus.to_str().unwrap(),
            "--engine",
            "explicit",
            "--budget-ms",
            "200",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(3), "{stdout}");
    assert!(!stderr.contains("ignores"), "{stderr}");
    let states: usize = stdout
        .split("explicit: time budget exhausted after ")
        .nth(1)
        .and_then(|rest| rest.split(" states").next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no time-budget reason in {stdout}"));
    assert!(states < 1_000_000, "{stdout}");
}

/// `corpus/delay-gap1-zero.mcapi` with its `// delivery: zero-delay`
/// header misspelt: dropping the header would check it under unordered
/// delivery and report a VIOLATION the intended model does not have.
fn misspelt_delivery_header() -> String {
    let corpus =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/delay-gap1-zero.mcapi");
    let text = std::fs::read_to_string(corpus).unwrap();
    assert!(text.contains("// delivery: zero-delay\n"));
    text.replace("// delivery: zero-delay\n", "// delivery: zero-dealy\n")
}

#[test]
fn unknown_delivery_header_is_a_usage_error() {
    let path = write_temp("delay-gap1-zero-dealy.mcapi", &misspelt_delivery_header());
    let file = path.to_str().unwrap();
    for cmd in ["check", "behaviours", "explore", "run"] {
        let out = bin().args([cmd, file]).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains(file), "{cmd} names the file: {stderr}");
        assert!(
            stderr.contains("`zero-dealy`"),
            "{cmd} names the value: {stderr}"
        );
    }
    // `lint` reports the file as a failing finding (its own exit contract).
    let out = bin().args(["lint", file]).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "lint: {stderr}");
    assert!(stderr.contains("`zero-dealy`"), "lint: {stderr}");
    // `sweep --corpus` loads the directory before running anything.
    let dir = write_corpus(
        "bad-delivery-sweep",
        &[("d.mcapi", &misspelt_delivery_header())],
    );
    let out = bin()
        .args([
            "sweep",
            "--corpus",
            dir.to_str().unwrap(),
            "--families",
            "fig1",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("d.mcapi") && stderr.contains("`zero-dealy`"),
        "{stderr}"
    );
}

#[test]
fn corpus_check_fails_a_file_with_an_unknown_delivery_header() {
    let dir = write_corpus(
        "bad-delivery",
        &[
            ("a-safe.mcapi", SAFE_SRC),
            ("d.mcapi", &misspelt_delivery_header()),
        ],
    );
    let out = bin()
        .args(["corpus-check", dir.to_str().unwrap(), "--min", "2"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("a-safe.mcapi: safe (ok)"), "{stdout}");
    assert!(
        !stdout.contains("d.mcapi"),
        "the bad file is not checked: {stdout}"
    );
    assert!(
        stderr.contains("d.mcapi") && stderr.contains("`zero-dealy`"),
        "{stderr}"
    );
}

/// The UNKNOWN-never-silent-SAFE ceiling contract on a storm the solver
/// can actually finish: shrinking the loop to 2^6 = 64 static paths puts
/// it under the enumeration cap, so the path engine must run the whole
/// family through the SAT core and answer a *earned* SAFE — while the
/// same storm under a tighter `--max-paths` budget must still surface
/// the truncation as UNKNOWN (exit 3), never silently SAFE (exit 0).
#[test]
fn shrunk_loop_storm_completes_but_truncation_stays_unknown() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/loop-storm.mcapi");
    let text = std::fs::read_to_string(&corpus).unwrap();
    let shrunk = write_temp("loop-storm-6.mcapi", &text.replace("repeat 13", "repeat 6"));

    let out = bin()
        .args([
            "check",
            shrunk.to_str().unwrap(),
            "--engine",
            "symbolic-paths",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "64-path storm completes => SAFE"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("SAFE"), "{stdout}");
    assert!(
        stdout.contains("all feasible control-flow paths"),
        "SAFE must be branch-complete, not trace-scoped: {stdout}"
    );

    let out = bin()
        .args([
            "check",
            shrunk.to_str().unwrap(),
            "--engine",
            "symbolic-paths",
            "--max-paths",
            "3",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "truncated => exit 3, never 0");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("UNKNOWN"), "{stdout}");
    assert!(stdout.contains("truncated"), "{stdout}");
}

#[test]
fn behaviours_counts_fig4() {
    let path = write_temp("fig1.json", &demo_json("fig1"));
    let out = bin()
        .args(["behaviours", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("2 behaviours"), "{stdout}");
}

#[test]
fn explore_reports_states_and_violations() {
    let path = write_temp("gap.json", &demo_json("delay-gap"));
    let out = bin()
        .args(["explore", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "ground truth finds the violation"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("states:"), "{stdout}");
    assert!(stdout.contains("violation:"), "{stdout}");
    // Under zero delay the same program explores clean.
    let out = bin()
        .args(["explore", path.to_str().unwrap(), "--delivery", "zero"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn run_renders_a_trace() {
    let path = write_temp("ring.json", &demo_json("ring"));
    let out = bin()
        .args(["run", path.to_str().unwrap(), "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("send"), "{stdout}");
    assert!(stdout.contains("recv"), "{stdout}");
}

#[test]
fn precise_flag_is_accepted() {
    let path = write_temp("race.json", &demo_json("race-assert3"));
    let out = bin()
        .args(["check", path.to_str().unwrap(), "--precise"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Precise"), "{stdout}");
}

#[test]
fn info_renders_program_listing() {
    let path = write_temp("fig1-info.json", &demo_json("fig1"));
    let out = bin()
        .args(["info", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("thread 0"), "{stdout}");
    assert!(stdout.contains("send"), "{stdout}");
    assert!(stdout.contains("3 threads, 3 sends, 3 recvs"), "{stdout}");
}

#[test]
fn bad_usage_exits_2() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["check"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["check", "/nonexistent/x.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["demo", "nope"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sweep_runs_a_grid_and_reports_a_table() {
    let out = bin()
        .args([
            "sweep",
            "--scale",
            "1",
            "--families",
            "fig1,ring",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "fig1 and ring are safe");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("| scenario |"), "{stdout}");
    assert!(
        stdout.contains("fig1/unordered/symbolic-precise"),
        "{stdout}"
    );
    assert!(stdout.contains("sweep mode on 2 thread(s)"), "{stdout}");
    assert!(stdout.contains("0 violations"), "{stdout}");
}

#[test]
fn portfolio_finds_violations_with_exit_code_1() {
    let out = bin()
        .args([
            "portfolio",
            "--scale",
            "1",
            "--families",
            "race-assert",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "race-assert violates");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("VIOLATION"), "{stdout}");
}

#[test]
fn sweep_json_report_is_parseable_and_consistent() {
    let out = bin()
        .args([
            "sweep",
            "--scale",
            "1",
            "--families",
            "fig1-assert",
            "--json",
            "-",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report: driver::PortfolioReport = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(
        report.outcomes.len(),
        12,
        "1 point x 3 deliveries x 4 engines"
    );
    assert_eq!(
        report.safe + report.violations + report.unknown + report.skipped,
        report.outcomes.len()
    );
    assert!(report.found_violation());
}

#[test]
fn check_paths_engine_finds_the_gatekeeper_violation_with_its_path() {
    // The acceptance payoff: the branch-complete engine flips gatekeeper
    // from symbolic-SAFE to VIOLATION, names the branch vector, and keeps
    // the 0/1/3 exit contract.
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/gatekeeper.mcapi");
    let out = bin()
        .args([
            "check",
            corpus.to_str().unwrap(),
            "--engine",
            "symbolic-paths",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "violation => exit 1");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("VIOLATION"), "{stdout}");
    assert!(stdout.contains("path: worker:F"), "{stdout}");
    assert!(stdout.contains("paths:"), "{stdout}");

    // The single-trace default engine still answers within its scope.
    let out = bin()
        .args(["check", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "trace-pinned scope => exit 0");
}

#[test]
fn check_paths_engine_truncated_budget_is_unknown_exit_3() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/gatekeeper.mcapi");
    let out = bin()
        .args([
            "check",
            corpus.to_str().unwrap(),
            "--engine",
            "symbolic-paths",
            "--max-paths",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "truncated => exit 3, never 0");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("UNKNOWN"), "{stdout}");
    assert!(stdout.contains("truncated"), "{stdout}");
}

#[test]
fn check_paths_engine_safe_program_exits_0() {
    let corpus =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/infeasible-arm.mcapi");
    let out = bin()
        .args([
            "check",
            corpus.to_str().unwrap(),
            "--engine",
            "symbolic-paths",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "safe => exit 0");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("paths: 2 explored"), "{stdout}");
}

#[test]
fn list_programs_marks_branch_sensitive_families() {
    let out = bin().args(["--list-programs"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let branchy_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("branchy"))
        .expect("branchy family listed");
    assert!(
        branchy_line.contains("[branch-sensitive]"),
        "{branchy_line}"
    );
    let race_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("race "))
        .or_else(|| stdout.lines().find(|l| l.trim_start().starts_with("race")))
        .expect("race family listed");
    assert!(!race_line.contains("[branch-sensitive]"), "{race_line}");
    // The loop families are derived from the live grid like everything
    // else; credit-window branches inside its loop, the handshake doesn't.
    let credit_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("credit-window"))
        .expect("credit-window family listed");
    assert!(credit_line.contains("credit-window2x1"), "{credit_line}");
    assert!(credit_line.contains("[branch-sensitive]"), "{credit_line}");
    let hs_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("iterated-handshake"))
        .expect("iterated-handshake family listed");
    assert!(!hs_line.contains("[branch-sensitive]"), "{hs_line}");
}

#[test]
fn portfolio_rejects_unknown_family() {
    let out = bin()
        .args(["portfolio", "--families", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn portfolio_flag_typos_are_usage_errors_not_silent_fallbacks() {
    // A garbage numeric value must not silently mean "unbounded" or
    // "default", a delivery typo must not silently narrow the grid to
    // unordered, and `--json` without a path must not silently print the
    // table. Each is exit 2 with the command's usage line.
    for args in [
        &["sweep", "--budget-ms", "10s", "--families", "fig1"][..],
        &["sweep", "--scale", "3x"],
        &["sweep", "--families", "fig1", "--delivery", "bogus"],
        &["sweep", "--families", "fig1", "--json"],
        &["check", "corpus/fig1.mcapi", "--budget-ms", "--precise"],
        &["check", "corpus/fig1.mcapi", "--engine", "bogus"],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("usage: mcapi-smc {}", args[0])),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn zero_threads_and_zero_scale_are_usage_errors() {
    // `0` is rejected, not quietly run as 1 thread or scale 1.
    for args in [
        &[
            "portfolio",
            "--threads",
            "0",
            "--families",
            "fig1",
            "--scale",
            "1",
        ][..],
        &[
            "sweep",
            "--threads",
            "0",
            "--families",
            "fig1",
            "--scale",
            "1",
        ],
        &["portfolio", "--scale", "0", "--families", "fig1"],
        &["sweep", "--scale", "0", "--families", "fig1"],
        &["export", "fig1", "--scale", "0"],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("usage: mcapi-smc {}", args[0])),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn duplicate_families_are_deduplicated() {
    let once = bin()
        .args(["sweep", "--scale", "1", "--families", "fig1", "--json", "-"])
        .output()
        .unwrap();
    let twice = bin()
        .args([
            "sweep",
            "--scale",
            "1",
            "--families",
            "fig1,fig1",
            "--json",
            "-",
        ])
        .output()
        .unwrap();
    let parse = |o: &std::process::Output| -> driver::PortfolioReport {
        serde_json::from_str(&String::from_utf8_lossy(&o.stdout)).unwrap()
    };
    assert_eq!(parse(&once).outcomes.len(), parse(&twice).outcomes.len());
}

#[test]
fn flag_like_tokens_are_not_consumed_as_values() {
    // `--json --budget-ms 100` must be a usage error, not "write a file
    // named --budget-ms AND apply a 100ms budget".
    let out = bin()
        .args([
            "sweep",
            "--families",
            "fig1",
            "--json",
            "--budget-ms",
            "100",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(!std::path::Path::new("--budget-ms").exists());
}

#[test]
fn behaviours_limit_at_exact_count_is_not_truncated() {
    let path = write_temp("fig1-lim.json", &demo_json("fig1"));
    // fig1 admits exactly 2 pairings: --limit 2 completes, --limit 1 truncates.
    let out = bin()
        .args(["behaviours", path.to_str().unwrap(), "--limit", "2"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("2 behaviours"), "{stdout}");
    assert!(!stdout.contains("truncated"), "{stdout}");
    let out = bin()
        .args(["behaviours", path.to_str().unwrap(), "--limit", "1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("truncated"), "{stdout}");
}

/// A throwaway corpus directory populated with `files` (name, contents).
fn write_corpus(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("mcapi-smc-cli-tests")
        .join(format!("corpus-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, contents) in files {
        std::fs::write(dir.join(name), contents).unwrap();
    }
    dir
}

const SAFE_SRC: &str = "// expect: safe\n\
    program p {\n  thread t0 { var v; v = recv(0); }\n  thread t1 { send(t0:0, 1); }\n}\n";

const VIOLATION_SRC: &str = "// expect: violation\n\
    program p {\n  thread t0 { var v; v = recv(0); assert(v == 1, \"one\"); }\n\
    \x20 thread t1 { send(t0:0, 1); }\n  thread t2 { send(t0:0, 2); }\n}\n";

#[test]
fn corpus_check_passes_when_headers_match() {
    let dir = write_corpus(
        "ok",
        &[("a-safe.mcapi", SAFE_SRC), ("b-viol.mcapi", VIOLATION_SRC)],
    );
    let out = bin()
        .args(["corpus-check", dir.to_str().unwrap(), "--min", "2"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("2 corpus files"), "{stdout}");
    assert!(stdout.contains("a-safe.mcapi: safe (ok)"), "{stdout}");
    assert!(stdout.contains("b-viol.mcapi: violation (ok)"), "{stdout}");
}

#[test]
fn corpus_check_fails_on_wrong_header() {
    // The safe program mislabelled as a violation: exit 1, named file.
    let wrong = SAFE_SRC.replace("expect: safe", "expect: violation");
    let dir = write_corpus("wrong", &[("w.mcapi", &wrong)]);
    let out = bin()
        .args(["corpus-check", dir.to_str().unwrap(), "--min", "1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("w.mcapi: expected violation (exit 1), got exit 0"),
        "{stdout}"
    );
}

#[test]
fn corpus_check_fails_on_missing_header_and_floor() {
    let headerless =
        "program p {\n  thread t0 { var v; v = recv(0); }\n  thread t1 { send(t0:0, 1); }\n}\n";
    let dir = write_corpus("floor", &[("nohdr.mcapi", headerless)]);
    let out = bin()
        .args(["corpus-check", dir.to_str().unwrap(), "--min", "5"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(
        stdout.contains("missing or invalid // expect: header"),
        "{stdout}"
    );
    assert!(stderr.contains("corpus floor violated"), "{stderr}");
}

#[test]
fn corpus_check_usage_errors_exit_2() {
    let out = bin().args(["corpus-check"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["corpus-check", "/nonexistent-dir-for-sure"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sweep_writes_metrics_and_events_files() {
    let dir = std::env::temp_dir().join("mcapi-smc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join(format!("m-{}.prom", std::process::id()));
    let events = dir.join(format!("e-{}.jsonl", std::process::id()));
    let out = bin()
        .args([
            "sweep",
            "--scale",
            "1",
            "--families",
            "fig1",
            "--delivery",
            "unordered",
            "--threads",
            "1",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        prom.contains("# TYPE mcapi_portfolio_scenarios_total counter"),
        "{prom}"
    );
    assert!(prom.contains("mcapi_smt_solves_total"), "{prom}");
    assert!(
        prom.contains("mcapi_scenario_wall_seconds_bucket"),
        "{prom}"
    );

    let jsonl = std::fs::read_to_string(&events).unwrap();
    for line in jsonl.lines() {
        let ev: driver::ScenarioEvent = serde_json::from_str(line).unwrap();
        assert_eq!(ev.schema_version, 1, "{line}");
    }
    assert!(
        jsonl.lines().count() >= 4,
        "one event per scenario:\n{jsonl}"
    );
}

#[test]
fn check_writes_metrics_events_and_trace() {
    let path = write_temp("check-obs.json", &demo_json("fig1"));
    let dir = std::env::temp_dir().join("mcapi-smc-cli-tests");
    let metrics = dir.join("check-metrics.prom");
    let events = dir.join("check-events.jsonl");
    let trace_out = dir.join("check-trace.json");
    let out = bin()
        .args([
            "check",
            path.to_str().unwrap(),
            "--engine",
            "symbolic-paths",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
            "--trace-out",
            trace_out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // The single scenario goes through the portfolio plumbing, so the
    // exposition carries the same families a grid run would.
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(prom.contains("mcapi_portfolio_scenarios_total"), "{prom}");
    assert!(prom.contains("mcapi_smt_solves_total"), "{prom}");
    // fig1 solves without a single conflict, so the solver-introspection
    // histograms must be *absent*: an unsampled distribution renders no
    // series (all-zero is reserved for "sampled, nothing observed").
    assert!(!prom.contains("mcapi_smt_lbd_bucket"), "{prom}");
    assert!(prom.contains(r#"engine="symbolic-paths""#), "{prom}");

    let jsonl = std::fs::read_to_string(&events).unwrap();
    assert_eq!(jsonl.lines().count(), 1, "{jsonl}");
    let ev: driver::ScenarioEvent = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
    assert_eq!(ev.engine, "symbolic-paths");

    let trace_doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_out).unwrap()).unwrap();
    let obj = trace_doc.as_object().unwrap();
    assert!(obj.iter().any(|(k, _)| k == "traceEvents"));
}

#[test]
fn portfolio_trace_out_covers_scenarios_and_solver_queries() {
    let dir = std::env::temp_dir().join("mcapi-smc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_out = dir.join("portfolio-trace.json");
    // `race` has no assertions, so the static triage pre-pass would
    // settle the whole grid engine-free; opt out to keep the solver hot.
    let out = bin()
        .args([
            "portfolio",
            "--scale",
            "1",
            "--families",
            "race",
            "--threads",
            "2",
            "--no-static-triage",
            "--json",
            "-",
            "--trace-out",
            trace_out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let get = |v: &serde_json::Value, k: &str| -> serde_json::Value {
        v.as_object()
            .and_then(|o| o.iter().find(|(n, _)| n == k))
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing {k}"))
    };
    let outcomes = get(&report, "outcomes");
    let outcomes = outcomes.as_array().unwrap();
    let total_sat_checks = outcomes
        .iter()
        .map(|o| match get(o, "sat_checks") {
            serde_json::Value::Int(i) => i,
            other => panic!("sat_checks not an int: {other:?}"),
        })
        .sum::<i64>();

    let trace_doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_out).unwrap()).unwrap();
    let events = get(&trace_doc, "traceEvents");
    let spans: Vec<String> = events
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| matches!(get(e, "ph"), serde_json::Value::Str(s) if s == "X"))
        .map(|e| match get(e, "name") {
            serde_json::Value::Str(s) => s,
            other => panic!("span name not a string: {other:?}"),
        })
        .collect();
    // One span per scenario, carrying the scenario's name.
    for o in outcomes {
        let name = match get(o, "scenario") {
            serde_json::Value::Str(s) => s,
            other => panic!("scenario not a string: {other:?}"),
        };
        assert!(spans.contains(&name), "no span for {name}");
    }
    // One span per solver query.
    let solves = spans.iter().filter(|s| *s == "smt.solve").count() as i64;
    assert!(total_sat_checks > 0, "grid exercises the solver");
    assert!(
        solves >= total_sat_checks,
        "{solves} smt.solve spans < {total_sat_checks} sat checks"
    );
}

#[test]
fn corpus_check_reports_wall_clock_and_slowest() {
    let dir = write_corpus(
        "slowest",
        &[("a-safe.mcapi", SAFE_SRC), ("b-viol.mcapi", VIOLATION_SRC)],
    );
    let out = bin()
        .args([
            "corpus-check",
            dir.to_str().unwrap(),
            "--min",
            "2",
            "--slowest",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("a-safe.mcapi: safe (ok) ["), "{stdout}");
    assert!(stdout.contains(" ms]"), "{stdout}");
    assert!(stdout.contains("slowest 1 of 2:"), "{stdout}");
}

const UNUSED_VAR_SRC: &str = "program p {\n  thread t0 { var v; var x; v = recv(0); }\n\
    \x20 thread t1 { send(t0:0, 1); }\n}\n";

#[test]
fn lint_clean_file_exits_0() {
    let path = write_temp("lint-clean.mcapi", SAFE_SRC);
    let out = bin()
        .args(["lint", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("1 file(s): 0 error(s), 0 warning(s)"),
        "{stdout}"
    );
}

#[test]
fn lint_errors_exit_1_with_caret_diagnostics() {
    // An orphan receive is an error-class finding: exit 1, and the
    // diagnostic carries the frontend's caret rendering, not a bare line.
    let src = "program p {\n  thread t0 { var v; v = recv(0); }\n}\n";
    let path = write_temp("lint-orphan.mcapi", src);
    let out = bin()
        .args(["lint", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("can never be matched"), "{stdout}");
    assert!(stdout.contains("^"), "caret rendering expected: {stdout}");
}

#[test]
fn lint_warnings_gate_on_deny_warnings() {
    // `x` is never used: a warning. Warnings alone pass by default and
    // fail only under --deny warnings.
    let path = write_temp("lint-unused.mcapi", UNUSED_VAR_SRC);
    let out = bin()
        .args(["lint", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("warning"), "{stdout}");
    assert!(stdout.contains("is never used"), "{stdout}");

    let out = bin()
        .args(["lint", path.to_str().unwrap(), "--deny", "warnings"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "--deny warnings promotes");
}

#[test]
fn lint_expect_headers_declare_findings_and_stale_headers_fail() {
    // A declared finding is expected, not fatal: the corpus file with an
    // orphan receive passes even under --deny warnings.
    let corpus =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/orphan-receive.mcapi");
    let out = bin()
        .args(["lint", corpus.to_str().unwrap(), "--deny", "warnings"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("2 expected finding(s)"), "{stdout}");

    // A stale header (matching nothing) must fail so declarations can't rot.
    let stale = format!("// expect-lint: no such finding\n{SAFE_SRC}");
    let path = write_temp("lint-stale.mcapi", &stale);
    let out = bin()
        .args(["lint", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("was not produced"), "{stdout}");
}

#[test]
fn lint_compile_failure_is_a_finding_not_a_usage_error() {
    let path = write_temp("lint-broken.mcapi", "program p { thread t0 {");
    let out = bin()
        .args(["lint", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "unparseable file => exit 1");
}

#[test]
fn lint_usage_errors_exit_2() {
    let out = bin().args(["lint"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing target");
    let path = write_temp("lint-usage.mcapi", SAFE_SRC);
    let out = bin()
        .args(["lint", path.to_str().unwrap(), "--deny", "everything"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "bad --deny value");
    let out = bin()
        .args(["lint", path.to_str().unwrap(), "--unroll", "lots"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "bad --unroll value");
    let empty = write_corpus("lint-empty", &[]);
    let out = bin()
        .args(["lint", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "dir without .mcapi files");
}

#[test]
fn check_no_static_triage_flag_is_accepted_and_agrees() {
    // The escape hatch must not change the verdict, only the route.
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/const-assert.mcapi");
    let with = bin()
        .args(["check", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    let without = bin()
        .args(["check", corpus.to_str().unwrap(), "--no-static-triage"])
        .output()
        .unwrap();
    assert_eq!(with.status.code(), Some(1), "statically decided violation");
    assert_eq!(without.status.code(), Some(1), "engine agrees");
}

#[test]
fn unknown_flags_are_usage_errors_not_ignored() {
    // A typo must not silently run the default engine.
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/fig1-assert.mcapi");
    let out = bin()
        .args(["check", corpus.to_str().unwrap(), "--enigne", "explicit"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "typo'd --engine");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--enigne"), "{stderr}");
    assert!(stderr.contains("usage: mcapi-smc check"), "{stderr}");
    // A flag another subcommand accepts is still unknown here.
    let out = bin()
        .args(["sweep", "--families", "fig1", "--limit", "3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "--limit is not a sweep flag");
}

#[test]
fn malformed_numeric_values_are_usage_errors() {
    let path = write_temp("fig1-bad-values.json", &demo_json("fig1"));
    let out = bin()
        .args(["behaviours", path.to_str().unwrap(), "--limit", "abc"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "bad --limit");
    let out = bin()
        .args(["run", path.to_str().unwrap(), "--seed", "x"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "bad --seed");
}

#[test]
fn help_prints_usage_and_exits_0() {
    for args in [vec!["--help"], vec!["-h"]] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("mcapi-smc check <program>"), "{stdout}");
        assert!(stdout.contains("mcapi-smc sweep"), "{stdout}");
    }
    let out = bin().args(["check", "--help"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("[--engine "), "{stdout}");
}
