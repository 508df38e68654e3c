//! Golden corpus tests: every `corpus/*.mcapi` file must parse, and the
//! checker must reproduce the verdict recorded in its `// expect:`
//! header (under the file's `// delivery:` header, if any — the same
//! resolution `mcapi-smc check` applies).
//!
//! Headers record the *whole-program* verdict, so they are checked with
//! the branch-complete path engine (`symbolic::paths`): since PR 4 the
//! symbolic side no longer scopes its answer to one trace's branch
//! outcomes, and the old symbolic-SAFE / explicit-VIOLATION differential
//! on `gatekeeper.mcapi` is now asserted the other way around — the path
//! engine must agree with the explicit ground truth.

use frontend::{directives, parse_program, Expect};
use mcapi::types::DeliveryModel;
use symbolic::checker::{CheckConfig, Verdict};
use symbolic::paths::{check_program_paths, PathsConfig};

fn corpus_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn corpus_files() -> Vec<std::path::PathBuf> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mcapi"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_populated() {
    assert!(
        corpus_files().len() >= 24,
        "corpus/ must hold at least 24 .mcapi files, found {}",
        corpus_files().len()
    );
    // The loop workload class and the static-analysis showcases are
    // represented.
    for name in [
        "iterated-handshake",
        "second-lap",
        "loop-storm",
        "orphan-receive",
        "cross-block",
        "const-assert",
    ] {
        assert!(
            corpus_files()
                .iter()
                .any(|p| p.file_stem().is_some_and(|s| s == name)),
            "corpus/{name}.mcapi is missing"
        );
    }
}

#[test]
fn every_corpus_file_parses_and_declares_an_expectation() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let program = parse_program(&text)
            .unwrap_or_else(|e| panic!("{} failed to parse:\n{e}", path.display()));
        assert!(
            !program.threads.is_empty(),
            "{} lowered to an empty program",
            path.display()
        );
        assert!(
            directives(&text).unwrap().expect.is_some(),
            "{} is missing its `// expect:` header",
            path.display()
        );
    }
}

#[test]
fn corpus_verdicts_match_their_expect_headers() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let program = parse_program(&text).unwrap();
        let d = directives(&text).unwrap();
        let cfg = PathsConfig {
            check: CheckConfig {
                delivery: d.delivery.unwrap_or(DeliveryModel::Unordered),
                ..CheckConfig::default()
            },
            ..PathsConfig::default()
        };
        let got = match check_program_paths(&program, &cfg).verdict {
            Verdict::Safe => Expect::Safe,
            Verdict::Violation(_) => Expect::Violation,
            Verdict::Unknown(_) => Expect::Unknown,
        };
        assert_eq!(
            Some(got),
            d.expect,
            "{}: checker said {got}, header expects {:?}",
            path.display(),
            d.expect
        );
    }
}

/// `gatekeeper.mcapi` used to document the trace-pinning gap: the
/// violation hides in a branch the first trace does not take, so the
/// single-trace symbolic engine said SAFE while the explicit ground truth
/// found it. The path-exploration layer closes that gap — assert all
/// three facts so the file keeps telling the story accurately.
#[test]
fn gatekeeper_gap_is_closed_by_the_path_engine() {
    use explicit::{ExploreConfig, GraphExplorer};
    use symbolic::checker::check_program;
    let text = std::fs::read_to_string(corpus_dir().join("gatekeeper.mcapi")).unwrap();
    let program = parse_program(&text).unwrap();
    // The single-trace engine still scopes its verdict to one path.
    let single = check_program(&program, &CheckConfig::default()).verdict;
    assert!(matches!(single, Verdict::Safe), "{single:?}");
    // The path engine reports the violation with its branch vector.
    let report = check_program_paths(&program, &PathsConfig::default());
    match &report.verdict {
        Verdict::Violation(cv) => {
            let path = cv.branch_path.as_deref().expect("witness names its path");
            assert!(path.contains("worker:F"), "{path}");
        }
        other => panic!("path engine must find the violation, got {other:?}"),
    }
    // And the explicit ground truth agrees.
    let explicit = GraphExplorer::new(
        &program,
        ExploreConfig::with_model(DeliveryModel::Unordered),
    )
    .explore();
    assert!(explicit.found_violation());
}

/// Each of these files has two plans, and no execution realises one of
/// them (a branch arm no sent value can drive). The directed search must
/// refute that plan on its own: both plans are searched and the verdict
/// stays SAFE.
#[test]
fn unrealisable_plans_are_searched_and_refuted() {
    for name in ["cross-block", "handshake", "infeasible-arm"] {
        let text = std::fs::read_to_string(corpus_dir().join(format!("{name}.mcapi"))).unwrap();
        let program = parse_program(&text).unwrap();
        let report = check_program_paths(&program, &PathsConfig::default());
        assert!(
            matches!(report.verdict, Verdict::Safe),
            "{name}: {:?}",
            report.verdict
        );
        assert_eq!(report.paths_explored, 2, "{name}");
    }
}

/// `second-lap.mcapi`: the assertion only fails on the second `repeat`
/// iteration. Every engine — the trace-pinned symbolic generators, the
/// branch-complete path engine, and the explicit ground truth — must
/// report the violation (the ISSUE-5 acceptance bar for `repeat`).
#[test]
fn second_lap_violation_is_found_by_every_engine() {
    use explicit::{ExploreConfig, GraphExplorer};
    use symbolic::checker::{check_program, MatchGen};
    let text = std::fs::read_to_string(corpus_dir().join("second-lap.mcapi")).unwrap();
    let program = parse_program(&text).unwrap();
    for matchgen in [MatchGen::Precise, MatchGen::OverApprox] {
        let cfg = CheckConfig {
            matchgen,
            ..CheckConfig::default()
        };
        let v = check_program(&program, &cfg).verdict;
        assert!(
            matches!(v, Verdict::Violation(_)),
            "{matchgen:?} said {v:?}"
        );
    }
    let paths = check_program_paths(&program, &PathsConfig::default()).verdict;
    assert!(matches!(paths, Verdict::Violation(_)), "{paths:?}");
    let explicit = GraphExplorer::new(
        &program,
        ExploreConfig::with_model(DeliveryModel::Unordered),
    )
    .explore();
    assert!(explicit.found_violation());
}

/// `loop-storm.mcapi`: a branch inside a 13-deep loop explodes the static
/// path space past the enumeration cap. The path engine must answer
/// UNKNOWN — and a tighter `--max-paths` on a smaller storm must truncate
/// to UNKNOWN too — never silently SAFE.
#[test]
fn loop_storm_degrades_to_unknown_never_safe() {
    let text = std::fs::read_to_string(corpus_dir().join("loop-storm.mcapi")).unwrap();
    let program = parse_program(&text).unwrap();
    let report = check_program_paths(&program, &PathsConfig::default());
    match &report.verdict {
        Verdict::Unknown(why) => assert!(why.contains("path"), "{why}"),
        other => panic!("expected Unknown, got {other:?}"),
    }
    // The --max-paths truncation route: shrink the loop below the
    // enumeration cap but keep it above a small frontier budget.
    let smaller = text.replace("repeat 13", "repeat 4");
    let program = parse_program(&smaller).unwrap();
    let cfg = PathsConfig {
        max_paths: 3, // 2^4 = 16 static paths, frontier stops at 3
        ..PathsConfig::default()
    };
    let report = check_program_paths(&program, &cfg);
    match &report.verdict {
        Verdict::Unknown(why) => assert!(why.contains("truncated"), "{why}"),
        other => panic!("expected truncation Unknown, got {other:?}"),
    }
    // And the earned-SAFE side of the contract: a 2^6 = 64-path storm
    // fits under the default cap, so the engine must push the whole
    // family through the SAT core and come back SAFE — an UNKNOWN here
    // would mean the solver ran out of budget on a storm it is expected
    // to finish.
    let smaller = text.replace("repeat 13", "repeat 6");
    let program = parse_program(&smaller).unwrap();
    let report = check_program_paths(&program, &PathsConfig::default());
    assert!(
        matches!(report.verdict, Verdict::Safe),
        "64-path storm must complete: {:?}",
        report.verdict
    );
}

/// `loop-storm-shrunk.mcapi`: the ceiling the Mazurkiewicz layer lifts.
/// Canonical pruning cannot shrink the *visited-state* count — every
/// reachable state is reached by some canonical prefix — so the axis
/// that separates the two modes is transition *work*: a non-canonical
/// sweep re-derives the same states through redundant interleavings.
/// Under a per-search work budget sitting between the canonical maximum
/// (~3.9k transitions) and the full-sweep maximum (~6.5k), the canonical
/// engine earns SAFE while `--no-canonical` exhausts to UNKNOWN.
#[test]
fn shrunk_storm_resolves_only_under_canonical_pruning() {
    let text = std::fs::read_to_string(corpus_dir().join("loop-storm-shrunk.mcapi")).unwrap();
    let program = parse_program(&text).unwrap();
    let budget = 5_000;
    let cfg = PathsConfig {
        search_max_transitions: budget,
        ..PathsConfig::default()
    };
    let report = check_program_paths(&program, &cfg);
    assert!(
        matches!(report.verdict, Verdict::Safe),
        "canonical search must finish inside the work budget: {:?}",
        report.verdict
    );
    assert!(
        report.canonical_skipped > 0,
        "the normal-form test must actually prune"
    );
    let cfg = PathsConfig {
        search_max_transitions: budget,
        canonical: false,
        ..PathsConfig::default()
    };
    let report = check_program_paths(&program, &cfg);
    match &report.verdict {
        Verdict::Unknown(why) => assert!(why.contains("exhausted"), "{why}"),
        other => panic!("full sweep must blow the same budget, got {other:?}"),
    }
    assert_eq!(report.canonical_skipped, 0, "escape hatch really off");
}

/// `nested-gate.mcapi`: the violation sits two branch levels deep; the
/// path engine names the violating branch vector.
#[test]
fn nested_gate_violation_names_its_path() {
    let text = std::fs::read_to_string(corpus_dir().join("nested-gate.mcapi")).unwrap();
    let program = parse_program(&text).unwrap();
    let report = check_program_paths(&program, &PathsConfig::default());
    match &report.verdict {
        Verdict::Violation(cv) => {
            let path = cv.branch_path.as_deref().expect("path recorded");
            assert!(path.contains("sink:TF"), "{path}");
        }
        other => panic!("expected violation, got {other:?}"),
    }
}

/// Every corpus file must be lint-clean except for findings it declares
/// with `// expect-lint:` headers — and every declared finding must
/// actually fire (a stale header is as much a bug as an undeclared
/// finding). This is the same contract the CI `lint corpus/ --deny
/// warnings` step enforces, asserted in-process so `cargo test` alone
/// catches a drifting corpus.
#[test]
fn corpus_lint_findings_match_their_expect_lint_headers() {
    use frontend::{check_expectations, expect_lints, lint_source};
    use mcapi::program::UnrollConfig;
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let unroll = match directives(&text).unwrap().unroll {
            Some(n) => UnrollConfig::with_max_count(n),
            None => UnrollConfig::default(),
        };
        let report = lint_source(&text, &unroll)
            .unwrap_or_else(|e| panic!("{} failed to compile:\n{e}", path.display()));
        let exp = check_expectations(&report, &expect_lints(&text));
        assert!(
            exp.pass(true),
            "{}: lint expectations violated \
             (missing {:?}, {} unexpected error(s), {} unexpected warning(s));\n{}",
            path.display(),
            exp.missing,
            exp.unexpected_errors,
            exp.unexpected_warnings,
            report
                .findings
                .iter()
                .map(|f| f.message.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
