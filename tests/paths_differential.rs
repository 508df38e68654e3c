//! The soundness regression net for the path-exploration layer: on
//! random branchy programs, the branch-complete symbolic engine
//! (`symbolic::paths`) must return exactly the explicit BFS ground-truth
//! verdict. The single-trace engine is allowed to under-report on these
//! programs (that is the trace-pinning scope the paths layer closes);
//! `symbolic-paths` is not.

use explicit::{ExploreConfig, GraphExplorer};
use mcapi::builder::ProgramBuilder;
use mcapi::expr::{Cond, Expr};
use mcapi::program::{Op, Program};
use mcapi::types::{CmpOp, DeliveryModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use symbolic::checker::Verdict;
use symbolic::paths::{check_program_paths, PathsConfig};
use workloads::{branchy, credit_window, iterated_handshake, RandomProgramConfig};
use workloads::{random_loop_program, random_program};

/// A random branchy program: two producers race `rounds` payloads into a
/// consumer that branches on each received value and asserts a random
/// bound inside each arm — so whether a violation is reachable depends on
/// which payloads can race into which receive, exactly the question the
/// path engine must answer like the ground truth does.
fn random_branchy(seed: u64, rounds: usize, nested: bool) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(format!("rand-branchy-{seed}"));
    let c = b.thread("consumer");
    let p1 = b.thread("p1");
    let p2 = b.thread("p2");
    for _ in 0..rounds {
        let v = b.recv(c, 0);
        let split = rng.gen_range(10..90);
        let hi_bound = rng.gen_range(40..120);
        let lo_bound = rng.gen_range(0..60);
        let then_ops = if nested && rng.gen_range(0..2) == 0 {
            let inner_split = rng.gen_range(10..110);
            vec![Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(inner_split)),
                then_ops: vec![Op::Assert {
                    cond: Cond::cmp(CmpOp::Le, Expr::Var(v), Expr::Const(hi_bound)),
                    message: format!("hi<= {hi_bound}"),
                }],
                else_ops: vec![Op::Assert {
                    cond: Cond::cmp(CmpOp::Lt, Expr::Var(v), Expr::Const(hi_bound)),
                    message: format!("mid< {hi_bound}"),
                }],
            }]
        } else {
            vec![Op::Assert {
                cond: Cond::cmp(CmpOp::Le, Expr::Var(v), Expr::Const(hi_bound)),
                message: format!("hi<= {hi_bound}"),
            }]
        };
        b.push_op(
            c,
            Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(split)),
                then_ops,
                else_ops: vec![Op::Assert {
                    cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(lo_bound)),
                    message: format!("lo>= {lo_bound}"),
                }],
            },
        );
    }
    for _ in 0..rounds {
        b.send_const(p1, c, 0, rng.gen_range(0..100));
        b.send_const(p2, c, 0, rng.gen_range(0..100));
    }
    // Drain the second producer's payloads so executions complete.
    for _ in 0..rounds {
        b.recv(c, 0);
    }
    b.build().expect("random branchy program is well-formed")
}

/// The differential under test: paths verdict == explicit BFS verdict.
/// With generous budgets the paths engine must never answer Unknown here.
fn assert_paths_matches_explicit(program: &Program, model: DeliveryModel) {
    let truth = GraphExplorer::new(program, ExploreConfig::with_model(model)).explore();
    assert!(!truth.truncated, "{}: ground truth truncated", program.name);
    let cfg = PathsConfig {
        check: symbolic::checker::CheckConfig {
            delivery: model,
            ..Default::default()
        },
        max_paths: 4096,
        ..PathsConfig::default()
    };
    let report = check_program_paths(program, &cfg);
    match (&report.verdict, truth.found_violation()) {
        (Verdict::Violation(_), true) | (Verdict::Safe, false) => {}
        (verdict, explicit) => panic!(
            "{} [{model}]: paths engine said {verdict:?}, explicit violation = {explicit} \
             ({} paths explored)",
            program.name, report.paths_explored
        ),
    }
}

/// The canonicalization differential: Mazurkiewicz normal-form pruning
/// must be invisible at the trace-class level. With pruning on, each
/// feasible path's directed search yields the canonical linearisation;
/// with it off, the first DFS descent — possibly a different
/// interleaving of the same class. The per-thread communication
/// skeleton ([`mcapi::trace::Trace::comm_signature`]) erases the
/// interleaving, so both enumerations must produce (a) the same verdict
/// and (b) the same set of distinct skeletons over *completed* traces —
/// i.e. pruning changes no path's feasibility. (Deadlock and violation
/// prefixes are excluded: "deepest deadlock" tie-breaking legitimately
/// depends on DFS arrival order.)
fn assert_canonical_matches_full_enumeration(program: &Program, model: DeliveryModel) {
    use std::collections::HashSet;
    use symbolic::checker::TraceSource;
    use symbolic::paths::PathEnumerator;
    let n = program.threads.len();
    let mut results = Vec::new();
    for canonical in [true, false] {
        let cfg = PathsConfig {
            check: symbolic::checker::CheckConfig {
                delivery: model,
                ..Default::default()
            },
            max_paths: 4096,
            canonical,
            ..PathsConfig::default()
        };
        let mut skeletons = HashSet::new();
        let mut e = PathEnumerator::new(program, &cfg).expect("enumerator builds");
        while let Some(st) = e.next_trace() {
            if st.trace.is_complete() {
                skeletons.insert(st.trace.comm_signature(n));
            }
        }
        let verdict = match check_program_paths(program, &cfg).verdict {
            Verdict::Safe => "safe",
            Verdict::Violation(_) => "violation",
            Verdict::Unknown(_) => "unknown",
        };
        results.push((verdict, skeletons));
    }
    let (canonical, full) = (&results[0], &results[1]);
    assert_eq!(
        canonical.0, full.0,
        "{} [{model}]: canonical verdict != full-sweep verdict",
        program.name
    );
    assert_eq!(
        canonical.1, full.1,
        "{} [{model}]: canonical and full enumeration realised different \
         sets of communication skeletons",
        program.name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random branchy programs under the paper's unordered network.
    #[test]
    fn random_branchy_verdicts_match_explicit(
        seed in 0u64..10_000,
        rounds in 1usize..3,
        nested in any::<bool>(),
    ) {
        let p = random_branchy(seed, rounds, nested);
        assert_paths_matches_explicit(&p, DeliveryModel::Unordered);
    }

    /// The same differential under the restrictive delivery models: path
    /// feasibility depends on the delivery discipline (the directed
    /// scheduler searches under the scenario's model), so agreement must
    /// hold per model, not just for the unordered network.
    #[test]
    fn random_branchy_verdicts_match_explicit_under_fifo_and_zero(
        seed in 0u64..5_000,
        nested in any::<bool>(),
    ) {
        let p = random_branchy(seed, 1, nested);
        assert_paths_matches_explicit(&p, DeliveryModel::PairwiseFifo);
        assert_paths_matches_explicit(&p, DeliveryModel::ZeroDelay);
    }

    /// Canonical-representative enumeration is a pure perf layer: on
    /// random branchy programs it must agree with the full interleaving
    /// sweep on verdict and realised trace classes under all three
    /// delivery models.
    #[test]
    fn canonical_enumeration_matches_full_sweep(
        seed in 0u64..5_000,
        nested in any::<bool>(),
    ) {
        let p = random_branchy(seed, 1, nested);
        for model in DeliveryModel::ALL {
            assert_canonical_matches_full_enumeration(&p, model);
        }
    }

    /// The same canonicalization differential over randomized `repeat`
    /// programs, whose unrolled bodies give the normal-form test longer
    /// same-class linearisations to collapse.
    #[test]
    fn canonical_enumeration_matches_full_sweep_on_loops(
        seed in 0u64..3_000,
        rounds in 1usize..3,
    ) {
        let p = random_loop_program(seed, rounds);
        for model in DeliveryModel::ALL {
            assert_canonical_matches_full_enumeration(&p, model);
        }
    }

    /// The random (branch-free) fuzzing family rides along: one path,
    /// same differential.
    #[test]
    fn random_programs_verdicts_match_explicit(
        seed in 0u64..2_000,
        with_assert in any::<bool>(),
    ) {
        let cfg = RandomProgramConfig { with_assert, ..RandomProgramConfig::default() };
        let p = random_program(seed, &cfg);
        assert_paths_matches_explicit(&p, DeliveryModel::Unordered);
    }

    /// Randomized *loop* programs (ISSUE 5 acceptance): `repeat` bodies
    /// with a branch per unrolled iteration and accumulator-driven
    /// payloads — the paths verdict must equal explicit BFS under all
    /// three delivery models.
    #[test]
    fn random_loop_verdicts_match_explicit_under_all_models(
        seed in 0u64..3_000,
        rounds in 1usize..3,
    ) {
        let p = random_loop_program(seed, rounds);
        for model in DeliveryModel::ALL {
            assert_paths_matches_explicit(&p, model);
        }
    }

    /// Boundary-valued constants (the |c| <= 2^40 domain edge) flow
    /// through the whole pipeline without changing any verdict relative
    /// to the ground truth — and, in debug builds, without the arithmetic
    /// panics the unchecked `+` used to cause.
    #[test]
    fn boundary_constant_programs_match_explicit(seed in 0u64..1_000) {
        let cfg = RandomProgramConfig {
            with_assert: true,
            extreme_const_percent: 60,
            ..RandomProgramConfig::default()
        };
        let p = random_program(seed, &cfg);
        assert_paths_matches_explicit(&p, DeliveryModel::Unordered);
    }
}

/// The hand-written branchy family (always safe, four+ paths) agrees with
/// the ground truth at every size.
#[test]
fn branchy_family_is_safe_under_the_path_engine() {
    for rounds in 1..=3 {
        let p = branchy(rounds);
        assert_paths_matches_explicit(&p, DeliveryModel::Unordered);
    }
}

/// The loop workload families (branch-in-loop credit windows, iterated
/// handshakes) agree with the ground truth under every delivery model.
#[test]
fn loop_families_agree_with_the_ground_truth() {
    for model in DeliveryModel::ALL {
        for rounds in 1..=2 {
            assert_paths_matches_explicit(&credit_window(2, rounds), model);
            assert_paths_matches_explicit(&iterated_handshake(rounds + 1), model);
        }
    }
}
