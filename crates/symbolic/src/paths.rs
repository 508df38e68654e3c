//! Branch-complete symbolic checking: the path-exploration layer.
//!
//! The paper's engine is *trace-based*: `PEvents` pins every branch
//! outcome to the one generated trace, so a violation hiding in an
//! untaken branch is invisible. This module closes that gap the way
//! MPI-SV does for MPI programs — enumerate control-flow paths and hand
//! each one to the per-execution checker:
//!
//! 1. **Enumerate** the static path space
//!    ([`mcapi::sched::program_paths`]): per thread, every branch-outcome
//!    sequence its loop-free code admits; a program path is one
//!    combination ([`BranchPlan`]).
//! 2. **Replay** each plan under the directed scheduler
//!    ([`mcapi::sched::execute_directed`]): an exhaustive DFS over
//!    schedules that forces each `Branch` to the prescribed outcome,
//!    yielding one concrete trace per feasible path. It is the engine's
//!    one infeasibility oracle: a plan no execution realises (a branch
//!    arm no sent value can drive, say) ends in a definitive
//!    infeasibility report, and the plan still counts as explored.
//! 3. **Check** each trace through the session-based checker. Sibling
//!    paths of one program share the encoded communication core through
//!    [`SessionPool::session_for_path`]; only branch pins, local chains
//!    and assertion terms are per-path groups.
//!
//! The aggregate is a single [`CheckReport`]: `Violation` as soon as any
//! path violates (with the branch vector in
//! [`crate::checker::ConfirmedViolation::branch_path`]), `Safe` only when
//! every path was covered, and `Unknown` whenever the frontier was
//! truncated (`max_paths`), a search budget ran out, or the shared
//! wall-clock deadline expired — never a silent `Safe`.

use crate::checker::{check_source, CheckConfig, CheckReport, SourcedTrace, TraceSource, Verdict};
use crate::session::SessionPool;
use mcapi::program::Program;
use mcapi::sched::{
    execute_directed_with_stats, program_paths, BranchPlan, DirectedConfig, DirectedOutcome,
};
use mcapi::trace::Trace;
use std::collections::HashSet;
use std::time::Instant;

/// Configuration of one path-complete check.
#[derive(Clone, Copy, Debug)]
pub struct PathsConfig {
    /// The per-path checker configuration (delivery model, match
    /// generator, budget). `budget_ms` spans the *whole* path exploration:
    /// one deadline is computed up front and threaded through every
    /// per-path query via [`CheckConfig::deadline`].
    pub check: CheckConfig,
    /// Maximum number of paths to explore. When the static path space is
    /// larger, the verdict degrades to [`Verdict::Unknown`] (never a
    /// silent `Safe`) unless a violation was found first.
    pub max_paths: usize,
    /// Transition (work) cap for each directed schedule search;
    /// `u64::MAX` = unbounded. See [`DirectedConfig::max_transitions`].
    pub search_max_transitions: u64,
    /// Explore only the canonical (lexicographically least) representative
    /// of each Mazurkiewicz trace class inside the directed searches (the
    /// default). Disable (`--no-canonical`) to sweep every interleaving —
    /// the baseline the CI perf gate compares against.
    pub canonical: bool,
}

impl Default for PathsConfig {
    fn default() -> Self {
        PathsConfig {
            check: CheckConfig::default(),
            max_paths: 256,
            search_max_transitions: u64::MAX,
            canonical: true,
        }
    }
}

/// What one explored path contributed.
enum PathStep {
    /// The directed search ran to completion and proved no execution
    /// realises the plan.
    Infeasible,
    /// A concrete violating execution — terminal for the whole check.
    ConcreteViolation(Trace),
    /// A realised trace for the symbolic checker (deduplicated).
    Trace(Trace),
    /// Already analysed via an identical trace (deadlocking prefixes can
    /// be shared by several plans).
    Duplicate,
    /// Search budget exhausted: this path is unresolved.
    Unresolved(String),
}

/// The path frontier: enumerates [`BranchPlan`]s in a deterministic
/// mixed-radix order, replays each, and yields one trace per feasible
/// path. Implements [`TraceSource`], so [`check_program_paths`] is
/// [`crate::checker::check_source`] over this source.
pub struct PathEnumerator<'a> {
    program: &'a Program,
    cfg: PathsConfig,
    deadline: Option<Instant>,
    /// Per-thread static outcome vectors.
    space: Vec<Vec<Vec<bool>>>,
    /// Next path index (mixed-radix over `space`).
    next: usize,
    /// Total static paths (saturating).
    total: usize,
    seen_traces: HashSet<Vec<mcapi::trace::Event>>,
    explored: usize,
    /// Some part of the path space was not covered (frontier budget, time
    /// budget, or an unresolved directed search).
    truncated: bool,
    /// Hard stop: no further paths will be yielded.
    stopped: bool,
    stop_reason: Option<String>,
    /// µs spent enumerating the static path space.
    enumerate_us: u64,
    /// µs spent in directed-scheduler searches realising paths.
    schedule_us: u64,
    /// Transitions applied across all directed searches.
    directed_transitions: u64,
    /// Schedule extensions the canonical prune rejected.
    canonical_skipped: u64,
}

impl<'a> PathEnumerator<'a> {
    /// Build the frontier for `program`. Fails (with the reason) when the
    /// static path space cannot be enumerated — cyclic flat code or a
    /// per-thread explosion — in which case callers must answer `Unknown`.
    pub fn new(program: &'a Program, cfg: &PathsConfig) -> Result<PathEnumerator<'a>, String> {
        let _span = trace::span("paths.enumerate_setup");
        let setup = Instant::now();
        let space = program_paths(program, 4096).map_err(|e| e.to_string())?;
        let total = space
            .iter()
            .map(Vec::len)
            .try_fold(1usize, |a, b| a.checked_mul(b))
            .unwrap_or(usize::MAX);
        let deadline = cfg.check.resolve_deadline();
        Ok(PathEnumerator {
            program,
            cfg: *cfg,
            deadline,
            space,
            next: 0,
            total,
            seen_traces: HashSet::new(),
            explored: 0,
            truncated: false,
            stopped: false,
            stop_reason: None,
            enumerate_us: setup.elapsed().as_micros() as u64,
            schedule_us: 0,
            directed_transitions: 0,
            canonical_skipped: 0,
        })
    }

    /// The plan at path index `i`: its mixed-radix digits pick one
    /// thread path from `space[t]` per thread.
    fn plan_at(&self, mut i: usize) -> BranchPlan {
        BranchPlan {
            outcomes: (self.space.iter())
                .map(|per_thread| {
                    let k = i % per_thread.len();
                    i /= per_thread.len();
                    per_thread[k].clone()
                })
                .collect(),
        }
    }

    /// Advance one path; `None` when the frontier is exhausted or stopped.
    fn step(&mut self) -> Option<PathStep> {
        if self.stopped || self.next >= self.total {
            return None;
        }
        if self.next >= self.cfg.max_paths {
            self.truncated = true;
            self.stopped = true;
            self.stop_reason = Some(format!(
                "path frontier truncated at {} of {} static paths (--max-paths)",
                self.next, self.total
            ));
            return None;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.truncated = true;
            self.stopped = true;
            self.stop_reason = Some("time budget exhausted during path exploration".into());
            return None;
        }
        let plan = self.plan_at(self.next);
        self.next += 1;
        // The visited-state cap is the directed search's default.
        let dcfg = DirectedConfig {
            max_transitions: self.cfg.search_max_transitions,
            deadline: self.deadline,
            canonical: self.cfg.canonical,
            ..DirectedConfig::default()
        };
        let search_start = Instant::now();
        let (directed, search_stats) = {
            let mut span = trace::span("paths.directed_search");
            let (out, stats) =
                execute_directed_with_stats(self.program, self.cfg.check.delivery, &plan, dcfg);
            span.arg("transitions", stats.transitions)
                .arg("canonical_skipped", stats.canonical_skipped);
            (out, stats)
        };
        self.schedule_us += search_start.elapsed().as_micros() as u64;
        self.directed_transitions += search_stats.transitions;
        self.canonical_skipped += search_stats.canonical_skipped;
        let step = match directed {
            DirectedOutcome::Infeasible { .. } => {
                // The exhaustive search proved the plan empty: that is
                // exploration work, so the plan counts as explored.
                self.explored += 1;
                PathStep::Infeasible
            }
            DirectedOutcome::Violating(out) => {
                self.explored += 1;
                self.stopped = true; // terminal: the check ends here
                PathStep::ConcreteViolation(out.trace)
            }
            DirectedOutcome::Realized(out) | DirectedOutcome::Deadlocked(out) => {
                self.explored += 1;
                if self.seen_traces.insert(out.trace.events.clone()) {
                    PathStep::Trace(out.trace)
                } else {
                    PathStep::Duplicate
                }
            }
            DirectedOutcome::Exhausted { states } => {
                self.explored += 1;
                PathStep::Unresolved(format!(
                    "directed search budget exhausted after {states} states on path {}",
                    plan.render(self.program)
                ))
            }
        };
        Some(step)
    }
}

impl TraceSource for PathEnumerator<'_> {
    fn next_trace(&mut self) -> Option<SourcedTrace> {
        loop {
            match self.step()? {
                PathStep::Infeasible | PathStep::Duplicate => continue,
                PathStep::Trace(trace) | PathStep::ConcreteViolation(trace) => {
                    // Render the branch vector the trace actually
                    // executed, not the prescription: a deadlocking
                    // prefix shared by several plans must not report
                    // outcomes of branches it never reached.
                    let executed = trace.branch_plan(self.program.threads.len());
                    return Some(SourcedTrace {
                        branch_path: Some(executed.render(self.program)),
                        trace,
                    });
                }
                PathStep::Unresolved(why) => {
                    // Record the unresolved path and keep exploring: a
                    // later violation still wins, but `Safe` is out.
                    self.truncated = true;
                    if self.stop_reason.is_none() {
                        self.stop_reason = Some(why);
                    }
                    continue;
                }
            }
        }
    }

    fn truncated(&self) -> bool {
        self.truncated
    }

    fn stop_reason(&self) -> Option<String> {
        self.stop_reason.clone()
    }

    fn paths_explored(&self) -> usize {
        self.explored
    }

    fn directed_transitions(&self) -> u64 {
        self.directed_transitions
    }

    fn canonical_skipped(&self) -> u64 {
        self.canonical_skipped
    }

    /// µs spent enumerating the static path space.
    fn enumerate_us(&self) -> u64 {
        self.enumerate_us
    }

    /// µs spent in directed-scheduler searches realising paths.
    fn schedule_us(&self) -> u64 {
        self.schedule_us
    }

    /// One deadline spans the whole exploration: every per-path query
    /// gets it instead of restarting its own budget.
    fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Path-complete check of a whole program: every feasible control-flow
/// path is generated and run through the per-execution symbolic checker.
/// See the module docs for the pipeline and the verdict semantics.
///
/// ```
/// use mcapi::builder::ProgramBuilder;
/// use mcapi::expr::{Cond, Expr};
/// use mcapi::program::Op;
/// use mcapi::types::CmpOp;
/// use symbolic::checker::Verdict;
/// use symbolic::paths::{check_program_paths, PathsConfig};
///
/// // The violation hides in the arm a first trace rarely takes: the
/// // trace-pinned engine misses it, the path engine cannot.
/// let mut b = ProgramBuilder::new("gate");
/// let w = b.thread("worker");
/// let p1 = b.thread("fast");
/// let p2 = b.thread("slow");
/// let v = b.recv(w, 0);
/// b.push_op(
///     w,
///     Op::If {
///         cond: Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(10)),
///         then_ops: vec![],
///         else_ops: vec![Op::Assert {
///             cond: Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(10)),
///             message: "slow token slipped through".into(),
///         }],
///     },
/// );
/// b.recv(w, 0);
/// b.send_const(p1, w, 0, 10);
/// b.send_const(p2, w, 0, 20);
/// let program = b.build().unwrap();
///
/// let report = check_program_paths(&program, &PathsConfig::default());
/// assert!(matches!(report.verdict, Verdict::Violation(_)));
/// assert!(report.paths_explored >= 2);
/// ```
pub fn check_program_paths(program: &Program, cfg: &PathsConfig) -> CheckReport {
    match PathEnumerator::new(program, cfg) {
        Ok(mut paths) => check_source(&mut SessionPool::new(), program, &mut paths, &cfg.check).0,
        Err(why) => enumeration_failed(program, cfg, &why),
    }
}

/// The `Unknown` report for a program whose static path space cannot be
/// enumerated ([`PathEnumerator::new`] failed with `why`): no path was
/// explored, so nothing else is known.
pub fn enumeration_failed(program: &Program, cfg: &PathsConfig, why: &str) -> CheckReport {
    CheckReport::new(
        Verdict::Unknown(format!("path enumeration failed: {why}")),
        mcapi::runtime::execute_random(program, cfg.check.delivery, 0).trace,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_program, MatchGen};
    use mcapi::builder::ProgramBuilder;
    use mcapi::expr::{Cond, Expr};
    use mcapi::program::Op;
    use mcapi::types::{CmpOp, DeliveryModel};

    /// The gatekeeper shape: the violation hides in the branch arm the
    /// deterministic first trace does not take.
    fn gatekeeper() -> Program {
        let mut b = ProgramBuilder::new("gatekeeper");
        let fast = b.thread("fast");
        let slow = b.thread("slow");
        let gate = b.thread("gate");
        let worker = b.thread("worker");
        b.send_const(fast, gate, 0, 10);
        b.send_const(slow, gate, 0, 20);
        let token = b.recv(gate, 0);
        b.recv(gate, 0);
        b.send_var(gate, worker, 0, token);
        let v = b.recv(worker, 0);
        b.push_op(
            worker,
            Op::If {
                cond: Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(10)),
                then_ops: vec![Op::Assign {
                    var: v,
                    expr: Expr::Const(0),
                }],
                else_ops: vec![Op::Assert {
                    cond: Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(10)),
                    message: "the slow token slipped through the gate".into(),
                }],
            },
        );
        b.build().unwrap()
    }

    #[test]
    fn paths_engine_closes_the_gatekeeper_gap() {
        let p = gatekeeper();
        let report = check_program_paths(&p, &PathsConfig::default());
        match &report.verdict {
            Verdict::Violation(cv) => {
                assert!(cv
                    .violated_props
                    .iter()
                    .any(|m| m.contains("slipped through")));
                let path = cv.branch_path.as_deref().expect("witness names its path");
                assert!(path.contains("worker:F"), "{path}");
            }
            other => panic!("expected violation, got {other:?}"),
        }
        assert!(report.paths_explored >= 1);
    }

    #[test]
    fn value_infeasible_arm_is_pruned_and_safe() {
        // All payloads are <= 20; the (v > 100) arm can never execute, so
        // its always-false assertion must not produce a violation: the
        // directed search proves the arm's plan unrealisable.
        let mut b = ProgramBuilder::new("infeasible-arm");
        let c = b.thread("consumer");
        let p1 = b.thread("p1");
        let p2 = b.thread("p2");
        let v = b.recv(c, 0);
        b.push_op(
            c,
            Op::If {
                cond: Cond::cmp(CmpOp::Gt, Expr::Var(v), Expr::Const(100)),
                then_ops: vec![Op::Assert {
                    cond: Cond::False,
                    message: "unreachable arm".into(),
                }],
                else_ops: vec![],
            },
        );
        b.recv(c, 0);
        b.send_const(p1, c, 0, 10);
        b.send_const(p2, c, 0, 20);
        let p = b.build().unwrap();
        let report = check_program_paths(&p, &PathsConfig::default());
        assert!(
            matches!(report.verdict, Verdict::Safe),
            "{:?}",
            report.verdict
        );
        // Both plans are searched; the one through the arm is refuted.
        let mut paths = PathEnumerator::new(&p, &PathsConfig::default()).unwrap();
        let realised = std::iter::from_fn(|| paths.next_trace()).count();
        assert_eq!((paths.paths_explored(), realised), (2, 1));
    }

    #[test]
    fn branch_free_programs_match_the_single_trace_engine() {
        // On branch-free programs the path space is a single path, so the
        // two engines must agree everywhere.
        let programs = [
            ("fig1", fig1()),
            ("race", race_with_assert()),
            ("safe", safe_pipeline()),
        ];
        for (name, p) in &programs {
            for delivery in DeliveryModel::ALL {
                let cfg = CheckConfig {
                    delivery,
                    matchgen: MatchGen::OverApprox,
                    ..CheckConfig::default()
                };
                let single = check_program(p, &cfg);
                let paths = check_program_paths(
                    p,
                    &PathsConfig {
                        check: cfg,
                        ..PathsConfig::default()
                    },
                );
                assert_eq!(
                    std::mem::discriminant(&single.verdict),
                    std::mem::discriminant(&paths.verdict),
                    "{name}/{delivery}: single {:?} vs paths {:?}",
                    single.verdict,
                    paths.verdict,
                );
                assert_eq!(paths.paths_explored, 1, "{name} is branch-free");
            }
        }
    }

    #[test]
    fn truncated_frontier_degrades_to_unknown_never_safe() {
        // branchy-style program with 2 paths and max_paths = 1: the
        // unexplored path must surface as Unknown.
        let p = gatekeeper();
        let cfg = PathsConfig {
            max_paths: 1,
            ..PathsConfig::default()
        };
        let report = check_program_paths(&p, &cfg);
        match &report.verdict {
            Verdict::Unknown(why) => assert!(why.contains("truncated"), "{why}"),
            Verdict::Violation(_) => {
                // Acceptable only if the single explored path already
                // violates — it does not for gatekeeper's path order, so
                // treat this as a failure to keep the test sharp.
                panic!("first path should be the safe then-arm");
            }
            Verdict::Safe => panic!("truncation must never yield Safe"),
        }
    }

    #[test]
    fn exhausted_budget_spans_all_paths() {
        let p = gatekeeper();
        let cfg = PathsConfig {
            check: CheckConfig {
                budget_ms: Some(0),
                ..CheckConfig::default()
            },
            ..PathsConfig::default()
        };
        let report = check_program_paths(&p, &cfg);
        match &report.verdict {
            Verdict::Unknown(why) => assert!(why.contains("budget"), "{why}"),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn session_reuse_shares_cores_across_sibling_paths() {
        // branchy(2): four paths, one communication skeleton.
        let p = branchy2();
        let mut pool = SessionPool::new();
        let cfg = PathsConfig::default();
        let mut paths = PathEnumerator::new(&p, &cfg).unwrap();
        let (report, _) = check_source(&mut pool, &p, &mut paths, &cfg.check);
        assert!(
            matches!(report.verdict, Verdict::Safe),
            "{:?}",
            report.verdict
        );
        assert!(report.paths_explored >= 2);
        assert_eq!(pool.encodings_built, 1, "sibling paths share one core");
        assert!(pool.paths_attached >= 1);
    }

    // ---- fixture programs ----

    fn fig1() -> Program {
        let mut b = ProgramBuilder::new("fig1");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        b.recv(t0, 0);
        b.recv(t0, 0);
        b.recv(t1, 0);
        b.send_const(t1, t0, 0, 100);
        b.send_const(t2, t0, 0, 200);
        b.send_const(t2, t1, 0, 300);
        b.build().unwrap()
    }

    fn race_with_assert() -> Program {
        let mut b = ProgramBuilder::new("race");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let a = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)),
            "p1 first",
        );
        b.send_const(t1, t0, 0, 1);
        b.send_const(t2, t0, 0, 2);
        b.build().unwrap()
    }

    fn safe_pipeline() -> Program {
        let mut b = ProgramBuilder::new("safe");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let v = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(7)),
            "is 7",
        );
        b.send_const(t1, t0, 0, 7);
        b.build().unwrap()
    }

    fn branchy2() -> Program {
        let mut b = ProgramBuilder::new("branchy-2");
        let c = b.thread("consumer");
        let p1 = b.thread("p1");
        let p2 = b.thread("p2");
        for _ in 0..2 {
            let v = b.recv(c, 0);
            b.push_op(
                c,
                Op::If {
                    cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(50)),
                    then_ops: vec![Op::Assert {
                        cond: Cond::cmp(CmpOp::Le, Expr::Var(v), Expr::Const(100)),
                        message: "high within bound".into(),
                    }],
                    else_ops: vec![Op::Assert {
                        cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(1)),
                        message: "low within bound".into(),
                    }],
                },
            );
        }
        for k in 0..2 {
            b.send_const(p1, c, 0, 10 * k + 1);
            b.send_const(p2, c, 0, 10 * k + 52);
        }
        for _ in 0..2 {
            b.recv(c, 0);
        }
        b.build().unwrap()
    }
}
