//! Schedulers: policies for resolving the action non-determinism, plus the
//! *directed* execution mode used by path exploration.
//!
//! The plain schedulers ([`RandomScheduler`], [`ScriptScheduler`]) pick
//! one enabled action at a time. [`execute_directed`] is different in kind: given a
//! [`BranchPlan`] prescribing every conditional branch outcome, it searches
//! *over* schedules (depth-first, with a visited set) for a concrete
//! execution whose branches follow the plan — and reports an infeasible
//! prefix when no schedule can realise it. Path-complete checking
//! (`symbolic::paths`) uses this to turn each feasible branch-outcome
//! vector into one trace for the per-execution symbolic checker.

use crate::program::{Instr, Program, Thread};
use crate::runtime::{replay, ExecOutcome};
use crate::state::{Action, SysState};
use crate::trace::EventKind;
use crate::types::DeliveryModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// A scheduling policy. `choose` returns the index of the selected action,
/// or `None` to abort the run (used by replay divergence).
pub trait Scheduler {
    fn choose(&mut self, actions: &[Action]) -> Option<usize>;
}

/// Uniform random choice with a fixed seed (reproducible).
pub struct RandomScheduler {
    rng: SmallRng,
}

impl RandomScheduler {
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn choose(&mut self, actions: &[Action]) -> Option<usize> {
        if actions.is_empty() {
            None
        } else {
            Some(self.rng.gen_range(0..actions.len()))
        }
    }
}

/// Replays a recorded action sequence exactly; `None` when the script is
/// exhausted or the scripted action is not currently enabled (divergence).
pub struct ScriptScheduler {
    script: Vec<Action>,
    pos: usize,
    diverged: bool,
}

impl ScriptScheduler {
    pub fn new(script: Vec<Action>) -> Self {
        ScriptScheduler {
            script,
            pos: 0,
            diverged: false,
        }
    }

    /// Did the replay fail to follow the script?
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// Number of script entries consumed.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl Scheduler for ScriptScheduler {
    fn choose(&mut self, actions: &[Action]) -> Option<usize> {
        let Some(&want) = self.script.get(self.pos) else {
            return None; // script exhausted: stop (not a divergence)
        };
        match actions.iter().position(|&a| a == want) {
            Some(i) => {
                self.pos += 1;
                Some(i)
            }
            None => {
                self.diverged = true;
                None
            }
        }
    }
}

/// A prescribed control-flow path: one taken/not-taken vector per thread,
/// in that thread's branch-execution order. This is the unit the path
/// explorer enumerates — two executions with equal plans are the same
/// "path" for the trace-based symbolic encoding, whatever their
/// interleaving or message matching.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct BranchPlan {
    /// `outcomes[t][i]` is the prescribed outcome of thread `t`'s `i`-th
    /// executed branch (`true` = then-direction).
    pub outcomes: Vec<Vec<bool>>,
}

impl BranchPlan {
    /// Total prescribed branch outcomes across all threads.
    pub fn len(&self) -> usize {
        self.outcomes.iter().map(Vec::len).sum()
    }

    /// Does the plan prescribe nothing (a branch-free program)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compact human-readable form naming each branching thread, e.g.
    /// `worker:F` or `consumer:TF gate:T` (branch-free threads omitted).
    pub fn render(&self, program: &Program) -> String {
        let parts: Vec<String> = self
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(t, v)| {
                let name = program
                    .threads
                    .get(t)
                    .map(|th| th.name.as_str())
                    .unwrap_or("?");
                let bits: String = v.iter().map(|&b| if b { 'T' } else { 'F' }).collect();
                format!("{name}:{bits}")
            })
            .collect();
        if parts.is_empty() {
            "(branch-free)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Why the static path space of a program could not be enumerated.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PathSpaceError {
    /// A thread's flat code contains a control-flow cycle (only possible
    /// for hand-written JSON programs; the structured DSL is loop-free).
    CyclicCode { thread: usize },
    /// A single thread admits more than the per-thread cap of paths.
    TooManyPaths { thread: usize, cap: usize },
}

impl std::fmt::Display for PathSpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathSpaceError::CyclicCode { thread } => {
                write!(f, "thread {thread} has cyclic control flow")
            }
            PathSpaceError::TooManyPaths { thread, cap } => {
                write!(f, "thread {thread} admits more than {cap} static paths")
            }
        }
    }
}

/// All branch-outcome sequences one thread's (loop-free) flat code admits,
/// in a deterministic order: the all-taken path first, flipping later
/// branches before earlier ones.
fn thread_paths(thread: &Thread, tid: usize, cap: usize) -> Result<Vec<Vec<bool>>, PathSpaceError> {
    let code = &thread.code;
    let mut done: Vec<Vec<bool>> = Vec::new();
    // Depth-first over (pc, outcomes-so-far); the stack order makes the
    // enumeration deterministic.
    let mut stack: Vec<(usize, Vec<bool>)> = vec![(0, Vec::new())];
    while let Some((mut pc, mut outcomes)) = stack.pop() {
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > code.len() + 1 {
                return Err(PathSpaceError::CyclicCode { thread: tid });
            }
            if pc >= code.len() {
                done.push(outcomes);
                if done.len() > cap {
                    return Err(PathSpaceError::TooManyPaths { thread: tid, cap });
                }
                break;
            }
            match &code[pc] {
                Instr::Branch { else_target, .. } => {
                    let mut not_taken = outcomes.clone();
                    not_taken.push(false);
                    stack.push((*else_target, not_taken));
                    outcomes.push(true);
                    pc += 1;
                }
                Instr::Jump { target } => {
                    if *target <= pc {
                        return Err(PathSpaceError::CyclicCode { thread: tid });
                    }
                    pc = *target;
                }
                _ => pc += 1,
            }
        }
    }
    Ok(done)
}

/// The static path space of a program: per thread, every branch-outcome
/// sequence its loop-free code admits. The program's paths are the cross
/// product; [`execute_directed`] decides which combinations are feasible.
pub fn program_paths(
    program: &Program,
    per_thread_cap: usize,
) -> Result<Vec<Vec<Vec<bool>>>, PathSpaceError> {
    program
        .threads
        .iter()
        .enumerate()
        .map(|(tid, t)| thread_paths(t, tid, per_thread_cap))
        .collect()
}

/// Budgets for one directed search.
#[derive(Clone, Copy, Debug)]
pub struct DirectedConfig {
    /// Visited-state cap; exceeding it yields [`DirectedOutcome::Exhausted`].
    pub max_states: usize,
    /// Transition (`apply`-call) cap — the search's *work* budget, as
    /// opposed to the *memory* budget above. State caching makes the two
    /// diverge: a non-canonical sweep re-derives the same states through
    /// many more transitions, so a work-bounded search can exhaust without
    /// canonical pruning yet resolve with it. `u64::MAX` = unbounded.
    pub max_transitions: u64,
    /// Absolute wall-clock deadline shared with the caller's whole check.
    pub deadline: Option<Instant>,
    /// Explore only the canonical (lexicographically least) linearisation
    /// of each Mazurkiewicz trace class (see [`crate::canon`]). Sound for
    /// every [`DirectedOutcome`] — plan compliance, completion, violation
    /// and deadlock are all invariant under commuting independent actions
    /// — and typically prunes the schedule space by an exponential factor.
    /// The `--no-canonical` escape hatch turns it off.
    pub canonical: bool,
}

impl Default for DirectedConfig {
    fn default() -> Self {
        DirectedConfig {
            max_states: 200_000,
            max_transitions: u64::MAX,
            deadline: None,
            canonical: true,
        }
    }
}

/// Search-effort counters for one directed search, for the
/// `schedules_canonical_skipped` observability surface and the perf gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectedStats {
    /// Distinct `(state, branch-index, depth)` nodes visited.
    pub states: usize,
    /// Schedule transitions executed (`apply` calls) — the search's real
    /// work measure. The canonical prune rejects extensions *before*
    /// applying them, so this is where one-representative-per-class shows
    /// up; the visited-set size alone would not (state caching already
    /// merges commuted interleavings into a DAG whose node count the
    /// prune cannot shrink).
    pub transitions: u64,
    /// Schedule extensions pruned by the canonical normal-form test.
    pub canonical_skipped: u64,
}

/// Result of searching for an execution that follows a [`BranchPlan`].
#[derive(Clone, Debug)]
pub enum DirectedOutcome {
    /// A complete, violation-free execution realises the full plan.
    Realized(ExecOutcome),
    /// An execution complying with the plan's prefix reaches a concrete
    /// assertion violation — a real counterexample on this path.
    Violating(ExecOutcome),
    /// The plan's realisable executions all stop in a deadlock; the
    /// deepest such prefix is returned for symbolic analysis.
    Deadlocked(ExecOutcome),
    /// No execution follows the plan: the search exhausted every schedule
    /// after matching at most `matched_branches` prescribed outcomes.
    Infeasible { matched_branches: usize },
    /// The state or time budget ran out before the search resolved —
    /// callers must degrade to an unknown verdict, never to safe.
    Exhausted { states: usize },
}

struct DirectedSearch<'a> {
    program: &'a Program,
    model: DeliveryModel,
    plan: &'a BranchPlan,
    /// Visited key: `(state, branch indices, schedule depth)`. The depth
    /// component is 0 in non-canonical mode (pure state caching). In
    /// canonical mode it keeps prefixes of different lengths from
    /// colliding, which together with the ascending child order makes the
    /// cache sound under normal-form pruning: within one depth, the first
    /// arrival at a node is via the lex-least canonical prefix, and every
    /// canonical completion extends that prefix.
    visited: HashSet<(SysState, Vec<u16>, usize)>,
    cfg: DirectedConfig,
    canon: crate::canon::CanonTracker,
    canonical_skipped: u64,
    transitions: u64,
    exhausted: bool,
    matched_best: usize,
    best_deadlock: Option<Vec<Action>>,
}

enum Found {
    Complete(Vec<Action>),
    Violation(Vec<Action>),
}

impl DirectedSearch<'_> {
    fn dfs(
        &mut self,
        state: &SysState,
        bidx: &mut Vec<u16>,
        matched: usize,
        actions: &mut Vec<Action>,
    ) -> Option<Found> {
        if self.exhausted {
            return None;
        }
        let depth = if self.cfg.canonical { actions.len() } else { 0 };
        if !self.visited.insert((state.clone(), bidx.clone(), depth)) {
            return None;
        }
        if self.visited.len() > self.cfg.max_states
            || (self.visited.len().is_multiple_of(256)
                && self.cfg.deadline.is_some_and(|d| Instant::now() >= d))
        {
            self.exhausted = true;
            return None;
        }
        self.matched_best = self.matched_best.max(matched);
        let enabled = state.enabled_actions(self.program, self.model);
        if enabled.is_empty() {
            if state.all_done(self.program) {
                // A complete execution realises the plan only if every
                // prescribed branch was actually executed.
                let full = bidx
                    .iter()
                    .zip(&self.plan.outcomes)
                    .all(|(&i, v)| i as usize == v.len());
                if full {
                    return Some(Found::Complete(actions.clone()));
                }
            } else if state.violation.is_none() {
                // Deadlock on a plan-compliant prefix: keep the deepest.
                if self
                    .best_deadlock
                    .as_ref()
                    .is_none_or(|b| b.len() < actions.len())
                {
                    self.best_deadlock = Some(actions.clone());
                }
            }
            return None;
        }
        for action in enabled {
            if self.exhausted {
                return None;
            }
            // Canonical prune first: it needs no successor state, only the
            // action's footprint at the current state.
            let summary = if self.cfg.canonical {
                let s = crate::canon::summarize(self.program, state, action);
                if !self.canon.is_canonical_extension(action, &s) {
                    self.canonical_skipped += 1;
                    continue;
                }
                Some(s)
            } else {
                None
            };
            self.transitions += 1;
            if self.transitions > self.cfg.max_transitions {
                self.exhausted = true;
                return None;
            }
            let (next, events) = state.apply(self.program, action, self.model);
            // Plan compliance: a branch event must follow the prescription.
            let mut matched_here = matched;
            let mut complies = true;
            if let Some(ev) = events.first() {
                if let EventKind::Branch { taken } = ev.kind {
                    let t = ev.thread;
                    let i = bidx[t] as usize;
                    match self.plan.outcomes[t].get(i) {
                        Some(&want) if want == taken => {
                            matched_here += 1;
                        }
                        _ => complies = false,
                    }
                    if complies {
                        bidx[t] += 1;
                    }
                }
            }
            if !complies {
                self.matched_best = self.matched_best.max(matched);
                continue;
            }
            actions.push(action);
            let found = if next.violation.is_some() {
                // Violations are terminal in the semantics; a compliant
                // prefix reaching one is a concrete counterexample.
                Some(Found::Violation(actions.clone()))
            } else {
                if let Some(s) = summary {
                    self.canon.push(action, s);
                }
                let f = self.dfs(&next, bidx, matched_here, actions);
                if summary.is_some() {
                    self.canon.pop();
                }
                f
            };
            actions.pop();
            if let Some(ev) = events.first() {
                if let EventKind::Branch { taken } = ev.kind {
                    let t = ev.thread;
                    let i = (bidx[t] as usize).wrapping_sub(1);
                    if self.plan.outcomes[t].get(i) == Some(&taken) {
                        bidx[t] -= 1;
                    }
                }
            }
            if found.is_some() {
                return found;
            }
        }
        None
    }
}

/// Search for a concrete execution whose branch outcomes follow `plan`
/// exactly, exploring schedules depth-first under `model`. See
/// [`DirectedOutcome`] for the possible results; the search is exhaustive
/// (up to the budget), so [`DirectedOutcome::Infeasible`] is definitive.
pub fn execute_directed(
    program: &Program,
    model: DeliveryModel,
    plan: &BranchPlan,
    cfg: DirectedConfig,
) -> DirectedOutcome {
    execute_directed_with_stats(program, model, plan, cfg).0
}

/// [`execute_directed`] plus its search-effort counters ([`DirectedStats`]).
pub fn execute_directed_with_stats(
    program: &Program,
    model: DeliveryModel,
    plan: &BranchPlan,
    cfg: DirectedConfig,
) -> (DirectedOutcome, DirectedStats) {
    assert_eq!(
        plan.outcomes.len(),
        program.threads.len(),
        "plan must prescribe one outcome vector per thread"
    );
    let mut search = DirectedSearch {
        program,
        model,
        plan,
        visited: HashSet::new(),
        cfg,
        canon: crate::canon::CanonTracker::new(model),
        canonical_skipped: 0,
        transitions: 0,
        exhausted: false,
        matched_best: 0,
        best_deadlock: None,
    };
    let init = SysState::initial(program);
    let mut bidx = vec![0u16; program.threads.len()];
    let mut actions = Vec::new();
    let found = search.dfs(&init, &mut bidx, 0, &mut actions);
    let stats = DirectedStats {
        states: search.visited.len(),
        transitions: search.transitions,
        canonical_skipped: search.canonical_skipped,
    };
    let rerun = |script: &[Action]| {
        replay(program, model, script).expect("directed search scripts replay exactly")
    };
    let outcome = match found {
        Some(Found::Violation(script)) => DirectedOutcome::Violating(rerun(&script)),
        Some(Found::Complete(script)) => DirectedOutcome::Realized(rerun(&script)),
        None if search.exhausted => DirectedOutcome::Exhausted {
            states: search.visited.len(),
        },
        None => match search.best_deadlock {
            Some(script) => DirectedOutcome::Deadlocked(rerun(&script)),
            None => DirectedOutcome::Infeasible {
                matched_branches: search.matched_best,
            },
        },
    };
    (outcome, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MsgId;

    fn acts() -> Vec<Action> {
        vec![
            Action::Internal { thread: 0 },
            Action::Internal { thread: 1 },
            Action::Receive {
                thread: 2,
                msg: MsgId::new(0, 0),
            },
        ]
    }

    #[test]
    fn random_is_reproducible() {
        let a = acts();
        let run = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..20).map(|_| s.choose(&a).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        // Different seeds usually differ (not guaranteed, but this seed pair does).
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn random_handles_empty() {
        let mut s = RandomScheduler::new(0);
        assert_eq!(s.choose(&[]), None);
    }

    #[test]
    fn script_follows_and_reports_divergence() {
        let a = acts();
        let mut s = ScriptScheduler::new(vec![a[2], a[0]]);
        assert_eq!(s.choose(&a), Some(2));
        assert_eq!(s.choose(&a), Some(0));
        assert!(!s.diverged());
        assert_eq!(s.consumed(), 2);
        // Script exhausted: None without divergence.
        assert_eq!(s.choose(&a), None);
        assert!(!s.diverged());
    }

    #[test]
    fn script_divergence_flag() {
        let a = acts();
        let missing = Action::Internal { thread: 9 };
        let mut s = ScriptScheduler::new(vec![missing]);
        assert_eq!(s.choose(&a), None);
        assert!(s.diverged());
    }

    use crate::builder::ProgramBuilder;
    use crate::expr::{Cond, Expr};
    use crate::program::{Op, Program};
    use crate::types::CmpOp;

    /// Two producers race one value into a consumer that branches on it.
    fn branchy_race() -> Program {
        let mut b = ProgramBuilder::new("branchy-race");
        let c = b.thread("consumer");
        let p1 = b.thread("p1");
        let p2 = b.thread("p2");
        let v = b.recv(c, 0);
        b.push_op(
            c,
            Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(10)),
                then_ops: vec![Op::Assign {
                    var: v,
                    expr: Expr::Const(1),
                }],
                else_ops: vec![Op::Assert {
                    cond: Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(0)),
                    message: "low value must be zero".into(),
                }],
            },
        );
        b.recv(c, 0);
        b.send_const(p1, c, 0, 5);
        b.send_const(p2, c, 0, 50);
        b.build().unwrap()
    }

    #[test]
    fn program_paths_enumerates_both_arms() {
        let p = branchy_race();
        let paths = program_paths(&p, 1024).unwrap();
        assert_eq!(paths[0], vec![vec![true], vec![false]]);
        assert_eq!(paths[1], vec![Vec::<bool>::new()]);
        assert_eq!(paths[2], vec![Vec::<bool>::new()]);
    }

    #[test]
    fn directed_search_realises_the_then_path() {
        let p = branchy_race();
        let plan = BranchPlan {
            outcomes: vec![vec![true], vec![], vec![]],
        };
        match execute_directed(
            &p,
            DeliveryModel::Unordered,
            &plan,
            DirectedConfig::default(),
        ) {
            DirectedOutcome::Realized(out) => {
                assert!(out.trace.is_complete());
                assert_eq!(out.trace.branch_outcomes(0), vec![true]);
                assert!(out.violation().is_none());
            }
            other => panic!("expected a realised path, got {other:?}"),
        }
    }

    #[test]
    fn directed_search_finds_the_concrete_violation_on_the_else_path() {
        let p = branchy_race();
        let plan = BranchPlan {
            outcomes: vec![vec![false], vec![], vec![]],
        };
        match execute_directed(
            &p,
            DeliveryModel::Unordered,
            &plan,
            DirectedConfig::default(),
        ) {
            DirectedOutcome::Violating(out) => {
                let v = out.violation().expect("violation recorded");
                assert!(v.message.contains("low value must be zero"));
                assert_eq!(out.trace.branch_outcomes(0), vec![false]);
            }
            other => panic!("expected a violating path, got {other:?}"),
        }
    }

    #[test]
    fn directed_search_reports_value_infeasible_plans() {
        // Single producer sends 5: the then-arm (v >= 10) is unreachable.
        let mut b = ProgramBuilder::new("infeasible");
        let c = b.thread("consumer");
        let p1 = b.thread("p1");
        let v = b.recv(c, 0);
        b.push_op(
            c,
            Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(10)),
                then_ops: vec![],
                else_ops: vec![],
            },
        );
        b.send_const(p1, c, 0, 5);
        let p = b.build().unwrap();
        let plan = BranchPlan {
            outcomes: vec![vec![true], vec![]],
        };
        match execute_directed(
            &p,
            DeliveryModel::Unordered,
            &plan,
            DirectedConfig::default(),
        ) {
            DirectedOutcome::Infeasible { matched_branches } => {
                assert_eq!(matched_branches, 0);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn directed_search_surfaces_plan_compliant_deadlocks() {
        // The consumer's second receive never gets a message.
        let mut b = ProgramBuilder::new("deadlock-path");
        let c = b.thread("consumer");
        let p1 = b.thread("p1");
        b.recv(c, 0);
        b.recv(c, 0);
        b.send_const(p1, c, 0, 1);
        let p = b.build().unwrap();
        let plan = BranchPlan {
            outcomes: vec![vec![], vec![]],
        };
        match execute_directed(
            &p,
            DeliveryModel::Unordered,
            &plan,
            DirectedConfig::default(),
        ) {
            DirectedOutcome::Deadlocked(out) => {
                assert!(out.trace.deadlock);
                assert_eq!(out.trace.receives().len(), 1);
            }
            other => panic!("expected deadlocked, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_state_budget_is_reported_not_misclassified() {
        let p = branchy_race();
        let plan = BranchPlan {
            outcomes: vec![vec![true], vec![], vec![]],
        };
        let cfg = DirectedConfig {
            max_states: 1,
            ..DirectedConfig::default()
        };
        match execute_directed(&p, DeliveryModel::Unordered, &plan, cfg) {
            DirectedOutcome::Exhausted { .. } => {}
            other => panic!("expected exhausted, got {other:?}"),
        }
    }

    /// Outcome kinds must agree between canonical and full search: the
    /// properties the directed search reports (realisability, violation,
    /// deadlock, infeasibility) are all trace-class invariants.
    fn same_kind(a: &DirectedOutcome, b: &DirectedOutcome) -> bool {
        matches!(
            (a, b),
            (DirectedOutcome::Realized(_), DirectedOutcome::Realized(_))
                | (DirectedOutcome::Violating(_), DirectedOutcome::Violating(_))
                | (
                    DirectedOutcome::Deadlocked(_),
                    DirectedOutcome::Deadlocked(_)
                )
                | (
                    DirectedOutcome::Infeasible { .. },
                    DirectedOutcome::Infeasible { .. }
                )
                | (
                    DirectedOutcome::Exhausted { .. },
                    DirectedOutcome::Exhausted { .. }
                )
        )
    }

    #[test]
    fn canonical_search_agrees_and_prunes() {
        let p = branchy_race();
        for model in crate::types::DeliveryModel::ALL {
            for outcomes in [vec![vec![true]], vec![vec![false]]] {
                let plan = BranchPlan {
                    outcomes: [outcomes.clone(), vec![vec![], vec![]]].concat(),
                };
                let on = DirectedConfig::default();
                let off = DirectedConfig {
                    canonical: false,
                    ..DirectedConfig::default()
                };
                let (r_on, _s_on) = execute_directed_with_stats(&p, model, &plan, on);
                let (r_off, s_off) = execute_directed_with_stats(&p, model, &plan, off);
                assert!(
                    same_kind(&r_on, &r_off),
                    "model {model} plan {plan:?}: {r_on:?} vs {r_off:?}"
                );
                assert_eq!(s_off.canonical_skipped, 0);
            }
        }
    }

    #[test]
    fn canonical_search_prunes_exhaustive_sweeps() {
        // Many mutually-independent senders feeding a consumer that wants
        // one receive too many: every plan-compliant execution deadlocks,
        // so the search must sweep the entire schedule space — exactly
        // where one-representative-per-class pays off. A realised plan, by
        // contrast, can stop at the first found schedule.
        let mut b = ProgramBuilder::new("wide-deadlock");
        let c = b.thread("consumer");
        let senders: Vec<_> = (0..4).map(|i| b.thread(format!("s{i}"))).collect();
        for _ in 0..5 {
            b.recv(c, 0);
        }
        for (i, &s) in senders.iter().enumerate() {
            b.send_const(s, c, 0, i as i64);
        }
        let p = b.build().unwrap();
        let plan = BranchPlan {
            outcomes: vec![vec![]; p.threads.len()],
        };
        let (r_on, s_on) = execute_directed_with_stats(
            &p,
            DeliveryModel::Unordered,
            &plan,
            DirectedConfig::default(),
        );
        let (r_off, s_off) = execute_directed_with_stats(
            &p,
            DeliveryModel::Unordered,
            &plan,
            DirectedConfig {
                canonical: false,
                ..DirectedConfig::default()
            },
        );
        assert!(same_kind(&r_on, &r_off), "{r_on:?} vs {r_off:?}");
        let (DirectedOutcome::Deadlocked(on), DirectedOutcome::Deadlocked(off)) = (&r_on, &r_off)
        else {
            panic!("both must deadlock: {r_on:?} vs {r_off:?}");
        };
        assert_eq!(
            on.trace.receives().len(),
            off.trace.receives().len(),
            "deepest deadlock depth is a class invariant"
        );
        assert!(
            s_on.transitions < s_off.transitions,
            "canonical must shrink the explored transitions: {} vs {}",
            s_on.transitions,
            s_off.transitions
        );
        assert!(s_on.canonical_skipped > 0);
        assert_eq!(s_off.canonical_skipped, 0);
    }

    #[test]
    fn branch_plan_renders_compactly() {
        let p = branchy_race();
        let plan = BranchPlan {
            outcomes: vec![vec![true, false], vec![], vec![]],
        };
        assert_eq!(plan.render(&p), "consumer:TF");
        let empty = BranchPlan {
            outcomes: vec![vec![], vec![], vec![]],
        };
        assert_eq!(empty.render(&p), "(branch-free)");
    }
}
