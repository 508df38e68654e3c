//! Differential net for the two searches that step over the interned rows
//! of `mcapi::store`: the directed schedule search
//! (`mcapi::sched::execute_directed_with_stats`) and the precise
//! match-pair DFS (`symbolic::matchpairs::precise_match_pairs`). The
//! searches they replaced — whole cloned `SysState`s in a `HashSet` — are
//! kept here as references.
//!
//! The directed search must give bit-identical outcomes (kind, schedule,
//! trace, final state) and statistics. The precise DFS must give the same
//! pairs, the same number of states under the unordered and FIFO models,
//! and no more under zero delay, where its key now keeps the send order
//! per destination only.

use mcapi::program::Program;
use mcapi::sched::{
    execute_directed_with_stats, program_paths, BranchPlan, DirectedConfig, DirectedOutcome,
    DirectedStats,
};
use mcapi::types::DeliveryModel;
use proptest::prelude::*;
use symbolic::checker::{generate_trace, CheckConfig};
use symbolic::matchpairs::{precise_match_pairs, MatchPairs};

mod reference {
    use mcapi::canon::{summarize, CanonTracker};
    use mcapi::program::Program;
    use mcapi::runtime::replay;
    use mcapi::sched::{BranchPlan, DirectedConfig, DirectedOutcome, DirectedStats};
    use mcapi::state::{Action, SysState};
    use mcapi::trace::{EventKind, Trace};
    use mcapi::types::{DeliveryModel, MsgId, RecvKey};
    use std::collections::HashSet;
    use symbolic::matchpairs::{trace_skeleton, MatchPairs};

    struct DirectedSearch<'a> {
        program: &'a Program,
        model: DeliveryModel,
        plan: &'a BranchPlan,
        visited: HashSet<(SysState, Vec<u16>, usize)>,
        cfg: DirectedConfig,
        canon: CanonTracker,
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
                    && self
                        .cfg
                        .deadline
                        .is_some_and(|d| std::time::Instant::now() >= d))
            {
                self.exhausted = true;
                return None;
            }
            self.matched_best = self.matched_best.max(matched);
            let enabled = state.enabled_actions(self.program, self.model);
            if enabled.is_empty() {
                if state.all_done(self.program) {
                    let full = bidx
                        .iter()
                        .zip(&self.plan.outcomes)
                        .all(|(&i, v)| i as usize == v.len());
                    if full {
                        return Some(Found::Complete(actions.clone()));
                    }
                } else if state.violation.is_none()
                    && self
                        .best_deadlock
                        .as_ref()
                        .is_none_or(|b| b.len() < actions.len())
                {
                    self.best_deadlock = Some(actions.clone());
                }
                return None;
            }
            for action in enabled {
                if self.exhausted {
                    return None;
                }
                let summary = if self.cfg.canonical {
                    let s = summarize(self.program, state, action);
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
                let mut matched_here = matched;
                let mut complies = true;
                if let Some(ev) = events.first() {
                    if let EventKind::Branch { taken } = ev.kind {
                        let t = ev.thread;
                        let i = bidx[t] as usize;
                        match self.plan.outcomes[t].get(i) {
                            Some(&want) if want == taken => matched_here += 1,
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

    /// The directed search before the interned store: the visited set
    /// holds cloned `(state, branch indices, depth)` keys.
    pub fn execute_directed_with_stats(
        program: &Program,
        model: DeliveryModel,
        plan: &BranchPlan,
        cfg: DirectedConfig,
    ) -> (DirectedOutcome, DirectedStats) {
        let mut search = DirectedSearch {
            program,
            model,
            plan,
            visited: HashSet::new(),
            cfg,
            canon: CanonTracker::new(model),
            canonical_skipped: 0,
            transitions: 0,
            exhausted: false,
            matched_best: 0,
            best_deadlock: None,
        };
        let init = SysState::initial(program);
        let mut bidx = vec![0u16; program.threads.len()];
        let found = search.dfs(&init, &mut bidx, 0, &mut Vec::new());
        let stats = DirectedStats {
            states: search.visited.len(),
            transitions: search.transitions,
            canonical_skipped: search.canonical_skipped,
        };
        let rerun = |script: &[Action]| replay(program, model, script).expect("scripts replay");
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

    /// The precise DFS before the interned store: cloned states on the
    /// stack, deduplicated when popped by the pcs and every in-flight id
    /// in global send order.
    pub fn precise_match_pairs(
        program: &Program,
        trace: &Trace,
        model: DeliveryModel,
    ) -> MatchPairs {
        let skeleton = trace_skeleton(program, trace);
        let mut pairs = MatchPairs {
            generator: "precise-dfs",
            ..Default::default()
        };
        let mut visited = HashSet::new();
        let mut stack = vec![(
            SysState::initial(&skeleton),
            vec![0u16; skeleton.threads.len()],
        )];
        while let Some((state, recv_counts)) = stack.pop() {
            if !visited.insert(future_key(&state)) {
                continue;
            }
            pairs.states_explored += 1;
            for action in state.enabled_actions(&skeleton, model) {
                let mut counts = recv_counts.clone();
                if let Some(msg) = action.message() {
                    let t = action.thread();
                    let key = RecvKey::new(t, counts[t] as usize);
                    counts[t] += 1;
                    pairs.sends_for.entry(key).or_default().insert(msg);
                }
                stack.push((state.apply(&skeleton, action, model).0, counts));
            }
        }
        pairs
    }

    fn future_key(state: &SysState) -> (Vec<usize>, Vec<MsgId>) {
        let mut flight = state.in_flight.clone();
        flight.sort_by_key(|m| m.send_seq);
        let pcs = state.threads.iter().map(|t| t.pc).collect();
        (pcs, flight.iter().map(|m| m.id).collect())
    }
}

/// Plans the path engine would search first: up to `limit` of the static
/// path space's combinations, in its mixed-radix order. None when the
/// path engine rejects the program (a thread with too many paths).
fn plans(program: &Program, limit: usize) -> Vec<BranchPlan> {
    let Ok(space) = program_paths(program, 4096) else {
        return Vec::new();
    };
    let total = space
        .iter()
        .try_fold(1usize, |acc, v| acc.checked_mul(v.len()))
        .unwrap_or(usize::MAX);
    (0..total.min(limit))
        .map(|mut i| BranchPlan {
            outcomes: space
                .iter()
                .map(|per_thread| {
                    let k = i % per_thread.len();
                    i /= per_thread.len();
                    per_thread[k].clone()
                })
                .collect(),
        })
        .collect()
}

fn stats_fields(s: &DirectedStats) -> (usize, u64, u64) {
    (s.states, s.transitions, s.canonical_skipped)
}

/// Both directed searches on one plan: same outcome to the last event,
/// same statistics.
fn assert_directed_same(
    program: &Program,
    model: DeliveryModel,
    plan: &BranchPlan,
    cfg: DirectedConfig,
) -> DirectedOutcome {
    let (got, got_stats) = execute_directed_with_stats(program, model, plan, cfg);
    let (want, want_stats) = reference::execute_directed_with_stats(program, model, plan, cfg);
    let what = format!("{} [{model}] {plan:?} {cfg:?}", program.name);
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
    assert_eq!(
        stats_fields(&got_stats),
        stats_fields(&want_stats),
        "{what}"
    );
    got
}

/// Every delivery model × canonical on/off on the first `limit` plans.
fn assert_directed_program(program: &Program, limit: usize) {
    for model in DeliveryModel::ALL {
        for canonical in [true, false] {
            let cfg = DirectedConfig {
                canonical,
                ..DirectedConfig::default()
            };
            for plan in plans(program, limit) {
                assert_directed_same(program, model, &plan, cfg);
            }
        }
    }
}

/// The precise pairs of `program`'s generated trace under every model.
fn assert_precise_program(program: &Program) {
    for model in DeliveryModel::ALL {
        let cfg = CheckConfig {
            delivery: model,
            ..Default::default()
        };
        let trace = generate_trace(program, &cfg);
        let got: MatchPairs = precise_match_pairs(program, &trace, model);
        let want = reference::precise_match_pairs(program, &trace, model);
        let what = format!("{} [{model}]", program.name);
        assert_eq!(got.sends_for, want.sends_for, "{what}");
        assert_eq!(got.generator, want.generator, "{what}");
        if model == DeliveryModel::ZeroDelay {
            assert!(
                got.states_explored <= want.states_explored,
                "{what}: {} > {}",
                got.states_explored,
                want.states_explored
            );
        } else {
            assert_eq!(got.states_explored, want.states_explored, "{what}");
        }
    }
}

fn corpus_programs() -> Vec<Program> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mcapi"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|f| {
            let src = std::fs::read_to_string(f).expect("readable corpus file");
            frontend::parse_program(&src).expect("corpus file parses")
        })
        .collect()
}

#[test]
fn directed_search_matches_reference_on_the_grid() {
    for spec in workloads::default_grid(3) {
        assert_directed_program(&spec.build(), 16);
    }
}

#[test]
fn directed_search_matches_reference_on_the_corpus() {
    let corpus = corpus_programs();
    assert!(corpus.len() >= 24);
    let mut searched = 0;
    for p in &corpus {
        searched += !plans(p, 1).is_empty() as usize;
        assert_directed_program(p, 8);
    }
    assert!(
        searched + 2 >= corpus.len(),
        "{searched} of {}",
        corpus.len()
    );
}

#[test]
fn directed_search_budgets_match_reference() {
    // Caps small enough to stop the search part-way, so `Exhausted` and
    // the counts at the cut must agree too.
    let p = workloads::branchy(3);
    let plan = &plans(&p, 1)[0];
    let mut exhausted = 0;
    for model in DeliveryModel::ALL {
        for canonical in [true, false] {
            for (max_states, max_transitions) in
                [(1, u64::MAX), (7, u64::MAX), (300, 40), (600, 500)]
            {
                let cfg = DirectedConfig {
                    max_states,
                    max_transitions,
                    canonical,
                    ..DirectedConfig::default()
                };
                let out = assert_directed_same(&p, model, plan, cfg);
                exhausted += matches!(out, DirectedOutcome::Exhausted { .. }) as usize;
            }
        }
    }
    assert!(exhausted >= 6, "{exhausted} searches hit a cap");
}

/// Hand-written flat code with backward edges: thread `spin` revisits
/// one state at a new branch index, and thread `count` loops twice
/// before sending. The directed search keys its rows without branch
/// indices, which is exact only for loop-free code, so it must refuse
/// this program, as `program_paths` does.
fn cyclic_program() -> Program {
    use mcapi::expr::{Cond, Expr};
    use mcapi::program::{Instr, Thread};
    use mcapi::types::{CmpOp, EndpointAddr, VarId};
    let thread = |name: &str, num_vars, ports, code| Thread {
        name: String::from(name),
        ops: Vec::new(),
        num_vars,
        num_reqs: 0,
        ports,
        code,
        origins: Vec::new(),
    };
    let x = VarId(0);
    Program {
        name: "cyclic".into(),
        threads: vec![
            thread(
                "spin",
                1,
                vec![],
                vec![
                    Instr::Branch {
                        cond: Cond::eq(Expr::Var(x), Expr::Const(0)),
                        else_target: 2,
                    },
                    Instr::Jump { target: 0 },
                ],
            ),
            thread(
                "count",
                1,
                vec![],
                vec![
                    Instr::Branch {
                        cond: Cond::cmp(CmpOp::Lt, Expr::Var(x), Expr::Const(2)),
                        else_target: 3,
                    },
                    Instr::Assign {
                        var: x,
                        expr: Expr::AddConst(Box::new(Expr::Var(x)), 1),
                    },
                    Instr::Jump { target: 0 },
                    Instr::Send {
                        to: EndpointAddr::new(2, 0),
                        value: Expr::Var(x),
                    },
                ],
            ),
            thread("sink", 1, vec![0], vec![Instr::Recv { port: 0, var: x }]),
        ],
    }
}

#[test]
#[should_panic(expected = "directed search needs loop-free code")]
fn directed_search_refuses_cyclic_code() {
    let p = cyclic_program();
    p.validate().expect("valid flat code");
    assert!(program_paths(&p, 64).is_err());
    let plan = BranchPlan {
        outcomes: vec![vec![true, false], vec![true, true, false], vec![]],
    };
    execute_directed_with_stats(
        &p,
        DeliveryModel::Unordered,
        &plan,
        DirectedConfig::default(),
    );
}

#[test]
fn precise_pairs_match_reference_on_grid_and_corpus() {
    for spec in workloads::default_grid(3) {
        assert_precise_program(&spec.build());
    }
    for p in &corpus_programs() {
        assert_precise_program(p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs (non-blocking receives, assertions) and random
    /// `repeat` programs, whose consumers branch on received values.
    #[test]
    fn random_programs_match_reference(
        seed in 0u64..1_000_000,
        threads in 2usize..4,
        sends_per_thread in 1usize..3,
        with_assert in any::<bool>(),
        rounds in 1usize..4,
    ) {
        let shape = workloads::RandomProgramConfig {
            threads,
            sends_per_thread,
            with_assert,
            ..Default::default()
        };
        for p in [
            workloads::random_program(seed, &shape),
            workloads::random_loop_program(seed, rounds),
        ] {
            assert_directed_program(&p, 8);
            assert_precise_program(&p);
        }
    }
}
