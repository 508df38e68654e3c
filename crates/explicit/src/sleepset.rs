//! Stateless execution enumeration with sleep-set partial-order reduction.
//!
//! This is the Inspect-style baseline the paper situates itself against
//! (via Fusion's comparison with Inspect): depth-first enumeration of
//! executions — no state hashing — pruned with Godefroid's sleep sets.
//! Sleep sets preserve at least one linearisation of every Mazurkiewicz
//! trace, so safety verdicts (assertion violations, deadlocks) and the set
//! of complete matchings are identical to the naive enumeration, at a
//! fraction of the executions.
//!
//! The independence relation is the shared one in [`mcapi::canon`]
//! (extracted from this module): two actions commute iff they belong to
//! different threads and do not touch a common endpoint (a send and a
//! receive on the same endpoint, or two receives on the same endpoint, are
//! dependent; under `ZeroDelay` two sends to the same endpoint are also
//! dependent because global send order is semantic there; under
//! `Unordered` they commute).
//!
//! The same relation powers an optional *stronger* prune that composes
//! with sleep sets: [`SleepConfig::use_canonical`] restricts the
//! enumeration to the lexicographic normal form of each Mazurkiewicz trace
//! class ([`mcapi::canon::CanonTracker`]). Because the DFS explores
//! actions in ascending order, every schedule that takes a sleeping action
//! also has a smaller independent sibling explored earlier — i.e. it is
//! not in normal form — so the canonical survivors are a subset of the
//! sleep-set survivors (asserted by a test below), with exactly one
//! execution left per class.

use crate::stats::{ExploreResult, Matching, RecvKey};
use mcapi::canon::{independent, summarize, CanonTracker};
use mcapi::program::Program;
use mcapi::state::{Action, SysState};
use mcapi::types::DeliveryModel;

/// Configuration for the stateless search.
#[derive(Clone, Copy, Debug)]
pub struct SleepConfig {
    pub model: DeliveryModel,
    /// Disable the sleep-set pruning (naive full enumeration baseline).
    pub use_sleep_sets: bool,
    /// Keep only the canonical (lexicographically least) linearisation of
    /// each trace class — a stronger prune than sleep sets that composes
    /// with them.
    pub use_canonical: bool,
    /// Abort after this many executions.
    pub max_executions: usize,
    /// Record every complete execution's schedule word in
    /// [`ExploreResult::schedules`] (test instrumentation).
    pub track_schedules: bool,
}

impl Default for SleepConfig {
    fn default() -> Self {
        SleepConfig {
            model: DeliveryModel::Unordered,
            use_sleep_sets: true,
            use_canonical: false,
            max_executions: 10_000_000,
            track_schedules: false,
        }
    }
}

/// Stateless DFS with sleep sets.
pub struct SleepSetExplorer<'a> {
    program: &'a Program,
    config: SleepConfig,
}

impl<'a> SleepSetExplorer<'a> {
    pub fn new(program: &'a Program, config: SleepConfig) -> Self {
        SleepSetExplorer { program, config }
    }

    /// Conservative independence check (actions evaluated at state `s`),
    /// delegating to the shared relation in [`mcapi::canon`].
    fn independent(&self, s: &SysState, a: Action, b: Action) -> bool {
        independent(
            self.config.model,
            &summarize(self.program, s, a),
            &summarize(self.program, s, b),
        )
    }

    /// Run the enumeration.
    pub fn explore(&self) -> ExploreResult {
        let mut result = ExploreResult::default();
        let init = SysState::initial(self.program);
        let recv_counts = vec![0u16; self.program.threads.len()];
        let mut canon = CanonTracker::new(self.config.model);
        let mut word = Vec::new();
        self.dfs(
            &init,
            &[],
            &recv_counts,
            Vec::new(),
            &mut canon,
            &mut word,
            &mut result,
        );
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        state: &SysState,
        sleep: &[Action],
        recv_counts: &[u16],
        matching: Matching,
        canon: &mut CanonTracker,
        word: &mut Vec<Action>,
        result: &mut ExploreResult,
    ) {
        if result.complete_terminals + result.deadlocks + result.violations.len()
            >= self.config.max_executions
        {
            result.truncated = true;
            return;
        }
        result.states += 1;
        let enabled = state.enabled_actions(self.program, self.config.model);
        if enabled.is_empty() {
            if let Some(v) = &state.violation {
                result.push_violation(v.clone());
            } else if state.all_done(self.program) {
                result.complete_terminals += 1;
                result.matchings.insert(matching);
                if self.config.track_schedules {
                    result.schedules.insert(word.clone());
                }
            } else {
                result.deadlocks += 1;
            }
            return;
        }
        let mut explored: Vec<Action> = Vec::new();
        for &action in &enabled {
            if self.config.use_sleep_sets && sleep.contains(&action) {
                continue;
            }
            // The canonical prune composes after the sleep check (both are
            // word-based; either alone is sound, together they keep
            // exactly the normal-form survivors of the sleep search).
            let summary = if self.config.use_canonical {
                let s = summarize(self.program, state, action);
                if !canon.is_canonical_extension(action, &s) {
                    result.canonical_skipped += 1;
                    continue;
                }
                Some(s)
            } else {
                None
            };
            let (next, _ev) = state.apply(self.program, action, self.config.model);
            result.transitions += 1;
            // Child sleep set: surviving members are those independent of
            // the chosen action.
            let child_sleep: Vec<Action> = if self.config.use_sleep_sets {
                sleep
                    .iter()
                    .chain(explored.iter())
                    .copied()
                    .filter(|&b| self.independent(state, action, b))
                    .collect()
            } else {
                Vec::new()
            };
            let mut counts = recv_counts.to_vec();
            let mut m = matching.clone();
            if let Some(msg) = action.message() {
                let t = action.thread();
                let key = RecvKey::new(t, counts[t] as usize);
                counts[t] += 1;
                let pos = m.partition_point(|(k, _)| *k < key);
                m.insert(pos, (key, msg));
            }
            if let Some(s) = summary {
                canon.push(action, s);
            }
            word.push(action);
            self.dfs(&next, &child_sleep, &counts, m, canon, word, result);
            word.pop();
            if summary.is_some() {
                canon.pop();
            }
            explored.push(action);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{ExploreConfig, GraphExplorer};
    use mcapi::builder::ProgramBuilder;

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

    fn naive(p: &Program, model: DeliveryModel) -> ExploreResult {
        let cfg = SleepConfig {
            model,
            use_sleep_sets: false,
            ..Default::default()
        };
        SleepSetExplorer::new(p, cfg).explore()
    }

    fn reduced(p: &Program, model: DeliveryModel) -> ExploreResult {
        let cfg = SleepConfig {
            model,
            use_sleep_sets: true,
            ..Default::default()
        };
        SleepSetExplorer::new(p, cfg).explore()
    }

    #[test]
    fn sleep_sets_preserve_matchings_on_fig1() {
        let p = fig1();
        for model in DeliveryModel::ALL {
            let full = naive(&p, model);
            let red = reduced(&p, model);
            assert_eq!(full.matchings, red.matchings, "model {model}");
            assert_eq!(full.violations, red.violations);
            assert_eq!(full.deadlocks > 0, red.deadlocks > 0);
        }
    }

    #[test]
    fn sleep_sets_reduce_execution_count() {
        let p = fig1();
        let full = naive(&p, DeliveryModel::Unordered);
        let red = reduced(&p, DeliveryModel::Unordered);
        assert!(
            red.complete_terminals < full.complete_terminals,
            "sleep sets should prune: {} vs {}",
            red.complete_terminals,
            full.complete_terminals
        );
    }

    #[test]
    fn agrees_with_graph_explorer_on_matchings() {
        let p = fig1();
        for model in DeliveryModel::ALL {
            let graph = GraphExplorer::new(&p, ExploreConfig::with_model(model)).explore();
            let red = reduced(&p, model);
            assert_eq!(graph.matchings, red.matchings, "model {model}");
        }
    }

    #[test]
    fn violation_detection_matches_naive() {
        use mcapi::expr::{Cond, Expr};
        use mcapi::types::CmpOp;
        let mut b = ProgramBuilder::new("race-assert");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let a = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)),
            "a==1",
        );
        b.send_const(t1, t0, 0, 1);
        b.send_const(t2, t0, 0, 2);
        let p = b.build().unwrap();
        let full = naive(&p, DeliveryModel::Unordered);
        let red = reduced(&p, DeliveryModel::Unordered);
        assert!(full.found_violation());
        assert!(red.found_violation());
    }

    fn with_schedules(
        p: &Program,
        model: DeliveryModel,
        sleep: bool,
        canon: bool,
    ) -> ExploreResult {
        let cfg = SleepConfig {
            model,
            use_sleep_sets: sleep,
            use_canonical: canon,
            track_schedules: true,
            ..Default::default()
        };
        SleepSetExplorer::new(p, cfg).explore()
    }

    #[test]
    fn canonical_agrees_with_naive_on_verdicts_and_matchings() {
        let p = fig1();
        for model in DeliveryModel::ALL {
            let full = naive(&p, model);
            let canon = with_schedules(&p, model, false, true);
            assert_eq!(full.matchings, canon.matchings, "model {model}");
            assert_eq!(full.violations, canon.violations);
            assert_eq!(full.deadlocks > 0, canon.deadlocks > 0);
        }
    }

    #[test]
    fn canonical_schedules_are_a_subset_of_sleep_set_survivors() {
        // Ascending exploration order + the same independence relation
        // means a schedule taking a sleeping action cannot be in normal
        // form: canonical ⊆ sleep-set-surviving, with or without sleep
        // sets also enabled.
        let p = fig1();
        for model in DeliveryModel::ALL {
            let sleep = with_schedules(&p, model, true, false);
            let canon_only = with_schedules(&p, model, false, true);
            let composed = with_schedules(&p, model, true, true);
            assert!(
                canon_only.schedules.is_subset(&sleep.schedules),
                "model {model}: canonical must refine sleep sets"
            );
            assert_eq!(
                composed.schedules, canon_only.schedules,
                "model {model}: composing sleep sets must not change the survivors"
            );
            assert!(
                composed.complete_terminals <= sleep.complete_terminals,
                "model {model}"
            );
        }
    }

    #[test]
    fn canonical_alone_matches_the_sleep_set_reduction_on_fig1() {
        // Both prunes keep one linearisation per trace class on an
        // acyclic space, so the canonical filter alone reaches the
        // sleep-set execution count — and prunes well below the naive
        // enumeration.
        let p = fig1();
        let full = naive(&p, DeliveryModel::Unordered);
        let sleep = with_schedules(&p, DeliveryModel::Unordered, true, false);
        let canon = with_schedules(&p, DeliveryModel::Unordered, false, true);
        assert!(canon.canonical_skipped > 0);
        assert!(canon.matchings.len() <= canon.complete_terminals);
        assert!(
            canon.complete_terminals < full.complete_terminals,
            "canonical must prune the naive enumeration: {} vs {}",
            canon.complete_terminals,
            full.complete_terminals
        );
        assert_eq!(
            canon.complete_terminals, sleep.complete_terminals,
            "one representative per class either way"
        );
    }

    #[test]
    fn truncation_flag_respected() {
        let p = fig1();
        let cfg = SleepConfig {
            max_executions: 1,
            ..Default::default()
        };
        let r = SleepSetExplorer::new(&p, cfg).explore();
        assert!(r.truncated);
    }
}
