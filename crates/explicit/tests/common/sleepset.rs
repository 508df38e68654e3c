//! Stateless execution enumeration with sleep-set partial-order reduction,
//! kept as an independent reference for `GraphExplorer`.
//!
//! This is the Inspect-style baseline the paper situates itself against
//! (via Fusion's comparison with Inspect): depth-first enumeration of
//! executions — no state hashing — pruned with Godefroid's sleep sets.
//! Sleep sets preserve at least one linearisation of every Mazurkiewicz
//! trace, so safety verdicts (assertion violations, deadlocks) and the set
//! of complete matchings are identical to the naive enumeration, at a
//! fraction of the executions. No front end ships it: the tests in this
//! directory compare the graph search against it.
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
//! sleep-set survivors (asserted in `tests/sleepset.rs`), with exactly one
//! execution left per class.

use explicit::{ExploreResult, Matching, RecvKey};
use mcapi::canon::{independent, summarize, CanonTracker};
use mcapi::program::Program;
use mcapi::state::{Action, SysState};
use mcapi::types::DeliveryModel;
use std::collections::BTreeSet;

/// The schedule words of complete executions.
pub type Schedules = BTreeSet<Vec<Action>>;

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
}

impl Default for SleepConfig {
    fn default() -> Self {
        SleepConfig {
            model: DeliveryModel::Unordered,
            use_sleep_sets: true,
            use_canonical: false,
            max_executions: 10_000_000,
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
        self.run(None)
    }

    /// Run the enumeration and also return every complete execution's
    /// schedule word.
    pub fn explore_with_schedules(&self) -> (ExploreResult, Schedules) {
        let mut schedules = Schedules::new();
        let result = self.run(Some(&mut schedules));
        (result, schedules)
    }

    fn run(&self, schedules: Option<&mut Schedules>) -> ExploreResult {
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
            schedules,
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
        mut schedules: Option<&mut Schedules>,
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
                if let Some(schedules) = schedules {
                    schedules.insert(word.clone());
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
            self.dfs(
                &next,
                &child_sleep,
                &counts,
                m,
                canon,
                word,
                result,
                schedules.as_deref_mut(),
            );
            word.pop();
            if summary.is_some() {
                canon.pop();
            }
            explored.push(action);
        }
    }
}
