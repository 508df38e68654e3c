//! The exploration result record and its metric names.

use mcapi::trace::Violation;

use std::collections::BTreeSet;

// Re-exported so downstream code can name these through either crate.
pub use mcapi::types::{Matching, RecvKey};

/// Aggregate exploration outcome.
#[derive(Clone, Debug, Default)]
pub struct ExploreResult {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions applied.
    pub transitions: usize,
    /// Terminal states / executions in which every thread finished.
    pub complete_terminals: usize,
    /// Deadlocked terminal states (not complete, no violation).
    pub deadlocks: usize,
    /// Distinct assertion violations reached.
    pub violations: Vec<Violation>,
    /// Distinct complete matchings observed on terminated executions.
    pub matchings: BTreeSet<Matching>,
    /// Schedule extensions pruned by the Mazurkiewicz normal-form test
    /// (zero unless canonical pruning is enabled; see [`mcapi::canon`]).
    pub canonical_skipped: u64,
    /// Exploration stopped early (state, depth or time limit).
    pub truncated: bool,
    /// The stop was the time budget ([`crate::ExploreConfig::budget_ms`]).
    pub out_of_time: bool,
}

impl ExploreResult {
    /// Did any execution violate an assertion?
    pub fn found_violation(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Record a violation, deduplicating.
    pub fn push_violation(&mut self, v: Violation) {
        if !self.violations.contains(&v) {
            self.violations.push(v);
        }
    }
}

/// The explicit layer's headline counters under their stable metric
/// names, for the portfolio driver's reporter (which keeps only
/// states/transitions per scenario).
pub fn record_exploration_counters(
    reg: &mut metrics::Registry,
    labels: &[(&str, &str)],
    states: u64,
    transitions: u64,
    canonical_skipped: u64,
) {
    reg.counter_add(
        "mcapi_explicit_states_total",
        "Distinct states visited or prefixes executed",
        labels,
        states,
    );
    reg.counter_add(
        "mcapi_explicit_transitions_total",
        "Transitions applied",
        labels,
        transitions,
    );
    reg.counter_add(
        "mcapi_explicit_schedules_canonical_skipped_total",
        "Schedule extensions pruned by the Mazurkiewicz normal-form test",
        labels,
        canonical_skipped,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_key_ordering_is_thread_major() {
        let a = RecvKey::new(0, 5);
        let b = RecvKey::new(1, 0);
        assert!(a < b);
        assert!(RecvKey::new(1, 0) < RecvKey::new(1, 1));
    }

    #[test]
    fn violations_deduplicate() {
        let mut r = ExploreResult::default();
        let v = Violation {
            thread: 0,
            pc: 1,
            message: "m".into(),
        };
        r.push_violation(v.clone());
        r.push_violation(v);
        assert_eq!(r.violations.len(), 1);
        assert!(r.found_violation());
    }
}
