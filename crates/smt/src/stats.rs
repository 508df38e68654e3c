//! Counters reported by the SAT core and theory solver.

use serde::{Deserialize, Serialize};

/// Search statistics, cheap to copy and print.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stats {
    /// Decisions made.
    #[serde(default)]
    pub decisions: u64,
    /// Unit propagations performed.
    #[serde(default)]
    pub propagations: u64,
    /// Conflicts encountered (Boolean + theory).
    #[serde(default)]
    pub conflicts: u64,
    /// Conflicts reported by the theory solver.
    #[serde(default)]
    pub theory_conflicts: u64,
    /// Literals asserted into the theory solver.
    #[serde(default)]
    pub theory_assertions: u64,
    /// Restarts performed.
    #[serde(default)]
    pub restarts: u64,
    /// Restarts suppressed by the trail-growth blocker.
    #[serde(default)]
    pub blocked_restarts: u64,
    /// Learned-clause database reductions performed.
    #[serde(default)]
    pub reduces: u64,
    /// Learned clauses currently in the database.
    #[serde(default)]
    pub learnt_clauses: u64,
    /// Learned clauses produced over the solver's lifetime.
    #[serde(default)]
    pub learned_total: u64,
    /// Sum of learned-clause LBDs (so `sum_lbd / learned_total` is the
    /// slow glue average the restart policy compares against).
    #[serde(default)]
    pub sum_lbd: u64,
    /// Learned clauses deleted by database reduction.
    #[serde(default)]
    pub deleted_clauses: u64,
    /// Literals removed by conflict-clause minimisation.
    #[serde(default)]
    pub minimized_lits: u64,
    /// Problem clauses added.
    #[serde(default)]
    pub clauses_added: u64,
    /// `solve` calls answered (SAT checks).
    #[serde(default)]
    pub solves: u64,
    /// Assumption scopes pushed (session reuse opens one per query).
    #[serde(default)]
    pub scope_pushes: u64,
}

impl Stats {
    /// Merge counters from another run (used by portfolio mode).
    pub fn merge(&mut self, other: &Stats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.theory_conflicts += other.theory_conflicts;
        self.theory_assertions += other.theory_assertions;
        self.restarts += other.restarts;
        self.blocked_restarts += other.blocked_restarts;
        self.reduces += other.reduces;
        self.learnt_clauses += other.learnt_clauses;
        self.learned_total += other.learned_total;
        self.sum_lbd += other.sum_lbd;
        self.deleted_clauses += other.deleted_clauses;
        self.minimized_lits += other.minimized_lits;
        self.clauses_added += other.clauses_added;
        self.solves += other.solves;
        self.scope_pushes += other.scope_pushes;
    }

    /// Counters accumulated since `baseline` was snapshotted (solver stats
    /// are monotone, so this is a per-phase delta for session reuse
    /// reporting). Saturates rather than underflows if the snapshots are
    /// swapped.
    pub fn delta(&self, baseline: &Stats) -> Stats {
        Stats {
            decisions: self.decisions.saturating_sub(baseline.decisions),
            propagations: self.propagations.saturating_sub(baseline.propagations),
            conflicts: self.conflicts.saturating_sub(baseline.conflicts),
            theory_conflicts: self
                .theory_conflicts
                .saturating_sub(baseline.theory_conflicts),
            theory_assertions: self
                .theory_assertions
                .saturating_sub(baseline.theory_assertions),
            restarts: self.restarts.saturating_sub(baseline.restarts),
            blocked_restarts: self
                .blocked_restarts
                .saturating_sub(baseline.blocked_restarts),
            reduces: self.reduces.saturating_sub(baseline.reduces),
            learnt_clauses: self.learnt_clauses.saturating_sub(baseline.learnt_clauses),
            learned_total: self.learned_total.saturating_sub(baseline.learned_total),
            sum_lbd: self.sum_lbd.saturating_sub(baseline.sum_lbd),
            deleted_clauses: self
                .deleted_clauses
                .saturating_sub(baseline.deleted_clauses),
            minimized_lits: self.minimized_lits.saturating_sub(baseline.minimized_lits),
            clauses_added: self.clauses_added.saturating_sub(baseline.clauses_added),
            solves: self.solves.saturating_sub(baseline.solves),
            scope_pushes: self.scope_pushes.saturating_sub(baseline.scope_pushes),
        }
    }

    /// Report every counter into `reg` under the crate's stable metric
    /// names (`mcapi_smt_*_total`), tagged with `labels`. The SMT layer
    /// owns these names: renaming one here is an observability API change,
    /// not format drift.
    pub fn record(&self, reg: &mut metrics::Registry, labels: &[(&str, &str)]) {
        let mut c = |name: &str, help: &str, v: u64| reg.counter_add(name, help, labels, v);
        c(
            "mcapi_smt_decisions_total",
            "SAT decisions made",
            self.decisions,
        );
        c(
            "mcapi_smt_propagations_total",
            "Unit propagations performed",
            self.propagations,
        );
        c(
            "mcapi_smt_conflicts_total",
            "Conflicts encountered (Boolean + theory)",
            self.conflicts,
        );
        c(
            "mcapi_smt_theory_conflicts_total",
            "Conflicts reported by the theory solver",
            self.theory_conflicts,
        );
        c(
            "mcapi_smt_theory_assertions_total",
            "Literals asserted into the theory solver",
            self.theory_assertions,
        );
        c(
            "mcapi_smt_restarts_total",
            "Restarts performed",
            self.restarts,
        );
        c(
            "mcapi_smt_blocked_restarts_total",
            "Restarts suppressed by the trail-growth blocker",
            self.blocked_restarts,
        );
        c(
            "mcapi_smt_reduces_total",
            "Learned-clause database reductions",
            self.reduces,
        );
        c(
            "mcapi_smt_learned_clauses_total",
            "Learned clauses produced",
            self.learned_total,
        );
        c(
            "mcapi_smt_deleted_clauses_total",
            "Learned clauses deleted by database reduction",
            self.deleted_clauses,
        );
        c(
            "mcapi_smt_minimized_literals_total",
            "Literals removed by conflict-clause minimisation",
            self.minimized_lits,
        );
        c(
            "mcapi_smt_clauses_added_total",
            "Problem clauses added",
            self.clauses_added,
        );
        c(
            "mcapi_smt_solves_total",
            "solve calls answered (SAT checks)",
            self.solves,
        );
        c(
            "mcapi_smt_scope_pushes_total",
            "Assumption scopes pushed",
            self.scope_pushes,
        );
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={} (theory {}) restarts={} (blocked {}) learnt={} deleted={} reduces={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.theory_conflicts,
            self.restarts,
            self.blocked_restarts,
            self.learnt_clauses,
            self.deleted_clauses,
            self.reduces,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Stats {
            decisions: 1,
            conflicts: 2,
            ..Default::default()
        };
        let b = Stats {
            decisions: 10,
            conflicts: 20,
            restarts: 3,
            scope_pushes: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.decisions, 11);
        assert_eq!(a.conflicts, 22);
        assert_eq!(a.restarts, 3);
        assert_eq!(a.scope_pushes, 4);
    }

    #[test]
    fn delta_covers_restart_and_reduction_counters() {
        let base = Stats {
            restarts: 2,
            blocked_restarts: 1,
            reduces: 1,
            learned_total: 10,
            sum_lbd: 30,
            scope_pushes: 5,
            ..Default::default()
        };
        let now = Stats {
            restarts: 5,
            blocked_restarts: 4,
            reduces: 2,
            learned_total: 25,
            sum_lbd: 80,
            scope_pushes: 9,
            ..Default::default()
        };
        let d = now.delta(&base);
        assert_eq!(d.restarts, 3);
        assert_eq!(d.blocked_restarts, 3);
        assert_eq!(d.reduces, 1);
        assert_eq!(d.learned_total, 15);
        assert_eq!(d.sum_lbd, 50);
        assert_eq!(d.scope_pushes, 4);
        // Swapped snapshots saturate instead of underflowing.
        assert_eq!(base.delta(&now).sum_lbd, 0);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = Stats {
            decisions: 5,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("decisions=5"));
        assert!(text.contains("conflicts="));
    }

    #[test]
    fn json_roundtrip_preserves_counters() {
        let s = Stats {
            conflicts: 7,
            propagations: 11,
            scope_pushes: 3,
            ..Default::default()
        };
        let v = serde::Serialize::to_value(&s);
        let back: Stats = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back.conflicts, 7);
        assert_eq!(back.propagations, 11);
        assert_eq!(back.scope_pushes, 3);
    }

    #[test]
    fn record_reports_stable_metric_names() {
        let s = Stats {
            conflicts: 2,
            propagations: 6,
            scope_pushes: 1,
            ..Default::default()
        };
        let mut reg = metrics::Registry::new();
        s.record(&mut reg, &[("engine", "symbolic")]);
        s.record(&mut reg, &[("engine", "symbolic")]);
        assert_eq!(
            reg.counter_value("mcapi_smt_conflicts_total", &[("engine", "symbolic")]),
            Some(4)
        );
        assert_eq!(
            reg.counter_value("mcapi_smt_scope_pushes_total", &[("engine", "symbolic")]),
            Some(2)
        );
    }
}
