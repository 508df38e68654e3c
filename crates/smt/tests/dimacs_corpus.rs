//! Golden regression corpus: small DIMACS instances with known verdicts.
//!
//! The corpus pins the CDCL core's behaviour on hand-picked shapes —
//! planted satisfiable 3-SAT, propagation-only chains, underconstrained
//! wide clauses, an odd inequality ring, and three pigeonhole instances
//! (the 6-into-5 one is the learning stress case: it forces
//! hundreds of conflicts and a deep learnt-clause stack, the shape that
//! historically exposed first-UIP and watch-list bugs during the
//! Glucose-class rewrite; the 7-into-6 one is long enough that the
//! dynamic restart policy provably fires). Besides verdicts, the test
//! checks that every
//! SAT answer carries a clause-validating model and that the `Stats`
//! counters a solve leaves behind are internally consistent.

mod common;

use common::dimacs::Cnf;
use smt::sat::{SatSolver, SolveResult};
use smt::{LBool, Lit, Stats, Var};

const CORPUS: &[(&str, &str, bool)] = &[
    (
        "sat_planted_20.cnf",
        include_str!("dimacs/sat_planted_20.cnf"),
        true,
    ),
    (
        "sat_chain_units.cnf",
        include_str!("dimacs/sat_chain_units.cnf"),
        true,
    ),
    (
        "sat_wide_12.cnf",
        include_str!("dimacs/sat_wide_12.cnf"),
        true,
    ),
    (
        "unsat_php_4_3.cnf",
        include_str!("dimacs/unsat_php_4_3.cnf"),
        false,
    ),
    (
        "unsat_php_6_5.cnf",
        include_str!("dimacs/unsat_php_6_5.cnf"),
        false,
    ),
    (
        "unsat_php_7_6.cnf",
        include_str!("dimacs/unsat_php_7_6.cnf"),
        false,
    ),
    (
        "unsat_xor_ring_9.cnf",
        include_str!("dimacs/unsat_xor_ring_9.cnf"),
        false,
    ),
];

fn solve_collecting_stats(cnf: &Cnf) -> (SolveResult, SatSolver, Vec<Var>) {
    let mut s = SatSolver::new_pure();
    let vars: Vec<Var> = (0..cnf.num_vars).map(|_| s.new_var()).collect();
    for c in &cnf.clauses {
        let lits: Vec<Lit> = c
            .iter()
            .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
            .collect();
        s.add_clause(&lits);
    }
    let verdict = s.solve();
    (verdict, s, vars)
}

fn assert_stats_consistent(name: &str, st: &Stats) {
    assert_eq!(st.solves, 1, "{name}: exactly one solve recorded");
    assert!(st.clauses_added > 0, "{name}: problem clauses recorded");
    // Each conflict learns at most one clause (assumption-level conflicts
    // learn none), and unit learnts never enter the clause database.
    assert!(
        st.learned_total <= st.conflicts,
        "{name}: learned {} > conflicts {}",
        st.learned_total,
        st.conflicts
    );
    assert!(
        st.learnt_clauses + st.deleted_clauses <= st.learned_total,
        "{name}: live {} + deleted {} learnt clauses exceed lifetime total {}",
        st.learnt_clauses,
        st.deleted_clauses,
        st.learned_total
    );
    // Every learnt clause has LBD >= 1, so the glue sum bounds the count.
    assert!(
        st.sum_lbd >= st.learned_total,
        "{name}: sum_lbd {} below learned_total {}",
        st.sum_lbd,
        st.learned_total
    );
    assert_eq!(st.theory_conflicts, 0, "{name}: pure SAT has no theory");
    assert!(
        st.conflicts == 0 || st.decisions > 0 || st.propagations > 0,
        "{name}: conflicts without any search activity"
    );
}

#[test]
fn corpus_verdicts_and_stats() {
    for &(name, text, expect_sat) in CORPUS {
        let cnf = Cnf::parse(text).unwrap_or_else(|e| panic!("{name}: parse failed: {e:?}"));
        let (verdict, s, vars) = solve_collecting_stats(&cnf);
        assert_eq!(
            verdict == SolveResult::Sat,
            expect_sat,
            "{name}: verdict {verdict:?}"
        );
        if expect_sat {
            // Validate the model before trusting it; Undef (don't-care
            // elided) variables may take either value, complete with false.
            for c in &cnf.clauses {
                let sat = c.iter().any(|&l| {
                    let val = s.model_value(vars[(l.unsigned_abs() - 1) as usize]);
                    if l > 0 {
                        val == LBool::True
                    } else {
                        val != LBool::True
                    }
                });
                assert!(sat, "{name}: model leaves clause {c:?} unsatisfied");
            }
        }
        assert_stats_consistent(name, s.stats());
    }
}

#[test]
fn pigeonhole_6_5_exercises_learning() {
    let cnf = Cnf::parse(include_str!("dimacs/unsat_php_6_5.cnf")).unwrap();
    let (verdict, s, _) = solve_collecting_stats(&cnf);
    assert_eq!(verdict, SolveResult::Unsat);
    let st = s.stats();
    assert!(
        st.conflicts >= 20,
        "expected a conflict-heavy refutation, got {}",
        st.conflicts
    );
    assert!(
        st.learned_total >= 10,
        "expected clause learning, got {}",
        st.learned_total
    );
    assert!(st.propagations > st.decisions, "BCP should dominate");
}

#[test]
fn pigeonhole_7_6_fires_the_restart_policy() {
    // The 6-into-5 instance refutes before the EMA restart window closes;
    // this one is the smallest corpus member whose refutation is long
    // enough that the Glucose-style dynamic restarts actually fire, so it
    // pins the policy (and its interval sampling) against regression.
    let cnf = Cnf::parse(include_str!("dimacs/unsat_php_7_6.cnf")).unwrap();
    let (verdict, s, _) = solve_collecting_stats(&cnf);
    assert_eq!(verdict, SolveResult::Unsat);
    let st = s.stats();
    assert!(
        st.restarts > 0,
        "expected the restart EMAs to fire at least once, got {} restarts \
         over {} conflicts",
        st.restarts,
        st.conflicts
    );
    // Each restart records its conflict interval; a conflict-heavy solve
    // with restarts must leave the distribution populated.
    let intervals = s.introspect().restart_interval.count();
    assert_eq!(
        intervals, st.restarts,
        "one sampled interval per restart (got {intervals} samples for {} restarts)",
        st.restarts
    );
}

#[test]
fn chain_instance_is_pure_propagation() {
    let cnf = Cnf::parse(include_str!("dimacs/sat_chain_units.cnf")).unwrap();
    let (verdict, s, vars) = solve_collecting_stats(&cnf);
    assert_eq!(verdict, SolveResult::Sat);
    // The unit at the root forces the whole chain at level 0.
    assert_eq!(s.stats().conflicts, 0);
    for v in vars {
        assert_eq!(s.model_value(v), LBool::True);
    }
}

#[test]
fn corpus_roundtrips_through_dimacs_writer() {
    for &(name, text, _) in CORPUS {
        let cnf = Cnf::parse(text).unwrap();
        let back = Cnf::parse(&cnf.to_dimacs()).unwrap();
        assert_eq!(back, cnf, "{name}: to_dimacs/parse not a round trip");
    }
}
