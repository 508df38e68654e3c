//! Differential fuzzing of the CDCL core against the `naive` oracle.
//!
//! Every generated CNF is solved twice — once by the Glucose-class solver
//! in `sat.rs`, once by `naive::brute_force_check` over a term encoding of
//! the same formula — and the verdicts must agree. Every SAT answer is
//! additionally validated clause-by-clause before it is trusted, so a bug
//! that produced a bogus model (rather than a wrong verdict) is still
//! caught. Generators cover sparse and dense clause/variable ratios,
//! unit-heavy instances that stress propagation, and scoped/assumption
//! interleavings that stress the incremental machinery.

mod common;

use common::dimacs::Cnf;
use common::naive::brute_force_check;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use smt::sat::{SatSolver, SolveResult};
use smt::{LBool, Lit, TermPool, Var};

/// Decide a CNF with the brute-force oracle by encoding each clause as a
/// disjunction over fresh Boolean term variables.
fn oracle_sat(cnf: &Cnf) -> bool {
    let mut pool = TermPool::new();
    let vars: Vec<_> = (0..cnf.num_vars)
        .map(|i| pool.bool_var(format!("v{i}")))
        .collect();
    let clauses: Vec<_> = cnf
        .clauses
        .iter()
        .map(|c| {
            let lits: Vec<_> = c
                .iter()
                .map(|&l| {
                    let v = vars[(l.unsigned_abs() - 1) as usize];
                    if l > 0 {
                        v
                    } else {
                        pool.not(v)
                    }
                })
                .collect();
            pool.or(lits)
        })
        .collect();
    brute_force_check(&pool, &clauses, 0).is_some()
}

/// Load a CNF into a fresh pure-SAT solver.
fn load(cnf: &Cnf) -> (SatSolver, Vec<Var>) {
    let mut s = SatSolver::new_pure();
    let vars: Vec<Var> = (0..cnf.num_vars).map(|_| s.new_var()).collect();
    for c in &cnf.clauses {
        let lits: Vec<Lit> = c
            .iter()
            .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
            .collect();
        s.add_clause(&lits);
    }
    (s, vars)
}

/// Assert that the solver's model satisfies every clause. Don't-care elision
/// can leave variables unassigned in a pure-SAT model (the solver promises
/// any completion works); mirror `extract_model` by completing `Undef` to
/// `false` and check every original clause under that total assignment.
fn assert_model_valid(
    s: &SatSolver,
    vars: &[Var],
    clauses: &[Vec<i32>],
) -> Result<(), TestCaseError> {
    for c in clauses {
        let sat = c.iter().any(|&l| {
            let val = s.model_value(vars[(l.unsigned_abs() - 1) as usize]);
            if l > 0 {
                val == LBool::True
            } else {
                val != LBool::True
            }
        });
        prop_assert!(sat, "model leaves clause {c:?} unsatisfied");
    }
    Ok(())
}

/// CNFs across a spread of clause/variable ratios, from underconstrained
/// (almost surely SAT) to overconstrained (almost surely UNSAT).
fn arb_cnf_ratio() -> impl Strategy<Value = Cnf> {
    (2usize..=6, 1usize..=5).prop_flat_map(|(nv, ratio)| {
        prop::collection::vec(
            prop::collection::vec(
                (1..=nv as i32, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v }),
                1..=3,
            ),
            1..=nv * ratio,
        )
        .prop_map(move |clauses| Cnf {
            num_vars: nv,
            clauses,
        })
    })
}

/// Unit-heavy CNFs: a majority of unit clauses forcing long propagation
/// chains (and frequent top-level conflicts) through the watcher lists.
fn arb_cnf_unit_heavy() -> impl Strategy<Value = Cnf> {
    (3usize..=6).prop_flat_map(|nv| {
        let unit =
            (1..=nv as i32, any::<bool>()).prop_map(|(v, neg)| vec![if neg { -v } else { v }]);
        let wide = prop::collection::vec(
            (1..=nv as i32, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v }),
            2..=3,
        );
        (
            prop::collection::vec(unit, 2..=9),
            prop::collection::vec(wide, 0..=3),
        )
            .prop_map(move |(mut units, wides)| {
                units.extend(wides);
                Cnf {
                    num_vars: nv,
                    clauses: units,
                }
            })
    })
}

/// A base CNF plus an extra clause set to load behind a scope selector, plus
/// a raw assumption vector.
fn arb_scoped_case() -> impl Strategy<Value = (Cnf, Vec<Vec<i32>>, Vec<i32>)> {
    arb_cnf_ratio().prop_flat_map(|base| {
        let nv = base.num_vars;
        let lit = (1..=nv as i32, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
        let extra = prop::collection::vec(prop::collection::vec(lit.clone(), 1..=3), 0..=4);
        let assumptions = prop::collection::vec(lit, 0..=2);
        (Just(base), extra, assumptions)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Verdict parity with the naive oracle across clause/var ratios.
    #[test]
    fn ratio_spread_matches_oracle(cnf in arb_cnf_ratio()) {
        let (mut s, vars) = load(&cnf);
        let verdict = s.solve();
        prop_assert_eq!(verdict == SolveResult::Sat, oracle_sat(&cnf));
        if verdict == SolveResult::Sat {
            assert_model_valid(&s, &vars, &cnf.clauses)?;
        }
    }

    /// Verdict parity on unit-heavy instances.
    #[test]
    fn unit_heavy_matches_oracle(cnf in arb_cnf_unit_heavy()) {
        let (mut s, vars) = load(&cnf);
        let verdict = s.solve();
        prop_assert_eq!(verdict == SolveResult::Sat, oracle_sat(&cnf));
        if verdict == SolveResult::Sat {
            assert_model_valid(&s, &vars, &cnf.clauses)?;
        }
    }

    /// Scoped clauses + assumptions: the incremental solver must agree with
    /// the oracle on (base ∧ scoped ∧ assumptions), and again on plain base
    /// after the scope pops — learned clauses may survive but must never
    /// change verdicts.
    #[test]
    fn scoped_assumptions_match_oracle((base, extra, assumptions) in arb_scoped_case()) {
        let (mut s, vars) = load(&base);

        s.push_scope();
        for c in &extra {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
                .collect();
            s.add_clause(&lits);
        }
        let asm: Vec<Lit> = assumptions
            .iter()
            .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
            .collect();

        // Oracle formula: base ∧ extra ∧ unit(assumptions).
        let mut combined = base.clone();
        combined.clauses.extend(extra.iter().cloned());
        combined.clauses.extend(assumptions.iter().map(|&l| vec![l]));
        let verdict = s.solve_with_assumptions(&asm);
        prop_assert_eq!(verdict == SolveResult::Sat, oracle_sat(&combined));
        if verdict == SolveResult::Sat {
            let mut live = base.clauses.clone();
            live.extend(extra.iter().cloned());
            live.extend(assumptions.iter().map(|&l| vec![l]));
            assert_model_valid(&s, &vars, &live)?;
        }

        // After the pop the scoped clauses must stop constraining anything.
        s.pop_scope();
        let verdict = s.solve();
        prop_assert_eq!(verdict == SolveResult::Sat, oracle_sat(&base));
        if verdict == SolveResult::Sat {
            assert_model_valid(&s, &vars, &base.clauses)?;
        }
    }
}
