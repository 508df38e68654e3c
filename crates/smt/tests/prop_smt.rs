//! Property-based differential tests: the DPLL(T) solver against
//! brute-force enumeration and the Floyd–Warshall feasibility oracle.

mod common;

use common::naive::{brute_force_check, difference_feasible};
use proptest::prelude::*;
use smt::{SatResult, SmtSolver, TermId};

/// A small random formula AST we can build into any solver.
#[derive(Clone, Debug)]
enum F {
    Lit(bool),
    Cmp(u8, u8, u8, i64), // op, var_a, var_b, const offset
    BoolVar(u8),
    Not(Box<F>),
    And(Box<F>, Box<F>),
    Or(Box<F>, Box<F>),
    Implies(Box<F>, Box<F>),
    Iff(Box<F>, Box<F>),
}

fn leaf() -> impl Strategy<Value = F> {
    prop_oneof![
        any::<bool>().prop_map(F::Lit),
        (0u8..6, 0u8..3, 0u8..3, -3i64..4).prop_map(|(op, a, b, c)| F::Cmp(op, a, b, c)),
        (0u8..2).prop_map(F::BoolVar),
    ]
}

fn formula() -> impl Strategy<Value = F> {
    leaf().prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| F::Not(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Implies(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| F::Iff(Box::new(a), Box::new(b))),
        ]
    })
}

fn build(f: &F, s: &mut SmtSolver, ints: &[TermId], bools: &[TermId]) -> TermId {
    match f {
        F::Lit(true) => s.tru(),
        F::Lit(false) => s.fls(),
        F::BoolVar(i) => bools[*i as usize % bools.len()],
        F::Cmp(op, a, b, c) => {
            let ta = ints[*a as usize % ints.len()];
            let tb = ints[*b as usize % ints.len()];
            let tbc = s.add_const(tb, *c);
            match op % 6 {
                0 => s.le(ta, tbc),
                1 => s.lt(ta, tbc),
                2 => s.ge(ta, tbc),
                3 => s.gt(ta, tbc),
                4 => s.eq(ta, tbc),
                _ => s.ne(ta, tbc),
            }
        }
        F::Not(x) => {
            let t = build(x, s, ints, bools);
            s.not(t)
        }
        F::And(a, b) => {
            let ta = build(a, s, ints, bools);
            let tb = build(b, s, ints, bools);
            s.and2(ta, tb)
        }
        F::Or(a, b) => {
            let ta = build(a, s, ints, bools);
            let tb = build(b, s, ints, bools);
            s.or2(ta, tb)
        }
        F::Implies(a, b) => {
            let ta = build(a, s, ints, bools);
            let tb = build(b, s, ints, bools);
            s.implies(ta, tb)
        }
        F::Iff(a, b) => {
            let ta = build(a, s, ints, bools);
            let tb = build(b, s, ints, bools);
            s.iff(ta, tb)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Verdict parity with brute force over a bounded integer domain.
    /// Constants are in [-3, 3] and at most 3 int variables exist, so any
    /// satisfiable conjunction has a model within [-9, 9]: differences
    /// between any two variables are bounded by the largest constant chain.
    #[test]
    fn solver_matches_brute_force(fs in prop::collection::vec(formula(), 1..4)) {
        let mut s = SmtSolver::new();
        let ints: Vec<TermId> = (0..3).map(|i| s.int_var(format!("x{i}"))).collect();
        let bools: Vec<TermId> = (0..2).map(|i| s.bool_var(format!("b{i}"))).collect();
        let mut roots = Vec::new();
        for f in &fs {
            let t = build(f, &mut s, &ints, &bools);
            s.assert_term(t);
            roots.push(t);
        }
        let verdict = s.check();
        let oracle = brute_force_check(s.pool(), &roots, 9);
        match (verdict, &oracle) {
            (SatResult::Sat, Some(_)) | (SatResult::Unsat, None) => {}
            (SatResult::Sat, None) => {
                // The solver found a model outside the brute-force bound?
                // Impossible for this fragment; but verify the model anyway
                // before failing, to produce a useful message.
                let m = s.model().unwrap();
                for &r in &roots {
                    prop_assert_eq!(
                        m.eval_bool(s.pool(), r),
                        Some(true),
                        "solver SAT but model does not satisfy"
                    );
                }
                prop_assert!(false, "solver SAT, brute force UNSAT within bound");
            }
            (SatResult::Unsat, Some(m)) => {
                prop_assert!(false, "solver UNSAT but witness exists: {:?}", m.ints);
            }
            (SatResult::Unknown, _) => prop_assert!(false, "unexpected Unknown"),
        }
    }

    /// Any SAT model must actually satisfy every asserted root.
    #[test]
    fn models_satisfy_assertions(fs in prop::collection::vec(formula(), 1..5)) {
        let mut s = SmtSolver::new();
        let ints: Vec<TermId> = (0..3).map(|i| s.int_var(format!("x{i}"))).collect();
        let bools: Vec<TermId> = (0..2).map(|i| s.bool_var(format!("b{i}"))).collect();
        let mut roots = Vec::new();
        for f in &fs {
            let t = build(f, &mut s, &ints, &bools);
            s.assert_term(t);
            roots.push(t);
        }
        if s.check() == SatResult::Sat {
            let m = s.model().unwrap();
            for &r in &roots {
                prop_assert_eq!(m.eval_bool(s.pool(), r), Some(true));
            }
        }
    }

    /// Incremental solving is equivalent to batch solving.
    #[test]
    fn incremental_equals_batch(fs in prop::collection::vec(formula(), 2..5)) {
        let build_all = |solver: &mut SmtSolver| -> Vec<TermId> {
            let ints: Vec<TermId> = (0..3).map(|i| solver.int_var(format!("x{i}"))).collect();
            let bools: Vec<TermId> = (0..2).map(|i| solver.bool_var(format!("b{i}"))).collect();
            fs.iter().map(|f| build(f, solver, &ints, &bools)).collect()
        };
        // Batch: assert everything, check once.
        let mut batch = SmtSolver::new();
        for t in build_all(&mut batch) {
            batch.assert_term(t);
        }
        let batch_verdict = batch.check();
        // Incremental: check after every assertion; the last verdict must
        // match, and verdicts must be monotonically SAT -> UNSAT.
        let mut inc = SmtSolver::new();
        let roots = build_all(&mut inc);
        let mut last = SatResult::Sat;
        let mut seen_unsat = false;
        for t in roots {
            inc.assert_term(t);
            last = inc.check();
            if last == SatResult::Unsat {
                seen_unsat = true;
            } else {
                prop_assert!(!seen_unsat, "SAT after UNSAT is impossible when only adding");
            }
        }
        prop_assert_eq!(last, batch_verdict);
    }

    /// Difference-logic conjunctions against Floyd–Warshall.
    #[test]
    fn idl_conjunctions_match_floyd_warshall(
        edges in prop::collection::vec((0u32..5, 0u32..5, -5i64..6), 1..12)
    ) {
        let clean: Vec<(u32, u32, i64)> =
            edges.into_iter().filter(|(a, b, _)| a != b).collect();
        prop_assume!(!clean.is_empty());
        let mut s = SmtSolver::new();
        let vars: Vec<TermId> = (0..5).map(|i| s.int_var(format!("v{i}"))).collect();
        for &(a, b, c) in &clean {
            // v_a - v_b <= c
            let diff = s.sub(vars[a as usize], vars[b as usize]);
            let k = s.int_const(c);
            let t = s.le(diff, k);
            s.assert_term(t);
        }
        let verdict = s.check();
        let feasible = difference_feasible(5, &clean);
        prop_assert_eq!(verdict == SatResult::Sat, feasible);
    }

    /// check_assuming never changes the permanent assertion set.
    #[test]
    fn assumptions_are_transient(f1 in formula(), f2 in formula()) {
        let mut s = SmtSolver::new();
        let ints: Vec<TermId> = (0..3).map(|i| s.int_var(format!("x{i}"))).collect();
        let bools: Vec<TermId> = (0..2).map(|i| s.bool_var(format!("b{i}"))).collect();
        let t1 = build(&f1, &mut s, &ints, &bools);
        let t2 = build(&f2, &mut s, &ints, &bools);
        s.assert_term(t1);
        let before = s.check();
        let _ = s.check_assuming(&[t2]);
        let after = s.check();
        prop_assert_eq!(before, after);
    }
}
