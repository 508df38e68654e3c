//! Property tests of the pure SAT core: random CNFs checked against
//! brute-force enumeration, DIMACS round-trips, and model validity.

mod common;

use common::dimacs::Cnf;
use proptest::prelude::*;
use smt::sat::SolveResult;

/// Random CNF over `nv` variables: literals are nonzero ints in ±nv.
fn arb_cnf() -> impl Strategy<Value = Cnf> {
    (2usize..9).prop_flat_map(|nv| {
        prop::collection::vec(
            prop::collection::vec(
                (1..=nv as i32, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v }),
                1..4,
            ),
            1..16,
        )
        .prop_map(move |clauses| Cnf {
            num_vars: nv,
            clauses,
        })
    })
}

/// Brute-force SAT check.
fn brute_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars;
    (0..(1u32 << n)).any(|bits| {
        cnf.clauses.iter().all(|c| {
            c.iter().any(|&l| {
                let v = (l.unsigned_abs() - 1) as usize;
                let val = bits >> v & 1 == 1;
                if l > 0 {
                    val
                } else {
                    !val
                }
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Verdict parity with brute force.
    #[test]
    fn cdcl_matches_brute_force(cnf in arb_cnf()) {
        let (verdict, _) = cnf.solve();
        let expected = brute_sat(&cnf);
        prop_assert_eq!(verdict == SolveResult::Sat, expected);
    }

    /// Any SAT model satisfies every clause.
    #[test]
    fn models_are_valid(cnf in arb_cnf()) {
        let (verdict, model) = cnf.solve();
        if verdict == SolveResult::Sat {
            let model = model.unwrap();
            for c in &cnf.clauses {
                prop_assert!(
                    c.iter().any(|l| model.contains(l)),
                    "clause {:?} unsatisfied by {:?}", c, model
                );
            }
        }
    }

    /// DIMACS serialisation round-trips and preserves the verdict.
    #[test]
    fn dimacs_roundtrip_preserves_verdict(cnf in arb_cnf()) {
        let text = cnf.to_dimacs();
        let back = Cnf::parse(&text).unwrap();
        prop_assert_eq!(&back, &cnf);
        prop_assert_eq!(back.solve().0, cnf.solve().0);
    }
}
