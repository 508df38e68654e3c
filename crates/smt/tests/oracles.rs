//! Tests of the brute-force oracles in `common/` themselves, so a
//! differential failure elsewhere in this directory can be trusted to be
//! the solver's fault. `idl_naive` holds the differential of the eager
//! Bellman–Ford theory against the incremental `smt::idl::Idl`.

mod common;

mod naive {
    use crate::common::naive::{brute_force_check, difference_feasible};
    use smt::TermPool;

    #[test]
    fn brute_force_finds_simple_model() {
        let mut p = TermPool::new();
        let x = p.int_var("x");
        let y = p.int_var("y");
        let lt = p.lt(x, y);
        let m = brute_force_check(&p, &[lt], 2).expect("satisfiable");
        assert!(m.ints[0] < m.ints[1]);
    }

    #[test]
    fn brute_force_detects_unsat() {
        let mut p = TermPool::new();
        let x = p.int_var("x");
        let y = p.int_var("y");
        let lt = p.lt(x, y);
        let gt = p.gt(x, y);
        assert!(brute_force_check(&p, &[lt, gt], 3).is_none());
    }

    #[test]
    fn brute_force_with_bools() {
        let mut p = TermPool::new();
        let b = p.bool_var("b");
        let nb = p.not(b);
        assert!(brute_force_check(&p, &[b], 0).is_some());
        assert!(brute_force_check(&p, &[b, nb], 0).is_none());
    }

    #[test]
    fn fw_feasible_chain() {
        // x0 < x1 < x2: x0 - x1 <= -1, x1 - x2 <= -1.
        assert!(difference_feasible(3, &[(0, 1, -1), (1, 2, -1)]));
    }

    #[test]
    fn fw_negative_cycle() {
        // x0 < x1 and x1 < x0.
        assert!(!difference_feasible(2, &[(0, 1, -1), (1, 0, -1)]));
    }

    #[test]
    fn fw_zero_cycle_ok() {
        assert!(difference_feasible(2, &[(0, 1, 0), (1, 0, 0)]));
    }
}

mod dimacs {
    use crate::common::dimacs::Cnf;
    use smt::sat::SolveResult;

    #[test]
    fn parse_simple_instance() {
        let text = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
        let cnf = Cnf::parse(text).unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses, vec![vec![1, -2], vec![2, 3]]);
    }

    #[test]
    fn parse_multiline_clause() {
        let text = "p cnf 2 1\n1\n-2\n0\n";
        let cnf = Cnf::parse(text).unwrap();
        assert_eq!(cnf.clauses, vec![vec![1, -2]]);
    }

    #[test]
    fn parse_without_header_infers_vars() {
        let cnf = Cnf::parse("1 2 0\n-3 0\n").unwrap();
        assert_eq!(cnf.num_vars, 3);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cnf::parse("p cnf x y\n").is_err());
        let e = Cnf::parse("c ok\n1 zz 0\n").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn roundtrip() {
        let cnf = Cnf {
            num_vars: 3,
            clauses: vec![vec![1, -2], vec![2, 3]],
        };
        let text = cnf.to_dimacs();
        let back = Cnf::parse(&text).unwrap();
        assert_eq!(back, cnf);
    }

    #[test]
    fn solve_sat_instance_model_satisfies() {
        let cnf = Cnf::parse("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n").unwrap();
        let (res, model) = cnf.solve();
        assert_eq!(res, SolveResult::Sat);
        let model = model.unwrap();
        for c in &cnf.clauses {
            assert!(
                c.iter().any(|&l| model.contains(&l)),
                "clause {c:?} unsatisfied"
            );
        }
    }

    #[test]
    fn solve_unsat_instance() {
        let cnf = Cnf::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        assert_eq!(cnf.solve().0, SolveResult::Unsat);
    }
}

mod idl_naive {
    use crate::common::idl_naive::NaiveIdl;
    use smt::idl::Idl;
    use smt::sat::Theory;
    use smt::{DiffAtom, Lit, Var};

    fn lit(n: u32) -> Lit {
        Var(n).pos()
    }

    #[test]
    fn detects_two_edge_cycle() {
        let mut t = NaiveIdl::new();
        t.register_atom(Var(0), DiffAtom { x: 1, y: 2, c: -1 });
        t.register_atom(Var(1), DiffAtom { x: 2, y: 1, c: -1 });
        assert!(t.assert_true(lit(0)).is_ok());
        let e = t.assert_true(lit(1)).unwrap_err();
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn consistent_chain_has_model() {
        let mut t = NaiveIdl::new();
        t.register_atom(Var(0), DiffAtom { x: 1, y: 2, c: -1 });
        t.register_atom(Var(1), DiffAtom { x: 2, y: 3, c: -1 });
        assert!(t.assert_true(lit(0)).is_ok());
        assert!(t.assert_true(lit(1)).is_ok());
        assert!(t.value_of(1) - t.value_of(2) <= -1);
        assert!(t.value_of(2) - t.value_of(3) <= -1);
    }

    #[test]
    fn backtracking_truncates_edges() {
        let mut t = NaiveIdl::new();
        t.register_atom(Var(0), DiffAtom { x: 1, y: 2, c: 0 });
        assert!(t.assert_true(lit(0)).is_ok());
        t.new_level();
        t.register_atom(Var(1), DiffAtom { x: 2, y: 1, c: -5 });
        assert!(t.assert_true(lit(1)).is_err());
        t.backtrack_to(0);
        assert_eq!(t.num_edges(), 1);
    }

    /// Differential: NaiveIdl and the incremental Idl give the same
    /// verdict on every step of random assertion sequences, and both keep
    /// a model of what they accepted.
    #[test]
    fn differential_against_incremental() {
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..100 {
            let n_atoms = 2 + (next() % 10) as usize;
            let n_vars = 2 + (next() % 4) as u32;
            let mut inc = Idl::new();
            let mut naive = NaiveIdl::new();
            let mut atoms = Vec::new();
            for i in 0..n_atoms {
                let x = 1 + (next() % n_vars as u64) as u32;
                let mut y = 1 + (next() % n_vars as u64) as u32;
                if x == y {
                    y = y % n_vars + 1;
                }
                let c = (next() % 9) as i64 - 4;
                let atom = DiffAtom { x, y, c };
                inc.register_atom(Var(i as u32), atom);
                naive.register_atom(Var(i as u32), atom);
                atoms.push(atom);
            }
            let mut bounds = Vec::new();
            for (i, &atom) in atoms.iter().enumerate() {
                let positive = next() % 2 == 0;
                let l = Var(i as u32).lit(positive);
                let a = inc.assert_true(l);
                let b = naive.assert_true(l);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "round {round} atom {i}: incremental {a:?} vs naive {b:?}"
                );
                if a.is_err() {
                    break;
                }
                bounds.push(if positive { atom } else { atom.complement() });
                // Both keep a model of everything asserted so far.
                for d in &bounds {
                    assert!(
                        inc.value_of(d.x) - inc.value_of(d.y) <= d.c,
                        "round {round}: incremental model violates {d:?}"
                    );
                    assert!(
                        naive.value_of(d.x) - naive.value_of(d.y) <= d.c,
                        "round {round}: naive model violates {d:?}"
                    );
                }
            }
        }
    }
}
