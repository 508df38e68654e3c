//! Scope-invariant property tests for the incremental solver.
//!
//! Random interleavings of `push_scope` / `pop_scope` / `check_assuming`
//! are replayed against the brute-force oracle on the *currently live*
//! assertion set, checking three invariants the session layer's reuse
//! savings depend on:
//!
//! 1. every verdict (scoped or assumption-driven) matches the oracle on
//!    exactly the assertions visible at that moment;
//! 2. popping a scope restores the previous verdict — clauses loaded
//!    behind a selector stop constraining anything once it retires;
//! 3. learned clauses survive pops (selector guarding makes them
//!    scope-safe), so the learnt-clause count never shrinks across a pop.

mod common;

use common::naive::brute_force_check;
use proptest::prelude::*;
use smt::{SatResult, SmtSolver, TermId, TermPool};

/// One step of a random incremental-session script.
#[derive(Clone, Debug)]
enum Op {
    /// Open a scope and assert the given constraints inside it.
    Push(Vec<C>),
    /// Close the innermost scope (no-op at depth 0).
    Pop,
    /// Permanently assert at the current scope depth.
    Assert(C),
    /// `check_assuming` with these constraints as assumptions.
    CheckAssuming(Vec<C>),
    /// Plain `check`.
    Check,
}

/// A tiny constraint over 3 int vars and 2 bool vars, mirrored into both
/// the real solver and the oracle pool.
#[derive(Clone, Copy, Debug)]
enum C {
    /// `x - y <= c`.
    Le(u8, u8, i64),
    /// `x - y > c` (negated difference bound).
    Gt(u8, u8, i64),
    /// A Boolean variable or its negation.
    B(u8, bool),
    /// `b -> (x - y <= c)`.
    BImp(u8, u8, u8, i64),
}

const N_INT: usize = 3;
const N_BOOL: usize = 2;

fn arb_c() -> impl Strategy<Value = C> {
    prop_oneof![
        (0u8..N_INT as u8, 0u8..N_INT as u8, -3i64..4).prop_map(|(x, y, c)| C::Le(x, y, c)),
        (0u8..N_INT as u8, 0u8..N_INT as u8, -3i64..4).prop_map(|(x, y, c)| C::Gt(x, y, c)),
        (0u8..N_BOOL as u8, any::<bool>()).prop_map(|(b, pos)| C::B(b, pos)),
        (
            0u8..N_BOOL as u8,
            0u8..N_INT as u8,
            0u8..N_INT as u8,
            -3i64..4
        )
            .prop_map(|(b, x, y, c)| C::BImp(b, x, y, c)),
    ]
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(arb_c(), 1..=3).prop_map(Op::Push),
            Just(Op::Pop),
            arb_c().prop_map(Op::Assert),
            prop::collection::vec(arb_c(), 0..=2).prop_map(Op::CheckAssuming),
            Just(Op::Check),
        ],
        1..12,
    )
}

/// Builds the same constraint in a solver or an oracle pool.
struct Ctx {
    ints: Vec<TermId>,
    bools: Vec<TermId>,
}

impl Ctx {
    fn build(&self, pool: &mut TermPool, c: C) -> TermId {
        match c {
            C::Le(x, y, k) => {
                let x = self.ints[x as usize % N_INT];
                let y = self.ints[y as usize % N_INT];
                let yk = pool.add_const(y, k);
                pool.le(x, yk)
            }
            C::Gt(x, y, k) => {
                let le = self.build(pool, C::Le(x, y, k));
                pool.not(le)
            }
            C::B(b, pos) => {
                let t = self.bools[b as usize % N_BOOL];
                if pos {
                    t
                } else {
                    pool.not(t)
                }
            }
            C::BImp(b, x, y, k) => {
                let ant = self.build(pool, C::B(b, true));
                let con = self.build(pool, C::Le(x, y, k));
                pool.implies(ant, con)
            }
        }
    }
}

fn fresh_ctx(pool: &mut TermPool) -> Ctx {
    Ctx {
        ints: (0..N_INT).map(|i| pool.int_var(format!("x{i}"))).collect(),
        bools: (0..N_BOOL)
            .map(|i| pool.bool_var(format!("b{i}")))
            .collect(),
    }
}

/// Oracle verdict for a conjunction of constraints. Difference constants
/// stay in [-3, 3] and only 3 int vars exist, so bound 9 is complete.
fn oracle(cs: &[C]) -> bool {
    let mut pool = TermPool::new();
    let ctx = fresh_ctx(&mut pool);
    let terms: Vec<TermId> = cs.iter().map(|&c| ctx.build(&mut pool, c)).collect();
    brute_force_check(&pool, &terms, 9).is_some()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn scoped_sessions_match_oracle(script in arb_script()) {
        let mut s = SmtSolver::new();
        let ctx = fresh_ctx(s.pool_mut());

        // Shadow stack of live constraint frames; frame 0 is permanent.
        let mut frames: Vec<Vec<C>> = vec![Vec::new()];
        // Verdict observed at each depth before pushing deeper, to check
        // stability across pops.
        let mut verdict_at_depth: Vec<Option<bool>> = vec![None];
        let mut learnt_before_push: Vec<u64> = Vec::new();

        for op in script {
            match op {
                Op::Push(cs) => {
                    let here = oracle(&frames.concat());
                    verdict_at_depth[frames.len() - 1] = Some(here);
                    learnt_before_push.push(s.stats().learnt_clauses);
                    s.push_scope();
                    frames.push(Vec::new());
                    verdict_at_depth.push(None);
                    for c in cs {
                        let t = ctx.build(s.pool_mut(), c);
                        s.assert_term(t);
                        frames.last_mut().unwrap().push(c);
                    }
                }
                Op::Pop => {
                    if frames.len() > 1 {
                        s.pop_scope();
                        frames.pop();
                        verdict_at_depth.pop();
                        let floor = learnt_before_push.pop().unwrap();
                        let verdict = s.check();
                        // Selector-guarded learning: a pop deactivates the
                        // scope's clauses but never erases learnt ones, so
                        // (absent a database reduction, which these tiny
                        // scripts cannot trigger) the learnt count observed
                        // before the push is a floor afterwards.
                        if s.stats().reduces == 0 {
                            prop_assert!(
                                s.stats().learnt_clauses >= floor,
                                "pop erased learnt clauses: {} < {}",
                                s.stats().learnt_clauses,
                                floor
                            );
                        }
                        // Verdict stability: same live assertions, same
                        // verdict as before the push (if one was taken).
                        let expect = oracle(&frames.concat());
                        prop_assert_eq!(verdict == SatResult::Sat, expect);
                        if let Some(prev) = verdict_at_depth[frames.len() - 1] {
                            prop_assert_eq!(expect, prev, "verdict changed across push/pop");
                        }
                    }
                }
                Op::Assert(c) => {
                    let t = ctx.build(s.pool_mut(), c);
                    s.assert_term(t);
                    frames.last_mut().unwrap().push(c);
                }
                Op::CheckAssuming(asms) => {
                    let terms: Vec<TermId> =
                        asms.iter().map(|&c| ctx.build(s.pool_mut(), c)).collect();
                    let verdict = s.check_assuming(&terms);
                    let mut all = frames.concat();
                    all.extend(asms.iter().copied());
                    prop_assert_eq!(verdict == SatResult::Sat, oracle(&all));
                }
                Op::Check => {
                    let verdict = s.check();
                    prop_assert_eq!(verdict == SatResult::Sat, oracle(&frames.concat()));
                }
            }
        }

        // Unwind everything: the base frame's verdict must be intact.
        while s.num_scopes() > 0 {
            s.pop_scope();
            frames.pop();
        }
        prop_assert_eq!(s.check() == SatResult::Sat, oracle(&frames.concat()));
    }
}
