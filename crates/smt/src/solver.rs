//! The user-facing SMT solver facade: terms in, verdict and model out.
//!
//! [`SmtSolver`] owns a [`TermPool`], a [`Tseitin`] encoder and a CDCL core
//! with the difference-logic theory attached. Assertions are encoded
//! incrementally; `check` may be called repeatedly with further assertions
//! in between (the all-SAT driver in the `symbolic` crate relies on this).

use crate::atom::{theory_var_of_pool_var, DiffAtom};
use crate::cnf::{EncodeSink, Tseitin};
use crate::error::SmtError;
use crate::idl::Idl;
use crate::lit::{Lit, Var};
use crate::model::Model;
use crate::sat::{SatSolver, SolveResult};
use crate::stats::Stats;
use crate::term::{TermId, TermPool};

/// Verdict of an SMT `check`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    Sat,
    Unsat,
    /// The deadline passed, or the encoder rejected an assertion (see
    /// [`SmtSolver::encode_error`]).
    Unknown,
}

impl EncodeSink for SatSolver<Idl> {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }
    fn emit_clause(&mut self, lits: &[Lit]) {
        self.add_clause(lits);
    }
    fn register_atom(&mut self, var: Var, atom: DiffAtom) {
        self.theory_mut().register_atom(var, atom);
    }
}

/// An SMT solver for Boolean combinations of integer difference constraints.
pub struct SmtSolver {
    pool: TermPool,
    sat: SatSolver<Idl>,
    tseitin: Tseitin,
    asserted: Vec<TermId>,
    encode_error: Option<SmtError>,
    model: Option<Model>,
    /// Length of `asserted` at each open scope, for the pop-time rollback.
    scope_asserted_len: Vec<usize>,
}

impl Default for SmtSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SmtSolver {
    pub fn new() -> Self {
        SmtSolver {
            pool: TermPool::new(),
            sat: SatSolver::new(Idl::new()),
            tseitin: Tseitin::new(),
            asserted: Vec::new(),
            encode_error: None,
            model: None,
            scope_asserted_len: Vec::new(),
        }
    }

    // ----- term construction (delegates to the pool) -----

    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    pub fn pool_mut(&mut self) -> &mut TermPool {
        &mut self.pool
    }

    pub fn int_var(&mut self, name: impl Into<String>) -> TermId {
        self.pool.int_var(name)
    }

    pub fn bool_var(&mut self, name: impl Into<String>) -> TermId {
        self.pool.bool_var(name)
    }

    pub fn int_const(&mut self, c: i64) -> TermId {
        self.pool.int_const(c)
    }

    pub fn tru(&self) -> TermId {
        self.pool.tru()
    }

    pub fn fls(&self) -> TermId {
        self.pool.fls()
    }

    pub fn not(&mut self, t: TermId) -> TermId {
        self.pool.not(t)
    }

    pub fn and(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        self.pool.and(ts)
    }

    pub fn or(&mut self, ts: impl IntoIterator<Item = TermId>) -> TermId {
        self.pool.or(ts)
    }

    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.and2(a, b)
    }

    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.or2(a, b)
    }

    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.implies(a, b)
    }

    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.iff(a, b)
    }

    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        self.pool.ite(c, t, e)
    }

    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.le(a, b)
    }

    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.lt(a, b)
    }

    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.ge(a, b)
    }

    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.gt(a, b)
    }

    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.eq(a, b)
    }

    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.ne(a, b)
    }

    pub fn eq_const(&mut self, t: TermId, c: i64) -> TermId {
        self.pool.eq_const(t, c)
    }

    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.add(a, b)
    }

    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.sub(a, b)
    }

    pub fn add_const(&mut self, t: TermId, c: i64) -> TermId {
        self.pool.add_const(t, c)
    }

    /// Pretty-print a term.
    pub fn display(&self, t: TermId) -> String {
        self.pool.display(t)
    }

    // ----- assertion and solving -----

    /// Assert a Boolean term. Encoding happens immediately; errors are
    /// deferred to `check` (which then answers `Unknown`).
    pub fn assert_term(&mut self, t: TermId) {
        self.asserted.push(t);
        self.model = None;
        if self.encode_error.is_some() {
            return;
        }
        if let Err(e) = self.tseitin.assert_root(&self.pool, t, &mut self.sat) {
            self.encode_error = Some(e);
        }
    }

    /// The error that made the last `check` answer `Unknown`, if any.
    pub fn encode_error(&self) -> Option<&SmtError> {
        self.encode_error.as_ref()
    }

    /// Decide satisfiability of the asserted conjunction.
    pub fn check(&mut self) -> SatResult {
        self.check_assuming(&[])
    }

    /// Decide satisfiability under extra assumptions (Boolean terms that are
    /// not permanently asserted).
    pub fn check_assuming(&mut self, assumptions: &[TermId]) -> SatResult {
        self.model = None;
        if self.encode_error.is_some() {
            return SatResult::Unknown;
        }
        let mut lits = Vec::with_capacity(assumptions.len());
        for &t in assumptions {
            match self.tseitin.lit_for(&self.pool, t, &mut self.sat) {
                Ok(l) => lits.push(l),
                Err(e) => {
                    self.encode_error = Some(e);
                    return SatResult::Unknown;
                }
            }
        }
        let mut span = trace::span("smt.solve");
        let before = *self.sat.stats();
        let result = match self.sat.solve_with_assumptions(&lits) {
            SolveResult::Sat => {
                self.extract_model();
                SatResult::Sat
            }
            SolveResult::Unsat => SatResult::Unsat,
            SolveResult::Unknown => SatResult::Unknown,
        };
        if span.is_recording() {
            let d = self.sat.stats().delta(&before);
            span.arg("conflicts", d.conflicts)
                .arg("propagations", d.propagations)
                .arg("decisions", d.decisions)
                .arg("restarts", d.restarts)
                .arg("assumptions", lits.len() as u64)
                .arg("sat", matches!(result, SatResult::Sat) as u64);
        }
        result
    }

    fn extract_model(&mut self) {
        let n_int = self.pool.num_int_vars();
        let idl = self.sat.theory();
        let ints: Vec<i64> = (0..n_int as u32)
            .map(|i| idl.value_of(theory_var_of_pool_var(i)))
            .collect();
        // Boolean variables: read the SAT model through the Tseitin cache,
        // which maps pool bool-var indices to SAT vars. Variables the
        // encoder never saw stay at the `false` default.
        let mut bools = vec![false; self.pool.num_bool_vars()];
        for (pool_idx, sat_var) in self.tseitin.bool_vars_snapshot() {
            if let Some(b) = self.sat.model_value(sat_var).as_bool() {
                if (pool_idx as usize) < bools.len() {
                    bools[pool_idx as usize] = b;
                }
            }
        }
        let model = Model { ints, bools };
        #[cfg(debug_assertions)]
        {
            for &t in &self.asserted {
                debug_assert_ne!(
                    model.eval_bool(&self.pool, t),
                    Some(false),
                    "model does not satisfy asserted term {}",
                    self.pool.display(t)
                );
            }
        }
        self.model = Some(model);
    }

    /// The model from the last `Sat` answer.
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    /// Search statistics.
    pub fn stats(&self) -> &Stats {
        self.sat.stats()
    }

    /// Sampled search-shape distributions (see [`crate::Introspect`]).
    pub fn introspect(&self) -> &crate::Introspect {
        self.sat.introspect()
    }

    /// Size of the generated SAT problem so far.
    pub fn num_sat_vars(&self) -> usize {
        self.sat.num_vars()
    }

    pub fn num_sat_clauses(&self) -> usize {
        self.sat.num_clauses()
    }

    /// Number of distinct theory atoms created by the encoder.
    pub fn num_theory_atoms(&self) -> usize {
        self.tseitin.num_atoms()
    }

    /// Wall-clock deadline for subsequent checks: a check still searching
    /// at the deadline answers `Unknown` instead of overshooting (None =
    /// unlimited). The symbolic checker hands every check its one
    /// whole-check deadline, so no single check outlives the budget.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.sat.set_deadline(deadline);
    }

    /// Open an assertion scope: everything asserted until the matching
    /// [`SmtSolver::pop_scope`] — including blocking clauses added by
    /// [`SmtSolver::block_model_values`] — is retracted as a group at the
    /// pop, while learned clauses that do not depend on the scope survive.
    /// Used by the all-SAT and refinement drivers so per-query blocking
    /// clauses do not permanently pollute the clause database.
    ///
    /// A pop does *not* reclaim SAT variables or theory atoms created
    /// inside the scope (see [`SmtSolver::pop_scope`]). A long-lived
    /// solver that answers many similar queries should declare its
    /// variables once and vary [`SmtSolver::check_assuming`] assumptions,
    /// not declare fresh variables per scope: the latter grows the
    /// problem, and the cost of every later check, with each query.
    pub fn push_scope(&mut self) {
        self.scope_asserted_len.push(self.asserted.len());
        self.tseitin.push_scope();
        self.sat.push_scope();
    }

    /// Close the innermost scope opened by [`SmtSolver::push_scope`]: the
    /// scope's assertions and scoped clauses are retracted, but the SAT
    /// variables and theory atoms created inside it stay, so
    /// [`SmtSolver::num_sat_vars`] and [`SmtSolver::num_theory_atoms`]
    /// never shrink. The encoder forgets the scope's term-to-literal
    /// cache, so re-encoding the same term in a later scope allocates
    /// fresh SAT variables again.
    pub fn pop_scope(&mut self) {
        let n = self
            .scope_asserted_len
            .pop()
            .expect("pop_scope without matching push_scope");
        self.asserted.truncate(n);
        self.sat.pop_scope();
        self.tseitin.pop_scope();
        self.model = None;
    }

    /// Number of currently open scopes.
    pub fn num_scopes(&self) -> usize {
        self.scope_asserted_len.len()
    }

    /// Block the current model's values of the given integer terms: asserts
    /// `NOT (t1 = v1 /\ t2 = v2 /\ ...)`, the standard all-SAT step.
    ///
    /// Returns `false` if there is no current model.
    pub fn block_model_values(&mut self, terms: &[TermId]) -> bool {
        let Some(model) = self.model.clone() else {
            return false;
        };
        let mut eqs = Vec::with_capacity(terms.len());
        for &t in terms {
            let Some(v) = model.eval_int(&self.pool, t) else {
                return false;
            };
            let eq = self.eq_const(t, v);
            eqs.push(eq);
        }
        let conj = self.and(eqs);
        let blocked = self.not(conj);
        self.assert_term(blocked);
        true
    }

    /// Enumerate all distinct value tuples of `terms` across models, up to
    /// `limit`. Mutates the solver (adds blocking clauses).
    pub fn enumerate_models(&mut self, terms: &[TermId], limit: usize) -> Vec<Vec<i64>> {
        let mut found = Vec::new();
        while found.len() < limit {
            match self.check() {
                SatResult::Sat => {
                    let model = self.model.clone().expect("model after SAT");
                    let tuple: Vec<i64> = terms
                        .iter()
                        .map(|&t| model.eval_int(&self.pool, t).expect("int term"))
                        .collect();
                    found.push(tuple);
                    if !self.block_model_values(terms) {
                        break;
                    }
                }
                _ => break,
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_model() {
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let five = s.int_const(5);
        let a = s.lt(x, five);
        s.assert_term(a);
        assert_eq!(s.check(), SatResult::Sat);
        let m = s.model().unwrap();
        assert!(m.eval_bool(s.pool(), a).unwrap());
        assert!(m.ints[0] < 5);
    }

    #[test]
    fn ordering_cycle_unsat() {
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let y = s.int_var("y");
        let z = s.int_var("z");
        let c1 = s.lt(x, y);
        let c2 = s.lt(y, z);
        let c3 = s.lt(z, x);
        s.assert_term(c1);
        s.assert_term(c2);
        assert_eq!(s.check(), SatResult::Sat);
        s.assert_term(c3);
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn disjunction_forces_theory_choice() {
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let y = s.int_var("y");
        // (x < y \/ y < x) /\ x = y  is UNSAT.
        let lt = s.lt(x, y);
        let gt = s.lt(y, x);
        let either = s.or2(lt, gt);
        let eqxy = s.eq(x, y);
        s.assert_term(either);
        assert_eq!(s.check(), SatResult::Sat);
        s.assert_term(eqxy);
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn equality_constrains_model() {
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let y = s.int_var("y");
        let e = s.eq(x, y);
        let b = s.eq_const(x, 7);
        s.assert_term(e);
        s.assert_term(b);
        assert_eq!(s.check(), SatResult::Sat);
        let m = s.model().unwrap();
        assert_eq!(m.ints[0], 7);
        assert_eq!(m.ints[1], 7);
    }

    #[test]
    fn disequality_with_bounds() {
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        // 0 <= x <= 1 and x != 0 and x != 1: UNSAT over integers.
        let zero = s.int_const(0);
        let one = s.int_const(1);
        let c1 = s.ge(x, zero);
        let c2 = s.le(x, one);
        let c3 = s.ne(x, zero);
        s.assert_term(c1);
        s.assert_term(c2);
        s.assert_term(c3);
        assert_eq!(s.check(), SatResult::Sat);
        let m = s.model().unwrap();
        assert_eq!(m.ints[0], 1, "only x=1 remains");
        let c4 = s.ne(x, one);
        s.assert_term(c4);
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn bool_vars_participate() {
        let mut s = SmtSolver::new();
        let p = s.bool_var("p");
        let x = s.int_var("x");
        let three = s.int_const(3);
        let lt = s.lt(x, three);
        // p <-> (x < 3), p = true, therefore x < 3.
        let link = s.iff(p, lt);
        s.assert_term(link);
        s.assert_term(p);
        assert_eq!(s.check(), SatResult::Sat);
        let m = s.model().unwrap();
        assert!(m.ints[0] < 3);
        assert!(m.bools[0]);
    }

    #[test]
    fn check_assuming_does_not_persist() {
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let zero = s.int_const(0);
        let pos = s.gt(x, zero);
        let negt = s.lt(x, zero);
        s.assert_term(pos);
        assert_eq!(s.check_assuming(&[negt]), SatResult::Unsat);
        // The assumption is gone afterwards.
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn enumerate_models_finds_all_values() {
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let zero = s.int_const(0);
        let three = s.int_const(3);
        let c1 = s.ge(x, zero);
        let c2 = s.le(x, three);
        s.assert_term(c1);
        s.assert_term(c2);
        let mut vals: Vec<i64> = s
            .enumerate_models(&[x], 100)
            .into_iter()
            .map(|v| v[0])
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1, 2, 3]);
    }

    #[test]
    fn scoped_assertions_retract_on_pop() {
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let zero = s.int_const(0);
        let pos = s.gt(x, zero);
        s.assert_term(pos);
        s.push_scope();
        let neg = s.lt(x, zero);
        s.assert_term(neg);
        assert_eq!(s.check(), SatResult::Unsat);
        s.pop_scope();
        assert_eq!(s.check(), SatResult::Sat, "popped assertion must not leak");
        let m = s.model().unwrap();
        assert!(m.ints[0] > 0);
    }

    #[test]
    fn scoped_enumeration_leaves_no_blocks_behind() {
        // enumerate_models blocks values; run it inside a scope twice and
        // demand the same model count both times.
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let zero = s.int_const(0);
        let three = s.int_const(3);
        let c1 = s.ge(x, zero);
        let c2 = s.le(x, three);
        s.assert_term(c1);
        s.assert_term(c2);
        for round in 0..2 {
            s.push_scope();
            let vals = s.enumerate_models(&[x], 100);
            assert_eq!(vals.len(), 4, "round {round}: expected 0..=3");
            s.pop_scope();
        }
        assert_eq!(s.check(), SatResult::Sat);
    }

    #[test]
    fn terms_reencode_after_scope_pop() {
        // A term first encoded inside a scope loses its definition at the
        // pop; asserting it again afterwards must re-encode it soundly.
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let y = s.int_var("y");
        let lt = s.lt(x, y);
        let gt = s.lt(y, x);
        let either = s.or2(lt, gt); // composite: gets a scoped definition
        s.push_scope();
        s.assert_term(either);
        assert_eq!(s.check(), SatResult::Sat);
        s.pop_scope();
        // Re-assert the very same TermId permanently, then contradict it.
        s.assert_term(either);
        let eq = s.eq(x, y);
        s.assert_term(eq);
        assert_eq!(
            s.check(),
            SatResult::Unsat,
            "re-encoded disjunction lost its defining clauses"
        );
    }

    #[test]
    fn check_deadline_degrades_to_unknown() {
        // A cyclic chain hidden behind fresh Boolean guards, so deciding is
        // required (pure level-0 propagation would answer before the
        // deadline check could fire).
        let mut s = SmtSolver::new();
        let vars: Vec<TermId> = (0..40).map(|i| s.int_var(format!("d{i}"))).collect();
        for (i, w) in vars.windows(2).enumerate() {
            let c = s.lt(w[0], w[1]);
            let p = s.bool_var(format!("p{i}"));
            let np = s.not(p);
            let if_p = s.implies(p, c);
            let if_np = s.implies(np, c);
            s.assert_term(if_p);
            s.assert_term(if_np);
        }
        let back = s.lt(vars[39], vars[0]);
        s.assert_term(back);
        s.set_deadline(Some(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        ));
        assert_eq!(s.check(), SatResult::Unknown);
        s.set_deadline(None);
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn non_difference_logic_is_reported() {
        let mut s = SmtSolver::new();
        let x = s.int_var("x");
        let y = s.int_var("y");
        let sum = s.add(x, y); // x + y is outside the fragment
        let zero = s.int_const(0);
        let bad = s.le(sum, zero);
        s.assert_term(bad);
        assert_eq!(s.check(), SatResult::Unknown);
        assert!(s.encode_error().is_some());
    }

    #[test]
    fn incremental_assertions_accumulate() {
        let mut s = SmtSolver::new();
        let vars: Vec<TermId> = (0..10).map(|i| s.int_var(format!("v{i}"))).collect();
        for w in vars.windows(2) {
            let c = s.lt(w[0], w[1]);
            s.assert_term(c);
            assert_eq!(s.check(), SatResult::Sat);
        }
        // Close the cycle.
        let c = s.lt(vars[9], vars[0]);
        s.assert_term(c);
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn stacked_disjunctive_diamonds_are_sat() {
        // Per layer: prev < l < next or prev < r < next — Boolean search
        // interleaved with theory checks.
        for n in [10, 20, 40] {
            let mut s = SmtSolver::new();
            let mut prev = s.int_var("v0");
            for i in 0..n {
                let left = s.int_var(format!("l{i}"));
                let right = s.int_var(format!("r{i}"));
                let next = s.int_var(format!("v{}", i + 1));
                let a1 = s.lt(prev, left);
                let a2 = s.lt(left, next);
                let left_path = s.and2(a1, a2);
                let b1 = s.lt(prev, right);
                let b2 = s.lt(right, next);
                let right_path = s.and2(b1, b2);
                let either = s.or2(left_path, right_path);
                s.assert_term(either);
                prev = next;
            }
            assert_eq!(s.check(), SatResult::Sat, "{n} diamonds");
        }
    }

    #[test]
    fn match_lattice_is_sat() {
        // The encoder's shape: k racing sends matched by k receives with
        // pairwise-distinct identifiers.
        for k in [3, 5, 7] {
            let mut s = SmtSolver::new();
            let send_clk: Vec<_> = (0..k).map(|i| s.int_var(format!("s{i}"))).collect();
            let recv_clk: Vec<_> = (0..k).map(|i| s.int_var(format!("r{i}"))).collect();
            let ids: Vec<_> = (0..k).map(|i| s.int_var(format!("id{i}"))).collect();
            for r in 0..k {
                let mut opts = Vec::new();
                for (snd, &sc) in send_clk.iter().enumerate() {
                    let before = s.lt(sc, recv_clk[r]);
                    let bind = s.eq_const(ids[r], snd as i64);
                    opts.push(s.and2(before, bind));
                }
                let any = s.or(opts);
                s.assert_term(any);
            }
            for i in 0..k {
                for j in (i + 1)..k {
                    let d = s.ne(ids[i], ids[j]);
                    s.assert_term(d);
                }
            }
            assert_eq!(s.check(), SatResult::Sat, "k = {k}");
        }
    }

    #[test]
    fn model_respects_strict_chains() {
        let mut s = SmtSolver::new();
        let vars: Vec<TermId> = (0..6).map(|i| s.int_var(format!("c{i}"))).collect();
        for w in vars.windows(2) {
            let c = s.lt(w[0], w[1]);
            s.assert_term(c);
        }
        assert_eq!(s.check(), SatResult::Sat);
        let m = s.model().unwrap();
        for w in m.ints.windows(2) {
            assert!(w[0] < w[1], "chain violated: {:?}", m.ints);
        }
    }
}
