//! CDCL SAT solver with a DPLL(T) theory hook.
//!
//! A Glucose-class core:
//!
//! * two-watched-literal propagation with blockers over a flat clause
//!   arena ([`crate::clause`]),
//! * first-UIP conflict analysis with recursive clause minimisation,
//! * EVSIDS variable activity (decay ramping 0.8 → 0.95) with phase saving,
//! * LBD ("glue") computed at learning time, kept fresh when a learned
//!   clause is reused as a reason, and driving clause-database reduction,
//! * EMA-based dynamic restarts — a fast LBD average against the lifetime
//!   average, blocked while the assignment trail is growing — with
//!   reused-trail partial backtracking so a restart does not throw away
//!   decisions the heap would immediately redo,
//! * incremental clause addition between `solve` calls,
//! * assumption-based solving,
//! * selector-guarded clause scopes (`push_scope`/`pop_scope`),
//! * a [`Theory`] hook called for every literal assigned on the trail, so a
//!   difference-logic solver (or any other theory) can veto assignments with
//!   an explained conflict — the DPLL(T) integration used by the PPoPP'11
//!   encoding.

use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};
use crate::stats::Stats;
use std::time::Instant;

// ---- Restart and decay policy constants (Glucose-style) --------------------

/// A restart needs at least this many conflicts since the last one.
const RESTART_MIN_CONFLICTS: u64 = 50;
/// Restart when `fast_lbd_ema * RESTART_K > lifetime_lbd_average`.
const RESTART_K: f64 = 0.8;
/// Window (in conflicts) of the fast LBD exponential moving average.
const FAST_LBD_EMA_N: f64 = 32.0;
/// Window of the (much slower) assignment-trail-size EMA.
const TRAIL_EMA_N: f64 = 5000.0;
/// Block a pending restart while the trail is this much above its EMA:
/// the search is filling in a model and should not be interrupted.
const BLOCK_R: f64 = 1.4;
/// Trail blocking only engages after the trail EMA has warmed up.
const BLOCK_WARMUP: u64 = 5000;
/// Variable-activity decay factor: each conflict divides the bump
/// increment by it, so recent conflicts weigh more.
const VAR_DECAY: f64 = 0.95;

/// Outcome of a `solve` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    Sat,
    Unsat,
    /// The wall-clock deadline passed before a verdict.
    Unknown,
}

/// Response from the theory to a literal assertion.
pub type TheoryResult = Result<(), Vec<Lit>>;

/// A DPLL(T) theory. The SAT core forwards *every* literal assigned on the
/// trail (in trail order); theories ignore literals they did not register.
///
/// A conflict is reported as a non-empty set of literals that are currently
/// assigned true and jointly theory-inconsistent; the negation of that set
/// becomes a learned clause.
pub trait Theory {
    /// `lit` has been assigned true. Return `Err(explanation)` if the theory
    /// state became inconsistent; `explanation` must contain only literals
    /// already asserted true (including `lit` itself).
    fn assert_true(&mut self, lit: Lit) -> TheoryResult;

    /// A new decision level was opened.
    fn new_level(&mut self);

    /// Backtrack so that exactly `levels_remaining` decision levels remain.
    fn backtrack_to(&mut self, levels_remaining: usize);

    /// Truth value of an *unassigned* theory atom under the theory's current
    /// solution, if `v` is a registered atom. Used to complete don't-care
    /// atoms in a SAT model so the reported model is theory-consistent.
    fn value_hint(&self, _v: Var) -> Option<bool> {
        None
    }
}

/// The trivial theory: accepts everything.
#[derive(Default, Clone, Copy, Debug)]
pub struct NoTheory;

impl Theory for NoTheory {
    fn assert_true(&mut self, _lit: Lit) -> TheoryResult {
        Ok(())
    }
    fn new_level(&mut self) {}
    fn backtrack_to(&mut self, _levels_remaining: usize) {}
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Reason {
    Decision,
    Clause(ClauseRef),
}

/// One open clause scope: its selector variable and the clause-arena
/// position when it opened (everything at or past the mark that mentions
/// the negated selector belongs to the scope and is swept at the pop).
#[derive(Clone, Copy)]
struct Scope {
    sel: Var,
    db_mark: ClauseRef,
}

#[derive(Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Variable-indexed solver state.
struct VarState {
    assign: LBool,
    level: u32,
    reason: Reason,
    phase: bool,
}

impl Default for VarState {
    fn default() -> Self {
        VarState {
            assign: LBool::Undef,
            level: 0,
            reason: Reason::Decision,
            phase: false,
        }
    }
}

/// The CDCL solver, generic over its theory.
pub struct SatSolver<T: Theory = NoTheory> {
    vars: Vec<VarState>,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    theory_qhead: usize,
    ok: bool,
    theory: T,
    stats: Stats,
    /// Sampled distribution histograms (LBD, conflict depth, restart
    /// intervals); monotone like `stats`.
    introspect: crate::Introspect,
    /// Conflict count at which the next database reduction triggers.
    next_reduce: u64,
    /// Fast exponential moving average of learned-clause LBD; compared
    /// against the lifetime average (`stats.sum_lbd / stats.learned_total`)
    /// to trigger restarts when recent glue is unusually bad.
    fast_lbd_ema: f64,
    /// Slow EMA of the assignment-trail size at conflicts, for restart
    /// blocking.
    trail_ema: f64,
    /// Conflicts since the last restart (or solve entry / blocked restart).
    conflicts_since_restart: u64,
    /// Wall-clock deadline for the current/next `solve` (None = unlimited).
    deadline: Option<Instant>,
    /// Active clause scopes, outermost first. Clauses added while a scope
    /// is active carry the negated innermost selector; `solve` assumes
    /// every active selector true.
    scopes: Vec<Scope>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Variables marked in `seen` during the current analysis (for cleanup).
    marked: Vec<Var>,
    /// Per-variable occurrence lists over the clause arena, for don't-care
    /// decision elision: a variable whose every live occurrence is already
    /// satisfied cannot influence any verdict and is never branched on.
    occs: Vec<Vec<ClauseRef>>,
    /// Variables bypassed by [`SatSolver::pick_branch`] as don't-care,
    /// tagged with the decision level of the bypass so backtracking can
    /// re-enqueue exactly the ones whose justification may have gone.
    skipped: Vec<(u32, Var)>,
    model: Vec<LBool>,
    /// The assumption levels still standing on the trail from the previous
    /// `solve` call: `prev_assumptions[i]` was established as the
    /// pseudo-decision of level `i + 1`. The next solve keeps the longest
    /// common prefix with its own assumption vector instead of retreating
    /// to level 0 — the cross-check trail reuse that makes selector-guarded
    /// sessions cheap.
    prev_assumptions: Vec<Lit>,
}

impl SatSolver<NoTheory> {
    /// A pure SAT solver with no theory attached.
    pub fn new_pure() -> Self {
        SatSolver::new(NoTheory)
    }
}

impl Default for SatSolver<NoTheory> {
    fn default() -> Self {
        SatSolver::new_pure()
    }
}

impl<T: Theory> SatSolver<T> {
    pub fn new(theory: T) -> Self {
        SatSolver {
            vars: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            heap: VarHeap::new(),
            db: ClauseDb::new(),
            watches: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            theory_qhead: 0,
            ok: true,
            theory,
            stats: Stats::default(),
            introspect: crate::Introspect::default(),
            next_reduce: 2000,
            fast_lbd_ema: 0.0,
            trail_ema: 0.0,
            conflicts_since_restart: 0,
            deadline: None,
            scopes: Vec::new(),
            seen: Vec::new(),
            marked: Vec::new(),
            occs: Vec::new(),
            skipped: Vec::new(),
            model: Vec::new(),
            prev_assumptions: Vec::new(),
        }
    }

    /// Access the theory (e.g. to extract an integer model after SAT).
    pub fn theory(&self) -> &T {
        &self.theory
    }

    pub fn theory_mut(&mut self) -> &mut T {
        &mut self.theory
    }

    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Sampled search-shape distributions (see [`crate::Introspect`]).
    pub fn introspect(&self) -> &crate::Introspect {
        &self.introspect
    }

    /// Wall-clock deadline for subsequent `solve` calls; a solve that is
    /// still searching at the deadline answers `Unknown` (None = no limit).
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Open a clause scope. Clauses added until the matching [`pop_scope`]
    /// are guarded by a fresh selector literal: they behave as regular
    /// clauses for `solve` (the selector is assumed true) but are
    /// retractable as a group. Scopes nest; pops are LIFO.
    ///
    /// [`pop_scope`]: SatSolver::pop_scope
    pub fn push_scope(&mut self) -> usize {
        self.stats.scope_pushes += 1;
        let sel = self.new_var();
        self.scopes.push(Scope {
            sel,
            db_mark: self.db.mark(),
        });
        self.scopes.len()
    }

    /// Close the innermost scope: its clauses (and any learned clause that
    /// depended on them, which carries the negated selector) are swept from
    /// the clause database, so long-lived sessions do not accumulate dead
    /// blocking clauses. Learned clauses derived only from surviving
    /// clauses are kept.
    ///
    /// The trail retreats only to just below the selector's assigned level,
    /// not to level 0: a clause of this scope (it contains ¬sel) can only
    /// have propagated once the selector's variable was assigned, so every
    /// trail literal whose reason is about to be swept sits at or above
    /// that level. (The one exception, ¬sel forced at level 0, is safe to
    /// keep — conflict analysis never expands level-0 antecedents.) The
    /// surviving assumption prefix feeds the next solve's trail reuse.
    pub fn pop_scope(&mut self) {
        let scope = self
            .scopes
            .pop()
            .expect("pop_scope without matching push_scope");
        let s = scope.sel;
        if self.value(s).is_assigned() {
            let lvl = self.vars[s.index()].level as usize;
            if lvl > 0 {
                self.cancel_until(lvl - 1);
            }
        }
        // Sweep the scope's clauses: everything added since the push that
        // mentions ¬sel belongs to the retracted scope (including learned
        // clauses that depended on it — resolution keeps the selector
        // literal, and minimisation cannot drop it because the selector is
        // an assumption). Any learned clause mentioning the selector only
        // *positively* survives, which is sound: the selector is
        // unconstrained after the sweep, so as a pure literal it can always
        // satisfy those clauses without excluding any model. BCP drops
        // tombstoned watchers lazily.
        let dead = s.neg();
        let candidates: Vec<ClauseRef> = self
            .db
            .refs_from(scope.db_mark)
            .filter(|&c| !self.db.is_deleted(c) && self.db.lits(c).contains(&dead))
            .collect();
        for cref in candidates {
            self.db.delete(cref);
        }
    }

    /// Number of currently open scopes.
    pub fn num_scopes(&self) -> usize {
        self.scopes.len()
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.vars.len() as u32);
        self.vars.push(VarState::default());
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.occs.push(Vec::new());
        self.seen.push(false);
        self.heap.grow_to(self.vars.len());
        self.heap.insert(v, &self.activity);
        v
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    pub fn num_clauses(&self) -> usize {
        self.db.num_live()
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        self.vars[l.var().index()].assign.xor(l.is_neg())
    }

    /// Current assignment of a variable (meaningful mid-search or after SAT).
    pub fn value(&self, v: Var) -> LBool {
        self.vars[v.index()].assign
    }

    /// Model value after a SAT answer (frozen at `solve` return).
    pub fn model_value(&self, v: Var) -> LBool {
        self.model.get(v.index()).copied().unwrap_or(LBool::Undef)
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Value of `l` counting only *fixed* (level-0) assignments; literals
    /// assigned at higher levels read as `Undef`.
    #[inline]
    fn fixed_value(&self, l: Lit) -> LBool {
        let vs = &self.vars[l.var().index()];
        if vs.assign.is_assigned() && vs.level == 0 {
            vs.assign.xor(l.is_neg())
        } else {
            LBool::Undef
        }
    }

    /// Add a clause; returns `false` if the solver became trivially UNSAT.
    ///
    /// When the clause has two non-false literals under the current trail
    /// it is attached *without backtracking*, so incremental additions
    /// between `solve` calls (blocking clauses, sibling-path groups) leave
    /// the reusable assumption trail standing. Otherwise the solver retreats
    /// to level 0 first, as a classic incremental core would.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        // Level-0 simplification: drop permanently-false literals, detect
        // satisfied or tautological clauses, deduplicate. Only *fixed*
        // values are consulted — the trail above level 0 may be retracted
        // later, so it must not simplify the clause. Inside a scope the
        // clause also carries the negated innermost selector so a pop
        // retracts it.
        let mut sorted = lits.to_vec();
        if let Some(scope) = self.scopes.last() {
            sorted.push(scope.sel.neg());
        }
        sorted.sort_unstable();
        sorted.dedup();
        let mut simplified: Vec<Lit> = Vec::with_capacity(sorted.len());
        for (i, &l) in sorted.iter().enumerate() {
            if i + 1 < sorted.len() && sorted[i + 1] == !l {
                return true; // tautology: contains both l and !l
            }
            match self.fixed_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => continue,   // permanently false, drop
                LBool::Undef => simplified.push(l),
            }
        }
        self.stats.clauses_added += 1;
        // Fast path: two literals non-false under the full current trail
        // can be watched directly — the clause is neither unit nor
        // conflicting anywhere on the standing assignment.
        if simplified.len() >= 2 {
            let mut w0 = None;
            let mut w1 = None;
            for (i, &l) in simplified.iter().enumerate() {
                if self.value_lit(l) != LBool::False {
                    if w0.is_none() {
                        w0 = Some(i);
                    } else {
                        w1 = Some(i);
                        break;
                    }
                }
            }
            if let (Some(a), Some(b)) = (w0, w1) {
                simplified.swap(0, a);
                simplified.swap(1, b);
                let cref = self.db.add(&simplified, false, 0);
                self.attach(cref);
                return true;
            }
        }
        // Slow path: the clause is empty, unit, or falsified/asserting
        // somewhere on the trail — retreat to level 0 (after which every
        // `simplified` literal is unassigned again, since fixed values were
        // already filtered above).
        self.cancel_until(0);
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], Reason::Decision);
                // Propagate eagerly so later add_clause calls see implied
                // fixed values and level-0 theory state stays in sync.
                if self.propagate_all().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cref = self.db.add(&simplified, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        for i in 0..self.db.lits(cref).len() {
            let v = self.db.lits(cref)[i].var();
            self.occs[v.index()].push(cref);
        }
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let level = self.decision_level() as u32;
        let vs = &mut self.vars[l.var().index()];
        vs.assign = LBool::from_bool(l.is_pos());
        vs.level = level;
        vs.reason = reason;
        self.trail.push(l);
    }

    /// Boolean constraint propagation to fixpoint. Returns a conflicting
    /// clause reference on conflict.
    fn bcp(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut i = 0;
            let mut j = 0;
            // Take the watcher list; we rebuild it in place.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.db.is_deleted(w.cref) {
                    continue; // lazy removal of deleted clauses
                }
                if self.value_lit(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                // Normalise: the false literal (!p) goes to position 1.
                let false_lit = !p;
                {
                    let lits = self.db.lits_mut(w.cref);
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                }
                let first = self.db.lits(w.cref)[0];
                let w_new = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[j] = w_new;
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.
                let len = self.db.lits(w.cref).len();
                for k in 2..len {
                    let lk = self.db.lits(w.cref)[k];
                    if self.value_lit(lk) != LBool::False {
                        self.db.lits_mut(w.cref).swap(1, k);
                        let new_watch = self.db.lits(w.cref)[1];
                        self.watches[(!new_watch).index()].push(w_new);
                        continue 'watchers;
                    }
                }
                // No replacement: clause is unit or conflicting.
                ws[j] = w_new;
                j += 1;
                if self.value_lit(first) == LBool::False {
                    // Conflict: restore remaining watchers and report.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[p.index()] = ws;
                    self.qhead = self.trail.len();
                    return Some(w.cref);
                }
                self.enqueue(first, Reason::Clause(w.cref));
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
        }
        None
    }

    /// BCP plus theory assertion to fixpoint.
    ///
    /// Returns the conflict as a vector of literals that are all currently
    /// true and jointly inconsistent (for a clause conflict these are the
    /// negations of the clause literals).
    fn propagate_all(&mut self) -> Option<Vec<Lit>> {
        loop {
            if let Some(cref) = self.bcp() {
                let conflict: Vec<Lit> = self.db.lits(cref).iter().map(|&l| !l).collect();
                return Some(conflict);
            }
            if self.theory_qhead >= self.trail.len() {
                return None;
            }
            while self.theory_qhead < self.trail.len() {
                let l = self.trail[self.theory_qhead];
                self.theory_qhead += 1;
                self.stats.theory_assertions += 1;
                if let Err(expl) = self.theory.assert_true(l) {
                    self.stats.theory_conflicts += 1;
                    debug_assert!(
                        expl.iter().all(|&e| self.value_lit(e) == LBool::True),
                        "theory explanation must consist of true literals"
                    );
                    return Some(expl);
                }
            }
            // Theories in this crate do not enqueue literals, so reaching
            // here with an empty BCP queue means fixpoint.
            if self.qhead >= self.trail.len() {
                return None;
            }
        }
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
        self.theory.new_level();
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for idx in (bound..self.trail.len()).rev() {
            let l = self.trail[idx];
            let vs = &mut self.vars[l.var().index()];
            vs.assign = LBool::Undef;
            vs.phase = l.is_pos();
            self.heap.insert(l.var(), &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = bound;
        self.theory_qhead = self.theory_qhead.min(bound);
        self.theory.backtrack_to(level);
        // Don't-care bypasses above the surviving trail lose their
        // justification (the satisfying literals may be gone): put those
        // variables back in decision order. `skipped` is level-sorted, so
        // this pops exactly the invalidated tail.
        while let Some(&(l, v)) = self.skipped.last() {
            if (l as usize) > level {
                self.heap.insert(v, &self.activity);
                self.skipped.pop();
            } else {
                break;
            }
        }
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.decrease_key_after_bump(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    fn mark(&mut self, v: Var) {
        if !self.seen[v.index()] {
            self.seen[v.index()] = true;
            self.marked.push(v);
        }
    }

    fn clear_marks(&mut self) {
        for v in self.marked.drain(..) {
            self.seen[v.index()] = false;
        }
    }

    /// First-UIP conflict analysis. `conflict` is a set of true literals
    /// that are jointly inconsistent. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: Vec<Lit>) -> (Vec<Lit>, usize) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 for the asserting literal
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();

        // The conflict in clause form: negations of the inconsistent set.
        let mut reason_lits: Vec<Lit> = conflict.iter().map(|&l| !l).collect();
        let uip;

        loop {
            for &q in &reason_lits {
                let v = q.var();
                let lvl = self.vars[v.index()].level as usize;
                if !self.seen[v.index()] && lvl > 0 {
                    self.mark(v);
                    self.bump_var(v);
                    if lvl == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand: last marked literal on the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[trail_idx];
            // Unmark so the trail scan skips it next iteration; it stays in
            // `marked` for final cleanup which is harmless (already false).
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                uip = pl;
                break;
            }
            match self.vars[pl.var().index()].reason {
                Reason::Clause(cref) => {
                    if self.db.is_learnt(cref) {
                        self.db.bump_activity(cref);
                        // Dynamic LBD: a learned clause pulled in as a reason
                        // gets its glue refreshed; an improvement protects it
                        // through the next database reduction.
                        let fresh = self.compute_lbd(self.db.lits(cref));
                        if fresh < self.db.lbd(cref) {
                            self.db.set_lbd(cref, fresh);
                            self.db.set_protected(cref, true);
                        }
                    }
                    // Skip lits[0] — it is pl itself.
                    reason_lits = self.db.lits(cref)[1..].to_vec();
                }
                Reason::Decision => unreachable!("UIP search expanded a decision"),
            }
        }
        learnt[0] = !uip;

        // Recursive minimisation of the non-asserting literals. The `seen`
        // marks for kept literals are still set, which the redundancy check
        // relies on.
        let before = learnt.len();
        let body: Vec<Lit> = learnt[1..].to_vec();
        let kept: Vec<Lit> = body
            .into_iter()
            .filter(|&l| !self.literal_redundant(l))
            .collect();
        learnt.truncate(1);
        learnt.extend(kept);
        self.stats.minimized_lits += (before - learnt.len()) as u64;
        self.clear_marks();

        // Backjump level: second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.vars[learnt[i].var().index()].level
                    > self.vars[learnt[max_i].var().index()].level
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.vars[learnt[1].var().index()].level as usize
        };
        (learnt, bt)
    }

    /// Deep redundancy check: clause literal `l` is redundant if every
    /// literal in its reason cone is already marked `seen` (i.e. in the
    /// clause) or at level 0, transitively, without reaching a decision.
    fn literal_redundant(&mut self, l: Lit) -> bool {
        if self.vars[l.var().index()].reason == Reason::Decision {
            return false;
        }
        let mut stack = vec![l.var()];
        let mut tentative: Vec<Var> = Vec::new();
        while let Some(v) = stack.pop() {
            match self.vars[v.index()].reason {
                Reason::Decision => {
                    // Roll back marks made during this (failed) check.
                    for w in tentative {
                        self.seen[w.index()] = false;
                    }
                    return false;
                }
                Reason::Clause(cref) => {
                    for &q in &self.db.lits(cref)[1..] {
                        let qv = q.var();
                        if self.vars[qv.index()].level == 0 || self.seen[qv.index()] {
                            continue;
                        }
                        self.seen[qv.index()] = true;
                        self.marked.push(qv);
                        tentative.push(qv);
                        stack.push(qv);
                    }
                }
            }
        }
        // Every antecedent resolved into marked/level-0 literals. The marks
        // stay set as memoisation for subsequent checks (sound: each marked
        // var is implied by clause literals), and are wiped in clear_marks.
        true
    }

    /// Record a conflict in the restart EMAs. `lbd` is the freshly learned
    /// clause's glue; the trail size was sampled before backjumping.
    fn note_conflict_for_restarts(&mut self, lbd: u32, trail_len: usize) {
        self.conflicts_since_restart += 1;
        self.fast_lbd_ema += (lbd as f64 - self.fast_lbd_ema) / FAST_LBD_EMA_N;
        let t = trail_len as f64;
        self.trail_ema += (t - self.trail_ema) / TRAIL_EMA_N;
        // Blocking: a trail well above its long-run average means the search
        // is deep into filling in a model — let it finish rather than
        // restarting out from under it.
        if self.stats.conflicts >= BLOCK_WARMUP
            && self.conflicts_since_restart >= RESTART_MIN_CONFLICTS
            && t > BLOCK_R * self.trail_ema
        {
            self.conflicts_since_restart = 0;
            self.stats.blocked_restarts += 1;
        }
    }

    /// Should the search restart now? Recent glue markedly worse than the
    /// lifetime average means the current branch is producing weak clauses.
    fn restart_ready(&self) -> bool {
        if self.conflicts_since_restart < RESTART_MIN_CONFLICTS || self.stats.learned_total == 0 {
            return false;
        }
        let slow = self.stats.sum_lbd as f64 / self.stats.learned_total as f64;
        self.fast_lbd_ema * RESTART_K > slow
    }

    /// Reused-trail partial restart (Ramos et al., SAT'11): keep the prefix
    /// of decision levels whose decision variables are at least as active as
    /// the best variable the heap would offer next — a full restart would
    /// redo exactly those decisions. Returns the level to backtrack to,
    /// at least `floor` (the assumption levels, which always survive).
    fn reused_trail_level(&self, floor: usize) -> usize {
        let Some(best) = self.heap.peek() else {
            return self.decision_level();
        };
        let best_act = self.activity[best.index()];
        let mut lvl = floor;
        while lvl < self.decision_level() {
            let at = self.trail_lim[lvl];
            if at >= self.trail.len() {
                break;
            }
            let decision = self.trail[at].var();
            if self.activity[decision.index()] < best_act {
                break;
            }
            lvl += 1;
        }
        lvl
    }

    fn reduce_db(&mut self) {
        let mut learnts = self.db.learnt_refs();
        // Sort worst-first: high LBD, then low activity.
        learnts.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then(
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap(),
            )
        });
        let target = learnts.len() / 2;
        let mut removed = 0;
        for &c in &learnts {
            if removed >= target {
                break;
            }
            if self.db.lbd(c) <= 2 || self.db.lits(c).len() == 2 {
                continue; // glue and binary clauses are kept forever
            }
            if self.is_locked(c) {
                continue;
            }
            if self.db.is_protected(c) {
                // One-round reprieve earned by a recent LBD improvement;
                // consuming the bit means it must re-earn the next one.
                self.db.set_protected(c, false);
                continue;
            }
            self.db.delete(c);
            removed += 1;
        }
        self.stats.deleted_clauses += removed as u64;
        self.stats.reduces += 1;
        self.next_reduce = self.stats.conflicts + 2000 + 300 * self.stats.reduces;
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.db.lits(cref)[0];
        self.value_lit(l0) == LBool::True
            && self.vars[l0.var().index()].reason == Reason::Clause(cref)
    }

    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.vars[l.var().index()].level)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// Solve under the given assumptions (plus the selectors of every open
    /// scope, which are assumed true automatically).
    ///
    /// User assumptions come *before* scope selectors in the combined
    /// vector: per-query scopes get a fresh selector every query, so
    /// putting them last lets consecutive queries that share a stable
    /// assumption prefix (delivery model, property polarity) reuse the
    /// propagated trail below the per-query churn.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        let result = if self.scopes.is_empty() {
            self.solve_inner(assumptions)
        } else {
            let mut all: Vec<Lit> = Vec::with_capacity(self.scopes.len() + assumptions.len());
            all.extend_from_slice(assumptions);
            all.extend(self.scopes.iter().map(|sc| sc.sel.pos()));
            self.solve_inner(&all)
        };
        self.stats.learnt_clauses = self.db.num_learnt() as u64;
        result
    }

    /// Deadline exit: retreat to the established assumption prefix
    /// (search decisions go, assumption levels stay for the next solve).
    fn exit_unknown(&mut self, assumptions: &[Lit]) -> SolveResult {
        let keep = self.decision_level().min(assumptions.len());
        self.cancel_until(keep);
        self.prev_assumptions = assumptions[..keep].to_vec();
        SolveResult::Unknown
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        // Clauses added since the last solve may constrain variables that
        // were bypassed as don't-care on the still-standing trail, so every
        // bypass is re-opened for this solve.
        for (_, v) in self.skipped.drain(..) {
            self.heap.insert(v, &self.activity);
        }
        if !self.ok {
            self.prev_assumptions.clear();
            self.cancel_until(0);
            return SolveResult::Unsat;
        }
        // Trail reuse: assumption levels from the previous solve that match
        // this solve's assumption vector (position for position) are still
        // sound — clauses were only added, and incremental additions that
        // could not be attached mid-trail already retreated to level 0. Keep
        // the longest common prefix and retreat only past the divergence.
        let cap = self
            .decision_level()
            .min(assumptions.len())
            .min(self.prev_assumptions.len());
        let mut keep = 0usize;
        while keep < cap && self.prev_assumptions[keep] == assumptions[keep] {
            keep += 1;
        }
        self.cancel_until(keep);

        self.conflicts_since_restart = 0;

        loop {
            match self.propagate_all() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        self.prev_assumptions.clear();
                        return SolveResult::Unsat;
                    }
                    if self.decision_level() <= assumptions.len() {
                        // Every decision on the trail is an assumption, so
                        // this conflict refutes the assumption set itself.
                        // Levels below the conflicting one reached fixpoint
                        // conflict-free and stay for the next solve.
                        let dl = self.decision_level();
                        self.cancel_until(dl - 1);
                        self.prev_assumptions = assumptions[..dl - 1].to_vec();
                        return SolveResult::Unsat;
                    }
                    let trail_len = self.trail.len();
                    let conflict_depth = self.decision_level() as u64;
                    let (learnt, bt) = self.analyze(conflict);
                    self.cancel_until(bt);
                    let lbd = self.learn(learnt);
                    self.introspect.observe_conflict(lbd as u64, conflict_depth);
                    self.note_conflict_for_restarts(lbd, trail_len);
                    self.decay_var_activity();
                    self.db.decay_activity();

                    if self.deadline.is_some_and(|d| Instant::now() >= d) {
                        return self.exit_unknown(assumptions);
                    }
                    if self.stats.conflicts >= self.next_reduce {
                        self.reduce_db();
                    }
                }
                None => {
                    if self.decision_level() > assumptions.len() && self.restart_ready() {
                        self.stats.restarts += 1;
                        self.introspect
                            .observe_restart(self.conflicts_since_restart);
                        self.conflicts_since_restart = 0;
                        // Partial restart: levels the heap would immediately
                        // rebuild stay on the trail (and stay propagated).
                        let keep = self.reused_trail_level(assumptions.len());
                        self.cancel_until(keep);
                        continue;
                    }
                    // Establish assumptions as pseudo-decisions first.
                    if self.decision_level() < assumptions.len() {
                        let a = assumptions[self.decision_level()];
                        match self.value_lit(a) {
                            LBool::True => {
                                // Already satisfied: open a level to keep the
                                // decision-level/assumption alignment.
                                self.new_decision_level();
                            }
                            LBool::False => {
                                // The trail is consistent here — `a` is
                                // merely falsified — so every established
                                // level survives for the next solve.
                                let dl = self.decision_level();
                                self.prev_assumptions = assumptions[..dl].to_vec();
                                return SolveResult::Unsat;
                            }
                            LBool::Undef => {
                                self.new_decision_level();
                                self.enqueue(a, Reason::Decision);
                            }
                        }
                        continue;
                    }
                    // Regular decision.
                    if self.stats.decisions.is_multiple_of(256)
                        && self.deadline.is_some_and(|d| Instant::now() >= d)
                    {
                        return self.exit_unknown(assumptions);
                    }
                    match self.pick_branch() {
                        Some(l) => {
                            self.stats.decisions += 1;
                            self.new_decision_level();
                            self.enqueue(l, Reason::Decision);
                        }
                        None => {
                            // Every *relevant* variable assigned and the
                            // theory consistent. Don't-care variables stay
                            // `Undef` in the model — any completion
                            // satisfies their (already-satisfied) clauses —
                            // except registered theory atoms, which are
                            // completed from the theory's own solution so
                            // the model stays theory-consistent. The full
                            // trail stays up for the next solve.
                            self.model = self.vars.iter().map(|v| v.assign).collect();
                            for (i, m) in self.model.iter_mut().enumerate() {
                                if !m.is_assigned() {
                                    if let Some(b) = self.theory.value_hint(Var(i as u32)) {
                                        *m = LBool::from_bool(b);
                                    }
                                }
                            }
                            self.prev_assumptions = assumptions.to_vec();
                            return SolveResult::Sat;
                        }
                    }
                }
            }
        }
    }

    /// Install a learned clause and return its LBD (for the restart EMAs).
    fn learn(&mut self, learnt: Vec<Lit>) -> u32 {
        let lbd = match learnt.len() {
            0 => {
                self.ok = false;
                0
            }
            1 => {
                // Unit clauses assert at level 0 (analyze returns bt = 0).
                debug_assert_eq!(self.decision_level(), 0);
                self.enqueue(learnt[0], Reason::Decision);
                1
            }
            _ => {
                let lbd = self.compute_lbd(&learnt);
                let cref = self.db.add(&learnt, true, lbd);
                self.attach(cref);
                self.enqueue(learnt[0], Reason::Clause(cref));
                lbd
            }
        };
        self.stats.learned_total += 1;
        self.stats.sum_lbd += lbd as u64;
        lbd
    }

    /// `true` if every clause mentioning `v` is deleted or already has a
    /// true literal: no remaining constraint can observe `v`'s value, so
    /// branching on it is pure waste (and, with a theory attached, a source
    /// of gratuitous theory conflicts).
    fn is_dont_care(&self, v: Var) -> bool {
        self.occs[v.index()].iter().all(|&cref| {
            self.db.is_deleted(cref)
                || self
                    .db
                    .lits(cref)
                    .iter()
                    .any(|&l| self.value_lit(l) == LBool::True)
        })
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.vars[v.index()].assign == LBool::Undef {
                if self.is_dont_care(v) {
                    self.skipped.push((self.decision_level() as u32, v));
                    continue;
                }
                // Theory atoms branch toward the value the current theory
                // model already satisfies — asserting that polarity can
                // never provoke a theory conflict, so conflicts only occur
                // where the Boolean structure genuinely forces them.
                let phase = self
                    .theory
                    .value_hint(v)
                    .unwrap_or(self.vars[v.index()].phase);
                return Some(v.lit(phase));
            }
        }
        None
    }

    /// Solve without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(solver: &mut SatSolver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn empty_problem_is_sat() {
        let mut s = SatSolver::new_pure();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn single_unit() {
        let mut s = SatSolver::new_pure();
        let x = s.new_var();
        assert!(s.add_clause(&[x.pos()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(x), LBool::True);
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = SatSolver::new_pure();
        let x = s.new_var();
        assert!(s.add_clause(&[x.pos()]));
        assert!(!s.add_clause(&[x.neg()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = SatSolver::new_pure();
        let vs = vars(&mut s, 5);
        for w in vs.windows(2) {
            s.add_clause(&[w[0].neg(), w[1].pos()]); // w0 -> w1
        }
        s.add_clause(&[vs[0].pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &x in &vs {
            assert_eq!(s.model_value(x), LBool::True);
        }
    }

    #[test]
    fn xor_constraint_sat() {
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos(), b.pos()]);
        s.add_clause(&[a.neg(), b.neg()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_ne!(s.model_value(a), s.model_value(b));
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        let mut s = SatSolver::new_pure();
        let p1 = s.new_var();
        let p2 = s.new_var();
        s.add_clause(&[p1.pos()]);
        s.add_clause(&[p2.pos()]);
        s.add_clause(&[p1.neg(), p2.neg()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    fn pigeonhole(s: &mut SatSolver, pigeons: usize, holes: usize) {
        let x: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &x {
            let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&c);
        }
        for (i, row_a) in x.iter().enumerate() {
            for row_b in &x[i + 1..] {
                for (a, b) in row_a.iter().zip(row_b) {
                    s.add_clause(&[a.neg(), b.neg()]);
                }
            }
        }
    }

    #[test]
    fn pigeonhole_unsat_family() {
        for n in 2..=6usize {
            let mut s = SatSolver::new_pure();
            pigeonhole(&mut s, n, n - 1);
            assert_eq!(s.solve(), SolveResult::Unsat, "PHP({n},{})", n - 1);
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let mut s = SatSolver::new_pure();
        pigeonhole(&mut s, 5, 5);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let mut s = SatSolver::new_pure();
        let vs = vars(&mut s, 8);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![vs[0].pos(), vs[1].neg(), vs[2].pos()],
            vec![vs[1].pos(), vs[3].pos()],
            vec![vs[2].neg(), vs[4].pos()],
            vec![vs[4].neg(), vs[5].neg(), vs[6].pos()],
            vec![vs[6].neg(), vs[7].pos()],
            vec![vs[0].neg(), vs[7].neg()],
            vec![vs[3].neg(), vs[5].pos()],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in &clauses {
            assert!(
                c.iter()
                    .any(|&l| s.model_value(l.var()).xor(l.is_neg()) == LBool::True),
                "clause {c:?} not satisfied"
            );
        }
    }

    #[test]
    fn assumptions_flip_verdict_and_leave_solver_usable() {
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.neg(), b.pos()]);
        s.add_clause(&[a.neg(), b.neg()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[a.pos()]), SolveResult::Unsat);
        // Solver remains usable afterwards.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(a), LBool::False);
    }

    #[test]
    fn assumptions_consistent_subset() {
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[a.neg(), b.neg(), c.pos()]);
        assert_eq!(
            s.solve_with_assumptions(&[a.pos(), b.pos()]),
            SolveResult::Sat
        );
        assert_eq!(s.model_value(c), LBool::True);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos(), b.pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[a.neg()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(b), LBool::True);
        s.add_clause(&[b.neg()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[a.pos(), a.pos(), b.pos()]));
        assert!(s.add_clause(&[a.pos(), a.neg()])); // tautology: dropped
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn lbd_bookkeeping_is_consistent_on_a_learning_workload() {
        let mut s = SatSolver::new_pure();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = *s.stats();
        assert!(st.conflicts > 0, "PHP(7,6) must conflict");
        // Every conflict learns one clause, except terminal conflicts (at
        // level 0 or inside the assumption prefix) which exit instead.
        assert!(
            st.learned_total <= st.conflicts && st.learned_total + 1 >= st.conflicts,
            "learned_total={} vs conflicts={}",
            st.learned_total,
            st.conflicts
        );
        assert!(
            st.sum_lbd >= st.learned_total,
            "each learned clause has LBD >= 1"
        );
        // The lifetime glue average can never exceed the decision depth the
        // instance admits (here: #vars), a cheap internal-consistency bound.
        assert!(st.sum_lbd <= st.learned_total * s.num_vars() as u64);
    }

    #[test]
    fn restart_policy_fires_on_a_conflict_heavy_instance() {
        // PHP(7,6) generates thousands of conflicts with steadily varying
        // glue; the EMA policy must trigger at least one restart (and the
        // solver must still prove UNSAT).
        let mut s = SatSolver::new_pure();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(
            s.stats().restarts > 0,
            "no restart in {} conflicts",
            s.stats().conflicts
        );
    }

    #[test]
    fn reused_trail_level_respects_the_floor() {
        // With no decisions taken, a partial restart keeps nothing and the
        // floor is returned untouched.
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos(), b.pos()]);
        assert_eq!(s.reused_trail_level(0), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// A theory that forbids a fixed pair of literals from being true
    /// together — a miniature mutex exercising the DPLL(T) plumbing.
    struct MutexTheory {
        a: Lit,
        b: Lit,
        stack: Vec<Lit>,
        marks: Vec<usize>,
    }

    impl MutexTheory {
        fn new(a: Lit, b: Lit) -> Self {
            MutexTheory {
                a,
                b,
                stack: vec![],
                marks: vec![],
            }
        }
    }

    impl Theory for MutexTheory {
        fn assert_true(&mut self, lit: Lit) -> TheoryResult {
            if lit == self.a || lit == self.b {
                self.stack.push(lit);
            }
            if self.stack.contains(&self.a) && self.stack.contains(&self.b) {
                return Err(vec![self.a, self.b]);
            }
            Ok(())
        }
        fn new_level(&mut self) {
            self.marks.push(self.stack.len());
        }
        fn backtrack_to(&mut self, levels_remaining: usize) {
            while self.marks.len() > levels_remaining {
                let m = self.marks.pop().unwrap();
                self.stack.truncate(m);
            }
        }
    }

    #[test]
    fn theory_conflict_makes_unsat() {
        // Vars are allocated before the theory knows their literals, so
        // construct with known future literals: first two vars are 0 and 1.
        let mut s = SatSolver::new(MutexTheory::new(Var(0).pos(), Var(1).pos()));
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos()]);
        s.add_clause(&[b.pos()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn theory_restricts_but_leaves_sat() {
        let mut s = SatSolver::new(MutexTheory::new(Var(0).pos(), Var(1).pos()));
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos(), b.pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let ma = s.model_value(a) == LBool::True;
        let mb = s.model_value(b) == LBool::True;
        assert!(ma || mb);
        assert!(!(ma && mb), "theory mutex violated by model");
    }

    #[test]
    fn theory_state_survives_backtracking() {
        // Force the solver to try both mutex literals down one branch and
        // verify it recovers by backtracking (SAT overall).
        let mut s = SatSolver::new(MutexTheory::new(Var(0).pos(), Var(1).pos()));
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        // (a \/ c) /\ (b \/ c): setting a=b=true conflicts in the theory,
        // but c=true satisfies everything.
        s.add_clause(&[a.pos(), c.pos()]);
        s.add_clause(&[b.pos(), c.pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let ma = s.model_value(a) == LBool::True;
        let mb = s.model_value(b) == LBool::True;
        assert!(!(ma && mb));
    }

    #[test]
    fn many_solves_are_stable() {
        let mut s = SatSolver::new_pure();
        let vs = vars(&mut s, 6);
        s.add_clause(&[vs[0].pos(), vs[1].pos(), vs[2].pos()]);
        s.add_clause(&[vs[3].neg(), vs[4].pos()]);
        for _ in 0..20 {
            assert_eq!(s.solve(), SolveResult::Sat);
        }
    }

    #[test]
    fn scope_clauses_active_until_pop() {
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        s.add_clause(&[a.pos()]);
        s.push_scope();
        s.add_clause(&[a.neg()]); // contradicts the permanent unit, scoped
        assert_eq!(s.solve(), SolveResult::Unsat, "scoped clause must bind");
        s.pop_scope();
        assert_eq!(s.solve(), SolveResult::Sat, "popped clause must be gone");
        assert_eq!(s.model_value(a), LBool::True);
    }

    #[test]
    fn popped_blocking_clauses_do_not_leak() {
        // Enumerate the 3 models of (a \/ b) inside a scope via blocking
        // clauses, pop, and verify the full model set is reachable again.
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos(), b.pos()]);
        let enumerate = |s: &mut SatSolver| {
            let mut count = 0;
            while s.solve() == SolveResult::Sat {
                count += 1;
                assert!(count <= 3, "more models than possible");
                let block: Vec<Lit> = [a, b]
                    .iter()
                    .map(|&v| {
                        if s.model_value(v) == LBool::True {
                            v.neg()
                        } else {
                            v.pos()
                        }
                    })
                    .collect();
                s.add_clause(&block);
            }
            count
        };
        s.push_scope();
        assert_eq!(enumerate(&mut s), 3);
        s.pop_scope();
        s.push_scope();
        assert_eq!(enumerate(&mut s), 3, "first scope's blocks leaked");
        s.pop_scope();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn pop_scope_sweeps_dead_clauses_from_the_database() {
        // Blocking clauses added inside a scope must not accumulate in the
        // clause database across pops — a long-lived session would drag
        // them through every future propagation.
        let mut s = SatSolver::new_pure();
        let vars: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        let c: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
        s.add_clause(&c);
        let baseline = s.num_clauses();
        for _round in 0..3 {
            s.push_scope();
            // Enumerate all models over the first three vars, blocking each.
            while s.solve() == SolveResult::Sat {
                let block: Vec<Lit> = vars
                    .iter()
                    .take(3)
                    .map(|&v| {
                        if s.model_value(v) == LBool::True {
                            v.neg()
                        } else {
                            v.pos()
                        }
                    })
                    .collect();
                s.add_clause(&block);
            }
            s.pop_scope();
            assert!(
                s.num_clauses() <= baseline + 2,
                "dead scope clauses piled up: {} live after pop (baseline {baseline})",
                s.num_clauses(),
            );
            assert_eq!(s.solve(), SolveResult::Sat, "solver poisoned by pop");
        }
    }

    #[test]
    fn nested_scopes_pop_in_lifo_order() {
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        s.push_scope();
        s.add_clause(&[a.pos()]);
        s.push_scope();
        s.add_clause(&[b.pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(a), LBool::True);
        assert_eq!(s.model_value(b), LBool::True);
        s.pop_scope(); // b's unit retracted, a's still active
        s.add_clause(&[b.neg()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(a), LBool::True);
        assert_eq!(s.model_value(b), LBool::False);
        s.pop_scope();
        assert_eq!(s.num_scopes(), 0);
    }

    #[test]
    fn learned_clauses_survive_pop() {
        // Solve a hard UNSAT core inside a scope twice: the permanent
        // pigeonhole clauses stay, so conflicts learned in the first solve
        // must make the second solve cheaper even across a pop.
        let mut s = SatSolver::new_pure();
        pigeonhole(&mut s, 6, 5);
        s.push_scope();
        let before = s.stats().conflicts;
        assert_eq!(s.solve(), SolveResult::Unsat);
        let first = s.stats().conflicts - before;
        s.pop_scope();
        s.push_scope();
        let before = s.stats().conflicts;
        assert_eq!(s.solve(), SolveResult::Unsat);
        let second = s.stats().conflicts - before;
        s.pop_scope();
        assert!(first > 0, "PHP(6,5) must conflict");
        assert!(
            second < first,
            "learned clauses did not survive the pop: {first} then {second}"
        );
    }

    #[test]
    fn scoped_solving_matches_from_scratch() {
        // Pseudo-random 3-CNFs: solving base+extra inside a scope must
        // agree with a fresh solver fed both clause sets directly.
        let mut seed = 0x5eed5eedu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _round in 0..50 {
            let nvars = 4 + (next() % 5) as usize;
            let clause = |next: &mut dyn FnMut() -> u64| -> Vec<Lit> {
                (0..3)
                    .map(|_| {
                        let v = Var((next() % nvars as u64) as u32);
                        if next().is_multiple_of(2) {
                            v.pos()
                        } else {
                            v.neg()
                        }
                    })
                    .collect()
            };
            let base: Vec<Vec<Lit>> = (0..next() % 10).map(|_| clause(&mut next)).collect();
            let extra: Vec<Vec<Lit>> = (0..1 + next() % 10).map(|_| clause(&mut next)).collect();

            let mut scoped = SatSolver::new_pure();
            for _ in 0..nvars {
                scoped.new_var();
            }
            for c in &base {
                scoped.add_clause(c);
            }
            scoped.push_scope();
            for c in &extra {
                scoped.add_clause(c);
            }
            let with_extra = scoped.solve();
            scoped.pop_scope();
            let base_only = scoped.solve();

            let mut fresh = SatSolver::new_pure();
            for _ in 0..nvars {
                fresh.new_var();
            }
            for c in base.iter().chain(&extra) {
                fresh.add_clause(c);
            }
            assert_eq!(with_extra, fresh.solve(), "scoped vs from-scratch diverged");

            let mut fresh_base = SatSolver::new_pure();
            for _ in 0..nvars {
                fresh_base.new_var();
            }
            for c in &base {
                fresh_base.add_clause(c);
            }
            assert_eq!(
                base_only,
                fresh_base.solve(),
                "pop did not restore the base problem"
            );
        }
    }

    #[test]
    fn scopes_compose_with_assumptions() {
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        s.push_scope();
        s.add_clause(&[a.neg(), b.pos()]);
        s.add_clause(&[a.neg(), b.neg()]);
        assert_eq!(s.solve_with_assumptions(&[a.pos()]), SolveResult::Unsat);
        s.pop_scope();
        assert_eq!(s.solve_with_assumptions(&[a.pos()]), SolveResult::Sat);
    }

    #[test]
    fn past_deadline_reports_unknown() {
        let mut s = SatSolver::new_pure();
        pigeonhole(&mut s, 6, 5);
        s.set_deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_deadline(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn blocking_clause_enumeration_terminates() {
        // Enumerate all models of (a \/ b) over 2 vars via blocking clauses.
        let mut s = SatSolver::new_pure();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos(), b.pos()]);
        let mut count = 0;
        while s.solve() == SolveResult::Sat {
            count += 1;
            assert!(count <= 3, "more models than possible");
            let block: Vec<Lit> = [a, b]
                .iter()
                .map(|&v| {
                    if s.model_value(v) == LBool::True {
                        v.neg()
                    } else {
                        v.pos()
                    }
                })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 3, "a\\/b has exactly 3 models");
    }
}
