//! Incremental check sessions: one shared encoding, many queries.
//!
//! The pipeline re-solves closely related formulas many times — once per
//! delivery model, once per match-pair generator, once per refinement
//! iteration, once per blocked model during matching enumeration, and
//! (with the path-exploration layer) once per control-flow path. All of
//! those share the trace's communication skeleton and the whole
//! `POrder /\ PMatchPairs /\ PUnique` core; only the delivery axioms, the
//! property polarity and the branch-outcome pins differ. A
//! [`CheckSession`] therefore builds the core **once**
//! ([`crate::encode::encode_core`]) and attaches each delivery model's
//! axiom group, each property polarity, and each control-flow path's
//! branch pins guarded by fresh selector literals; a query activates
//! exactly one group per kind via `check_assuming`, and learned clauses
//! carry over between queries.
//!
//! **Paths as first-class groups.** The host trace's branch pins (the
//! paper's `PEvents` outcome constraints) are no longer hard-asserted:
//! they live behind a host path selector, and *sibling* paths of the same
//! program — traces that issue the identical communication operations but
//! resolve branches differently — attach their own pins, local-event
//! order chains and assertion terms behind their own selectors
//! ([`crate::encode::Encoding::build_path_attachment`]). Sibling paths
//! thus reuse the expensive shared core (match disjunctions, uniqueness,
//! delivery axioms, learned clauses) instead of re-encoding per path.
//!
//! Per-query state (refinement blocking clauses, all-SAT enumeration
//! blocks) lives in a solver *scope* ([`smt::SmtSolver::push_scope`]):
//! popped at the end of the query so it cannot leak into the next one,
//! while learned clauses that do not depend on it survive.
//!
//! [`SessionPool`] adds the batching layer the portfolio driver uses:
//! [`SessionPool::session_for_path`] keys sessions by (program, trace
//! events, match pairs) and also by communication skeleton, so sibling
//! paths of one program transparently land on the same session. The
//! reuse policy lives in the pool: [`SessionPool::one_shot`] builds every
//! session from scratch, the no-reuse baseline.

use crate::encode::{encode_core, Encoding, PathAttachError, UniqueScope};
use crate::matchpairs::MatchPairs;
use mcapi::program::Program;
use mcapi::trace::{CommSig, Trace};
use mcapi::types::DeliveryModel;
use smt::TermId;

/// Which attached control-flow path a query runs against: the session's
/// host trace, or a sibling attached by
/// [`CheckSession::attach_sibling_path`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathSlot {
    /// The trace the core encoding was built from.
    Host,
    /// The `i`-th attached sibling path.
    Sibling(usize),
}

/// One sibling path's groups on a shared session.
struct SiblingEntry {
    /// Clock term per sibling-trace event (for witness decoding).
    clocks: Vec<TermId>,
    /// The sibling's assertion properties.
    props: Vec<crate::encode::PropTerm>,
    /// Selector guarding the sibling's pins and order chains.
    sel: TermId,
    /// Property polarity selectors for this sibling, built lazily.
    prop_sels: Vec<(bool, TermId)>,
}

/// A shared-encoding solver session; see the module docs.
pub struct CheckSession {
    /// The shared core encoding plus the solver hosting every axiom group.
    pub enc: Encoding,
    /// Selector literal per delivery-model axiom group built so far.
    delivery_sels: Vec<(DeliveryModel, TermId)>,
    /// Selector literal per host property polarity built so far
    /// (`true` = negated properties, the violation query).
    prop_sels: Vec<(bool, TermId)>,
    /// Selector guarding the host trace's branch pins (`None` when the
    /// program is branch-free and there is nothing to pin).
    host_pin_sel: Option<TermId>,
    /// Sibling control-flow paths attached to this session.
    siblings: Vec<SiblingEntry>,
    /// Wall-clock µs spent building the core encoding and attaching
    /// sibling path groups, not yet attributed to a query (drained by
    /// [`CheckSession::take_pending_encode_us`]).
    pending_encode_us: u64,
}

impl CheckSession {
    /// Build the delivery-independent core for `(trace, pairs)`. Axiom
    /// groups are attached lazily by the first query that needs them; the
    /// host trace's branch pins are asserted immediately, guarded by the
    /// host path selector.
    pub fn new(
        program: &Program,
        trace: &Trace,
        pairs: &MatchPairs,
        unique_scope: UniqueScope,
    ) -> CheckSession {
        let built = std::time::Instant::now();
        let mut span = trace::span("symbolic.encode_core");
        let mut enc = encode_core(program, trace, pairs, unique_scope);
        span.arg("sat_vars", enc.solver.num_sat_vars() as u64)
            .arg("sat_clauses", enc.solver.num_sat_clauses() as u64);
        drop(span);
        let host_pin_sel = if enc.branch_terms.is_empty() {
            None
        } else {
            let sel = enc.solver.bool_var("sel_path_host");
            let pins = enc.branch_terms.clone();
            enc.assert_guarded(sel, pins);
            Some(sel)
        };
        CheckSession {
            enc,
            delivery_sels: Vec::new(),
            prop_sels: Vec::new(),
            host_pin_sel,
            siblings: Vec::new(),
            pending_encode_us: built.elapsed().as_micros() as u64,
        }
    }

    /// Encoding-build time accumulated since the last call, in µs. The
    /// query that triggered a core build or sibling attachment drains and
    /// reports it as its encode phase, so shared-session followers report
    /// (correctly) near-zero encode time.
    pub fn take_pending_encode_us(&mut self) -> u64 {
        std::mem::take(&mut self.pending_encode_us)
    }

    /// Attach a sibling control-flow path (same program, same
    /// communication skeleton, different branch outcomes) to this
    /// session. Its pins and local order chains are asserted guarded by a
    /// fresh selector; queries against it go through
    /// [`CheckSession::assumptions_for`] with the returned slot.
    pub fn attach_sibling_path(
        &mut self,
        program: &Program,
        trace: &Trace,
    ) -> Result<PathSlot, PathAttachError> {
        assert_eq!(
            self.enc.solver.num_scopes(),
            0,
            "path groups must be built outside per-query scopes"
        );
        let built = std::time::Instant::now();
        let _span = trace::span("symbolic.attach_path");
        let att = self.enc.build_path_attachment(program, trace)?;
        let sel = self
            .enc
            .solver
            .bool_var(format!("sel_path_{}", self.siblings.len()));
        self.enc.assert_guarded(sel, att.chains);
        self.enc.assert_guarded(sel, att.pins);
        self.siblings.push(SiblingEntry {
            clocks: att.clocks,
            props: att.props,
            sel,
            prop_sels: Vec::new(),
        });
        self.pending_encode_us += built.elapsed().as_micros() as u64;
        Ok(PathSlot::Sibling(self.siblings.len() - 1))
    }

    /// The selector guarding `delivery`'s axiom group, building the group
    /// on first use.
    fn delivery_selector(&mut self, delivery: DeliveryModel) -> TermId {
        if let Some(&(_, sel)) = self.delivery_sels.iter().find(|(d, _)| *d == delivery) {
            return sel;
        }
        assert_eq!(
            self.enc.solver.num_scopes(),
            0,
            "axiom groups must be built outside per-query scopes: clauses \
             added inside a scope die at the pop while the selector would \
             stay registered"
        );
        let sel = self.enc.solver.bool_var(format!("sel_delivery_{delivery}"));
        let axioms = self.enc.delivery_axioms(delivery);
        self.enc.assert_guarded(sel, axioms);
        self.delivery_sels.push((delivery, sel));
        sel
    }

    /// The selector guarding one property polarity of one path slot,
    /// building it on first use.
    fn prop_selector(&mut self, slot: PathSlot, negate_props: bool) -> TermId {
        let existing = match slot {
            PathSlot::Host => self.prop_sels.iter(),
            PathSlot::Sibling(i) => self.siblings[i].prop_sels.iter(),
        }
        .find(|(n, _)| *n == negate_props)
        .map(|&(_, sel)| sel);
        if let Some(sel) = existing {
            return sel;
        }
        assert_eq!(
            self.enc.solver.num_scopes(),
            0,
            "axiom groups must be built outside per-query scopes: clauses \
             added inside a scope die at the pop while the selector would \
             stay registered"
        );
        let polarity = if negate_props { "negated" } else { "positive" };
        match slot {
            PathSlot::Host => {
                let sel = self.enc.solver.bool_var(format!("sel_props_{polarity}"));
                let props = self.enc.props_term(negate_props);
                self.enc.assert_guarded(sel, [props]);
                self.prop_sels.push((negate_props, sel));
                sel
            }
            PathSlot::Sibling(i) => {
                let sel = self
                    .enc
                    .solver
                    .bool_var(format!("sel_props_path{i}_{polarity}"));
                let terms: Vec<TermId> = self.siblings[i].props.iter().map(|p| p.term).collect();
                let group = if negate_props {
                    let negs: Vec<TermId> =
                        terms.into_iter().map(|t| self.enc.solver.not(t)).collect();
                    self.enc.solver.or(negs)
                } else {
                    self.enc.solver.and(terms)
                };
                self.enc.assert_guarded(sel, [group]);
                self.siblings[i].prop_sels.push((negate_props, sel));
                sel
            }
        }
    }

    /// Assumption set activating exactly the `(delivery, negate_props)`
    /// query against the host path — the pre-paths API, unchanged.
    pub fn assumptions(&mut self, delivery: DeliveryModel, negate_props: bool) -> Vec<TermId> {
        self.assumptions_for(PathSlot::Host, delivery, negate_props)
    }

    /// Assumption set that activates exactly the `(slot, delivery,
    /// negate_props)` query: the chosen selectors assumed true, every
    /// other built group assumed **false** so its clauses are satisfied up
    /// front and cost nothing during search.
    pub fn assumptions_for(
        &mut self,
        slot: PathSlot,
        delivery: DeliveryModel,
        negate_props: bool,
    ) -> Vec<TermId> {
        let d_on = self.delivery_selector(delivery);
        let p_on = self.prop_selector(slot, negate_props);
        let path_on = match slot {
            PathSlot::Host => self.host_pin_sel,
            PathSlot::Sibling(i) => Some(self.siblings[i].sel),
        };
        let mut offs: Vec<TermId> = self
            .delivery_sels
            .iter()
            .filter(|(d, _)| *d != delivery)
            .map(|&(_, s)| s)
            .collect();
        // Polarity groups of the active slot (other polarity) and of every
        // other slot (both polarities).
        let host_active = slot == PathSlot::Host;
        offs.extend(
            self.prop_sels
                .iter()
                .filter(|(n, _)| !host_active || *n != negate_props)
                .map(|&(_, s)| s),
        );
        for (i, sib) in self.siblings.iter().enumerate() {
            let active = slot == PathSlot::Sibling(i);
            offs.extend(
                sib.prop_sels
                    .iter()
                    .filter(|(n, _)| !active || *n != negate_props)
                    .map(|&(_, s)| s),
            );
            if !active {
                offs.push(sib.sel);
            }
        }
        if !host_active {
            if let Some(sel) = self.host_pin_sel {
                offs.push(sel);
            }
        }
        let mut assumptions = vec![d_on, p_on];
        assumptions.extend(path_on);
        for s in offs {
            let ns = self.enc.solver.not(s);
            assumptions.push(ns);
        }
        self.enc.refresh_size_stats();
        assumptions
    }

    /// Clock terms of one path slot's trace events (for witness decoding).
    pub fn clocks_for(&self, slot: PathSlot) -> &[TermId] {
        match slot {
            PathSlot::Host => &self.enc.event_clocks,
            PathSlot::Sibling(i) => &self.siblings[i].clocks,
        }
    }

    /// Property terms of one path slot (for witness decoding).
    pub fn props_for(&self, slot: PathSlot) -> &[crate::encode::PropTerm] {
        match slot {
            PathSlot::Host => &self.enc.prop_terms,
            PathSlot::Sibling(i) => &self.siblings[i].props,
        }
    }

    /// Number of axiom groups (delivery models + host polarities) built so
    /// far; sibling-path groups are not counted.
    pub fn groups_built(&self) -> usize {
        self.delivery_sels.len() + self.prop_sels.len()
    }
}

/// A cache of [`CheckSession`]s keyed by (program, trace events, match
/// pairs), used by batched drivers to route every scenario of one grid
/// point — and, with the path-exploration layer, every sibling
/// control-flow path of one program — onto a shared encoding whenever
/// that is sound. A [`SessionPool::one_shot`] pool shares nothing: each
/// lookup gets a freshly built session.
#[derive(Default)]
pub struct SessionPool {
    entries: Vec<PoolEntry>,
    /// Build a fresh session for every lookup instead of sharing.
    one_shot: bool,
    /// Encodings actually built (cache misses).
    pub encodings_built: usize,
    /// Sibling paths attached to existing cores instead of re-encoding.
    pub paths_attached: usize,
}

struct PoolEntry {
    program: Program,
    trace: Trace,
    pairs: MatchPairs,
    comm_sig: Vec<Vec<CommSig>>,
    /// Event lists of attached sibling paths, parallel to the session's
    /// sibling slots.
    sibling_events: Vec<Vec<mcapi::trace::Event>>,
    session: CheckSession,
}

impl SessionPool {
    /// An empty pool that shares sessions.
    pub fn new() -> SessionPool {
        SessionPool::default()
    }

    /// A pool that answers every lookup with a freshly built session
    /// (dropping the previous one) and never reports reuse: every query
    /// encodes from scratch.
    pub fn one_shot() -> SessionPool {
        SessionPool {
            one_shot: true,
            ..SessionPool::default()
        }
    }

    /// Fetch the session for `(program, trace, pairs)`, building it on a
    /// miss. Returns the session, the path slot to query, and whether an
    /// existing encoding was reused.
    ///
    /// Sharing is keyed on the program (the encoder reads payload
    /// expressions, branch and assertion conditions from it — trace events
    /// alone don't carry those), the pair sets, and the trace: an exact
    /// match on the host trace's (or an attached sibling's) *events* reuses
    /// that slot — two delivery models frequently produce the same
    /// schedule — and otherwise a session whose trace has the same
    /// communication skeleton is reused by attaching this trace as a
    /// sibling control-flow path.
    pub fn session_for_path(
        &mut self,
        program: &Program,
        trace: &Trace,
        pairs: &MatchPairs,
    ) -> (&mut CheckSession, PathSlot, bool) {
        if self.one_shot {
            self.entries.clear();
            let i = self.build_entry(program, trace, pairs);
            return (&mut self.entries[i].session, PathSlot::Host, false);
        }
        // Exact host or sibling match first.
        for (i, e) in self.entries.iter().enumerate() {
            if e.program != *program || e.pairs.sends_for != pairs.sends_for {
                continue;
            }
            if e.trace.events == trace.events {
                return (&mut self.entries[i].session, PathSlot::Host, true);
            }
            if let Some(j) = e.sibling_events.iter().position(|ev| *ev == trace.events) {
                return (&mut self.entries[i].session, PathSlot::Sibling(j), true);
            }
        }
        // Comm-skeleton match: attach as a sibling path.
        let sig = trace.comm_signature(program.threads.len());
        let found = self.entries.iter().position(|e| {
            e.program == *program && e.pairs.sends_for == pairs.sends_for && e.comm_sig == sig
        });
        if let Some(i) = found {
            let attach = self.entries[i].session.attach_sibling_path(program, trace);
            if let Ok(slot) = attach {
                self.entries[i].sibling_events.push(trace.events.clone());
                self.paths_attached += 1;
                return (&mut self.entries[i].session, slot, true);
            }
            // Attachment refused (e.g. a branch arm feeds a send): fall
            // through to a fresh encoding, which is always sound.
        }
        let i = self.build_entry(program, trace, pairs);
        (&mut self.entries[i].session, PathSlot::Host, false)
    }

    fn build_entry(&mut self, program: &Program, trace: &Trace, pairs: &MatchPairs) -> usize {
        self.encodings_built += 1;
        let session = CheckSession::new(program, trace, pairs, UniqueScope::default());
        self.entries.push(PoolEntry {
            program: program.clone(),
            trace: trace.clone(),
            pairs: pairs.clone(),
            comm_sig: trace.comm_signature(program.threads.len()),
            sibling_events: Vec::new(),
            session,
        });
        self.entries.len() - 1
    }

    /// Sessions currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{generate_trace, CheckConfig};
    use crate::matchpairs::{overapprox_match_pairs, precise_match_pairs};
    use smt::SatResult;

    fn fig1() -> Program {
        workloads_free_fig1()
    }

    // A local copy of the paper's Fig. 1 (the workloads crate depends on
    // this crate, so tests build programs by hand).
    fn workloads_free_fig1() -> Program {
        use mcapi::builder::ProgramBuilder;
        let mut b = ProgramBuilder::new("fig1");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        b.recv(t0, 0);
        b.recv(t0, 0);
        b.recv(t1, 0);
        b.send_const(t1, t0, 0, 100);
        b.send_const(t2, t0, 0, 200);
        b.send_const(t2, t1, 0, 300);
        b.build().unwrap()
    }

    #[test]
    fn one_session_serves_every_delivery_model() {
        let p = fig1();
        let cfg = CheckConfig::default();
        let trace = generate_trace(&p, &cfg);
        let pairs = overapprox_match_pairs(&p, &trace);
        let mut session = CheckSession::new(&p, &trace, &pairs, UniqueScope::default());
        // fig1 has no assertions: the violation query is UNSAT under every
        // delivery model, from one shared encoding.
        for delivery in mcapi::types::DeliveryModel::ALL {
            let assumptions = session.assumptions(delivery, true);
            assert_eq!(
                session.enc.solver.check_assuming(&assumptions),
                SatResult::Unsat,
                "{delivery}"
            );
        }
        assert_eq!(
            session.groups_built(),
            4,
            "three delivery groups + one polarity"
        );
    }

    #[test]
    fn polarity_groups_coexist() {
        let p = fig1();
        let cfg = CheckConfig::default();
        let trace = generate_trace(&p, &cfg);
        let pairs = precise_match_pairs(&p, &trace, DeliveryModel::Unordered);
        let mut session = CheckSession::new(&p, &trace, &pairs, UniqueScope::default());
        let violation = session.assumptions(DeliveryModel::Unordered, true);
        assert_eq!(
            session.enc.solver.check_assuming(&violation),
            SatResult::Unsat
        );
        // Behaviour enumeration (positive properties) on the same solver.
        let behaviours = session.assumptions(DeliveryModel::Unordered, false);
        assert_eq!(
            session.enc.solver.check_assuming(&behaviours),
            SatResult::Sat
        );
        // And back: the polarity groups do not poison one another.
        let violation = session.assumptions(DeliveryModel::Unordered, true);
        assert_eq!(
            session.enc.solver.check_assuming(&violation),
            SatResult::Unsat
        );
    }

    #[test]
    fn pool_shares_by_trace_and_pairs() {
        let p = fig1();
        let cfg = CheckConfig::default();
        let trace = generate_trace(&p, &cfg);
        let over = overapprox_match_pairs(&p, &trace);
        let precise = precise_match_pairs(&p, &trace, DeliveryModel::Unordered);
        let mut pool = SessionPool::new();
        let (_, slot, reused) = pool.session_for_path(&p, &trace, &over);
        assert_eq!((slot, reused), (PathSlot::Host, false));
        let (_, slot, reused) = pool.session_for_path(&p, &trace, &over);
        assert_eq!(slot, PathSlot::Host);
        assert!(reused, "identical (trace, pairs) must share");
        // fig1's precise and over-approximate pair sets coincide, so the
        // generators share one session too.
        assert_eq!(precise.sends_for, over.sends_for);
        let (_, _, reused) = pool.session_for_path(&p, &trace, &precise);
        assert!(reused);
        assert_eq!(pool.encodings_built, 1);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn one_shot_pool_builds_every_lookup_afresh() {
        let p = fig1();
        let trace = generate_trace(&p, &CheckConfig::default());
        let pairs = overapprox_match_pairs(&p, &trace);
        let mut pool = SessionPool::one_shot();
        for _ in 0..2 {
            let (_, slot, reused) = pool.session_for_path(&p, &trace, &pairs);
            assert_eq!((slot, reused), (PathSlot::Host, false));
        }
        assert_eq!(pool.encodings_built, 2);
        assert_eq!(pool.len(), 1, "the previous session is dropped");
    }

    /// A branchy program whose two paths share one communication skeleton:
    /// a consumer receives once, branches on the value, and each arm only
    /// does local work. Payloads 5, 8 and 50 make both arms concretely
    /// realizable without a violation, while the else-arm assertion
    /// (`v == 5`) is symbolically violable by the send of 8.
    fn branchy_two_paths() -> Program {
        use mcapi::builder::ProgramBuilder;
        use mcapi::expr::{Cond, Expr};
        use mcapi::program::Op;
        use mcapi::types::CmpOp;
        let mut b = ProgramBuilder::new("two-paths");
        let c = b.thread("consumer");
        let p1 = b.thread("p1");
        let p2 = b.thread("p2");
        let p3 = b.thread("p3");
        let v = b.recv(c, 0);
        b.push_op(
            c,
            Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(10)),
                then_ops: vec![Op::Assert {
                    cond: Cond::cmp(CmpOp::Le, Expr::Var(v), Expr::Const(100)),
                    message: "high within bound".into(),
                }],
                else_ops: vec![Op::Assert {
                    cond: Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(5)),
                    message: "low must be the primary token".into(),
                }],
            },
        );
        b.recv(c, 0);
        b.recv(c, 0);
        b.send_const(p1, c, 0, 5);
        b.send_const(p2, c, 0, 8);
        b.send_const(p3, c, 0, 50);
        b.build().unwrap()
    }

    /// A complete, non-violating trace whose first branch went `want`.
    fn clean_trace_with_outcome(p: &Program, want: bool) -> Trace {
        use mcapi::runtime::execute_random;
        for seed in 0..2000 {
            let out = execute_random(p, DeliveryModel::Unordered, seed);
            if out.trace.is_complete()
                && out.violation().is_none()
                && out.trace.branch_outcomes(0) == vec![want]
            {
                return out.trace;
            }
        }
        panic!("no clean trace with outcome {want}");
    }

    #[test]
    fn sibling_paths_share_one_core_encoding() {
        let p = branchy_two_paths();
        let t_then = clean_trace_with_outcome(&p, true);
        let t_else = clean_trace_with_outcome(&p, false);
        assert_ne!(t_then.events, t_else.events);
        let pairs_then = overapprox_match_pairs(&p, &t_then);
        let pairs_else = overapprox_match_pairs(&p, &t_else);
        let mut pool = SessionPool::new();
        let (_, slot, reused) = pool.session_for_path(&p, &t_then, &pairs_then);
        assert_eq!(slot, PathSlot::Host);
        assert!(!reused);
        let (_, slot, reused) = pool.session_for_path(&p, &t_else, &pairs_else);
        assert_eq!(slot, PathSlot::Sibling(0), "sibling attaches to the core");
        assert!(reused);
        assert_eq!(pool.encodings_built, 1, "one core for both paths");
        assert_eq!(pool.paths_attached, 1);
        // Re-requesting the sibling finds the attached slot.
        let (_, slot, reused) = pool.session_for_path(&p, &t_else, &pairs_else);
        assert_eq!(slot, PathSlot::Sibling(0));
        assert!(reused);

        // Both paths answer their violation queries from the one solver:
        // no payload exceeds 100, so the then-arm assertion cannot fail
        // (host query UNSAT), while the else-arm assertion `v == 5` is
        // violated by matching the receive with the send of 8 (SAT).
        let (session, _, _) = pool.session_for_path(&p, &t_then, &pairs_then);
        let host_q = session.assumptions_for(PathSlot::Host, DeliveryModel::Unordered, true);
        assert_eq!(session.enc.solver.check_assuming(&host_q), SatResult::Unsat);
        let sib_q = session.assumptions_for(PathSlot::Sibling(0), DeliveryModel::Unordered, true);
        assert_eq!(
            session.enc.solver.check_assuming(&sib_q),
            SatResult::Sat,
            "the else-arm assertion (v == 5) is violated by the send of 8"
        );
        // And back to the host: the sibling group did not poison it.
        let host_q = session.assumptions_for(PathSlot::Host, DeliveryModel::Unordered, true);
        assert_eq!(session.enc.solver.check_assuming(&host_q), SatResult::Unsat);
    }

    #[test]
    fn value_mismatched_siblings_fall_back_to_fresh_encodings() {
        use mcapi::builder::ProgramBuilder;
        use mcapi::expr::{Cond, Expr};
        use mcapi::program::Op;
        use mcapi::sched::{execute_directed, BranchPlan, DirectedConfig, DirectedOutcome};
        use mcapi::types::CmpOp;
        // The branch arm assigns the variable a send later reads: the two
        // paths' send payloads differ symbolically, so the attachment must
        // refuse and the pool must build a second encoding.
        let mut b = ProgramBuilder::new("arm-feeds-send");
        let c = b.thread("relay");
        let p1 = b.thread("p1");
        let p2 = b.thread("p2");
        let sink = b.thread("sink");
        let v = b.recv(c, 0);
        b.push_op(
            c,
            Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(10)),
                then_ops: vec![Op::Assign {
                    var: v,
                    expr: Expr::Const(1),
                }],
                else_ops: vec![Op::Assign {
                    var: v,
                    expr: Expr::Const(2),
                }],
            },
        );
        b.send_var(c, sink, 0, v);
        b.recv(c, 0);
        b.recv(sink, 0);
        b.send_const(p1, c, 0, 5);
        b.send_const(p2, c, 0, 50);
        let p = b.build().unwrap();
        let realize = |outcome: bool| {
            let plan = BranchPlan {
                outcomes: vec![vec![outcome], vec![], vec![], vec![]],
            };
            match execute_directed(
                &p,
                DeliveryModel::Unordered,
                &plan,
                DirectedConfig::default(),
            ) {
                DirectedOutcome::Realized(out) => out.trace,
                other => panic!("expected realizable, got {other:?}"),
            }
        };
        let t_then = realize(true);
        let t_else = realize(false);
        let pairs_then = overapprox_match_pairs(&p, &t_then);
        let pairs_else = overapprox_match_pairs(&p, &t_else);
        let mut pool = SessionPool::new();
        let (_, _, reused) = pool.session_for_path(&p, &t_then, &pairs_then);
        assert!(!reused);
        let (_, slot, reused) = pool.session_for_path(&p, &t_else, &pairs_else);
        assert_eq!(slot, PathSlot::Host, "value mismatch forces a fresh core");
        assert!(!reused);
        assert_eq!(pool.encodings_built, 2);
        assert_eq!(pool.paths_attached, 0);
    }
}
