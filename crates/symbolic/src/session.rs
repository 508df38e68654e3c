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
//! **Paths as first-class groups.** A session's paths are the entries of
//! [`Encoding::paths`], and a query names one by index. Path 0 is the trace
//! the core was built from; its branch pins (the paper's `PEvents` outcome
//! constraints) live behind a path selector rather than being
//! hard-asserted. Further paths of the same program — traces that issue
//! the identical communication operations but resolve branches
//! differently — attach their own pins, local-event order chains and
//! assertion terms behind their own selectors
//! ([`crate::encode::Encoding::attach_path`]), and so reuse the expensive
//! shared core (match disjunctions, uniqueness, delivery axioms, learned
//! clauses) instead of re-encoding per path.
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

use crate::encode::{encode_core, Encoding, PathAttachError};
use crate::matchpairs::MatchPairs;
use mcapi::program::Program;
use mcapi::trace::{CommSig, Event, Trace};
use mcapi::types::DeliveryModel;
use smt::TermId;

/// The selectors of one path's groups on a session.
struct PathSels {
    /// Guards the path's pins and order chains (`None` for a path 0
    /// without branch pins: there is nothing to guard).
    pins: Option<TermId>,
    /// Property polarity selectors, built lazily (`true` = negated
    /// properties, the violation query).
    props: Vec<(bool, TermId)>,
}

/// A shared-encoding solver session; see the module docs.
pub struct CheckSession {
    /// The shared core encoding plus the solver hosting every axiom group.
    pub enc: Encoding,
    /// Selector literal per delivery-model axiom group built so far.
    delivery_sels: Vec<(DeliveryModel, TermId)>,
    /// Selectors per path, parallel to `enc.paths`.
    path_sels: Vec<PathSels>,
    /// Wall-clock µs spent building the core encoding and attaching
    /// further paths, not yet attributed to a query (drained by
    /// [`CheckSession::take_pending_encode_us`]).
    pending_encode_us: u64,
}

impl CheckSession {
    /// Build the delivery-independent core for `(trace, pairs)`, with the
    /// trace as path 0. Axiom groups are attached lazily by the first query
    /// that needs them; path 0's branch pins are asserted immediately,
    /// guarded by its path selector.
    pub fn new(program: &Program, trace: &Trace, pairs: &MatchPairs) -> CheckSession {
        let built = std::time::Instant::now();
        let mut span = trace::span("symbolic.encode_core");
        let mut enc = encode_core(program, trace, pairs);
        span.arg("sat_vars", enc.solver.num_sat_vars() as u64)
            .arg("sat_clauses", enc.solver.num_sat_clauses() as u64);
        drop(span);
        let pins = (!enc.paths[0].pins.is_empty()).then(|| {
            let sel = enc.solver.bool_var("sel_path_0");
            let pins = enc.paths[0].pins.clone();
            enc.assert_guarded(sel, pins);
            sel
        });
        CheckSession {
            enc,
            delivery_sels: Vec::new(),
            path_sels: vec![PathSels {
                pins,
                props: Vec::new(),
            }],
            pending_encode_us: built.elapsed().as_micros() as u64,
        }
    }

    /// Encoding-build time accumulated since the last call, in µs. The
    /// query that triggered a core build or path attachment drains and
    /// reports it as its encode phase, so shared-session followers report
    /// (correctly) near-zero encode time.
    pub fn take_pending_encode_us(&mut self) -> u64 {
        std::mem::take(&mut self.pending_encode_us)
    }

    /// Attach another control-flow path (same program, same communication
    /// skeleton, different branch outcomes) to this session and return its
    /// path index. Its pins and local order chains are asserted guarded by
    /// a fresh selector.
    pub fn attach_path(
        &mut self,
        program: &Program,
        trace: &Trace,
    ) -> Result<usize, PathAttachError> {
        self.assert_outside_scopes();
        let built = std::time::Instant::now();
        let _span = trace::span("symbolic.attach_path");
        let path = self.enc.attach_path(program, trace)?;
        let sel = self.enc.solver.bool_var(format!("sel_path_{path}"));
        let terms = &self.enc.paths[path];
        let guarded: Vec<TermId> = terms.chains.iter().chain(&terms.pins).copied().collect();
        self.enc.assert_guarded(sel, guarded);
        self.path_sels.push(PathSels {
            pins: Some(sel),
            props: Vec::new(),
        });
        self.pending_encode_us += built.elapsed().as_micros() as u64;
        Ok(path)
    }

    /// Groups are permanent, so they must be built outside per-query
    /// scopes: clauses added inside a scope die at the pop while the
    /// selector would stay registered.
    fn assert_outside_scopes(&self) {
        assert_eq!(
            self.enc.solver.num_scopes(),
            0,
            "axiom groups must be built outside per-query scopes"
        );
    }

    /// The selector guarding `delivery`'s axiom group, building the group
    /// on first use.
    fn delivery_selector(&mut self, delivery: DeliveryModel) -> TermId {
        if let Some(&(_, sel)) = self.delivery_sels.iter().find(|(d, _)| *d == delivery) {
            return sel;
        }
        self.assert_outside_scopes();
        let sel = self.enc.solver.bool_var(format!("sel_delivery_{delivery}"));
        let axioms = self.enc.delivery_axioms(delivery);
        self.enc.assert_guarded(sel, axioms);
        self.delivery_sels.push((delivery, sel));
        sel
    }

    /// The selector guarding one property polarity of one path, building
    /// it on first use.
    fn prop_selector(&mut self, path: usize, negate_props: bool) -> TermId {
        let sels = &self.path_sels[path].props;
        if let Some(&(_, sel)) = sels.iter().find(|(n, _)| *n == negate_props) {
            return sel;
        }
        self.assert_outside_scopes();
        let polarity = if negate_props { "negated" } else { "positive" };
        let sel = self
            .enc
            .solver
            .bool_var(format!("sel_props_path{path}_{polarity}"));
        let props = self.enc.props_term(path, negate_props);
        self.enc.assert_guarded(sel, [props]);
        self.path_sels[path].props.push((negate_props, sel));
        sel
    }

    /// Assumption set that activates exactly the `(path, delivery,
    /// negate_props)` query: the chosen selectors assumed true, every
    /// other built group assumed **false** so its clauses are satisfied up
    /// front and cost nothing during search.
    pub fn assumptions_for(
        &mut self,
        path: usize,
        delivery: DeliveryModel,
        negate_props: bool,
    ) -> Vec<TermId> {
        let d_on = self.delivery_selector(delivery);
        let p_on = self.prop_selector(path, negate_props);
        let mut offs: Vec<TermId> = self
            .delivery_sels
            .iter()
            .filter(|(d, _)| *d != delivery)
            .map(|&(_, s)| s)
            .collect();
        // Polarity groups of the active path (other polarity) and of every
        // other path (both polarities), then the other paths' pins.
        // Assumption order steers the SAT core's trail reuse and so its
        // counters, which the perf gate pins: path 0's pin selector goes
        // last.
        for (i, sels) in self.path_sels.iter().enumerate() {
            offs.extend(
                sels.props
                    .iter()
                    .filter(|(n, _)| i != path || *n != negate_props)
                    .map(|&(_, s)| s),
            );
            if i != 0 && i != path {
                offs.extend(sels.pins);
            }
        }
        if path != 0 {
            offs.extend(self.path_sels[0].pins);
        }
        let mut assumptions = vec![d_on, p_on];
        assumptions.extend(self.path_sels[path].pins);
        for s in offs {
            let ns = self.enc.solver.not(s);
            assumptions.push(ns);
        }
        self.enc.refresh_size_stats();
        assumptions
    }

    /// Number of axiom groups (delivery models + path 0's polarities)
    /// built so far; other paths' groups are not counted.
    pub fn groups_built(&self) -> usize {
        self.delivery_sels.len() + self.path_sels[0].props.len()
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
    pairs: MatchPairs,
    comm_sig: Vec<Vec<CommSig>>,
    /// Event list per path, parallel to the session's paths (path 0 is the
    /// trace the core was built from).
    path_events: Vec<Vec<Event>>,
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
    /// miss. Returns the session, the index of the path to query, and
    /// whether an existing encoding was reused.
    ///
    /// Sharing is keyed on the program (the encoder reads payload
    /// expressions, branch and assertion conditions from it — trace events
    /// alone don't carry those), the pair sets, and the trace: an exact
    /// match on the *events* of one of a session's paths reuses that path —
    /// two delivery models frequently produce the same schedule — and
    /// otherwise a session whose trace has the same communication skeleton
    /// is reused by attaching this trace as a further path.
    pub fn session_for_path(
        &mut self,
        program: &Program,
        trace: &Trace,
        pairs: &MatchPairs,
    ) -> (&mut CheckSession, usize, bool) {
        if self.one_shot {
            self.entries.clear();
            let i = self.build_entry(program, trace, pairs);
            return (&mut self.entries[i].session, 0, false);
        }
        let shares = |e: &PoolEntry| e.program == *program && e.pairs.sends_for == pairs.sends_for;
        // Exact path match first.
        for (i, e) in self.entries.iter().enumerate() {
            if !shares(e) {
                continue;
            }
            if let Some(path) = e.path_events.iter().position(|ev| *ev == trace.events) {
                return (&mut self.entries[i].session, path, true);
            }
        }
        // Comm-skeleton match: attach as a further path.
        let sig = trace.comm_signature(program.threads.len());
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| shares(e) && e.comm_sig == sig)
        {
            let e = &mut self.entries[i];
            // A refused attachment (e.g. a branch arm feeds a send) falls
            // through to a fresh encoding, which is always sound.
            if let Ok(path) = e.session.attach_path(program, trace) {
                e.path_events.push(trace.events.clone());
                self.paths_attached += 1;
                return (&mut self.entries[i].session, path, true);
            }
        }
        let i = self.build_entry(program, trace, pairs);
        (&mut self.entries[i].session, 0, false)
    }

    fn build_entry(&mut self, program: &Program, trace: &Trace, pairs: &MatchPairs) -> usize {
        self.encodings_built += 1;
        let session = CheckSession::new(program, trace, pairs);
        self.entries.push(PoolEntry {
            program: program.clone(),
            pairs: pairs.clone(),
            comm_sig: trace.comm_signature(program.threads.len()),
            path_events: vec![trace.events.clone()],
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
    use crate::witness::{decode_witness, replay_witness, ReplayVerdict};
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
        let pairs = overapprox_match_pairs(&trace);
        let mut session = CheckSession::new(&p, &trace, &pairs);
        // fig1 has no assertions: the violation query is UNSAT under every
        // delivery model, from one shared encoding.
        for delivery in mcapi::types::DeliveryModel::ALL {
            let assumptions = session.assumptions_for(0, delivery, true);
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
        let mut session = CheckSession::new(&p, &trace, &pairs);
        let violation = session.assumptions_for(0, DeliveryModel::Unordered, true);
        assert_eq!(
            session.enc.solver.check_assuming(&violation),
            SatResult::Unsat
        );
        // Behaviour enumeration (positive properties) on the same solver.
        let behaviours = session.assumptions_for(0, DeliveryModel::Unordered, false);
        assert_eq!(
            session.enc.solver.check_assuming(&behaviours),
            SatResult::Sat
        );
        // And back: the polarity groups do not poison one another.
        let violation = session.assumptions_for(0, DeliveryModel::Unordered, true);
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
        let over = overapprox_match_pairs(&trace);
        let precise = precise_match_pairs(&p, &trace, DeliveryModel::Unordered);
        let mut pool = SessionPool::new();
        let (_, path, reused) = pool.session_for_path(&p, &trace, &over);
        assert_eq!((path, reused), (0, false));
        let (_, path, reused) = pool.session_for_path(&p, &trace, &over);
        assert_eq!(path, 0);
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
        let pairs = overapprox_match_pairs(&trace);
        let mut pool = SessionPool::one_shot();
        for _ in 0..2 {
            let (_, path, reused) = pool.session_for_path(&p, &trace, &pairs);
            assert_eq!((path, reused), (0, false));
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
        let pairs_then = overapprox_match_pairs(&t_then);
        let pairs_else = overapprox_match_pairs(&t_else);
        let mut pool = SessionPool::new();
        let (_, path, reused) = pool.session_for_path(&p, &t_then, &pairs_then);
        assert_eq!(path, 0);
        assert!(!reused);
        let (_, path, reused) = pool.session_for_path(&p, &t_else, &pairs_else);
        assert_eq!(path, 1, "sibling attaches to the core");
        assert!(reused);
        assert_eq!(pool.encodings_built, 1, "one core for both paths");
        assert_eq!(pool.paths_attached, 1);
        // Re-requesting the sibling finds the attached path.
        let (_, path, reused) = pool.session_for_path(&p, &t_else, &pairs_else);
        assert_eq!(path, 1);
        assert!(reused);

        // Both paths answer their violation queries from the one solver:
        // no payload exceeds 100, so the then-arm assertion cannot fail
        // (host query UNSAT), while the else-arm assertion `v == 5` is
        // violated by matching the receive with the send of 8 (SAT).
        let (session, _, _) = pool.session_for_path(&p, &t_then, &pairs_then);
        let host_q = session.assumptions_for(0, DeliveryModel::Unordered, true);
        assert_eq!(session.enc.solver.check_assuming(&host_q), SatResult::Unsat);
        let sib_q = session.assumptions_for(1, DeliveryModel::Unordered, true);
        assert_eq!(
            session.enc.solver.check_assuming(&sib_q),
            SatResult::Sat,
            "the else-arm assertion (v == 5) is violated by the send of 8"
        );
        // The sibling's model decodes against its own clocks and
        // properties and replays to a real violation on its own trace.
        let model = session.enc.solver.model().expect("model after SAT").clone();
        let w = decode_witness(&session.enc, &model, 1);
        assert_eq!(w.clocks.len(), t_else.events.len());
        assert_eq!(
            w.violated,
            vec!["low must be the primary token".to_string()]
        );
        assert!(matches!(
            replay_witness(&p, &t_else, &w, DeliveryModel::Unordered),
            ReplayVerdict::Confirmed { .. }
        ));
        // And back to the host: the sibling group did not poison it.
        let host_q = session.assumptions_for(0, DeliveryModel::Unordered, true);
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
        let pairs_then = overapprox_match_pairs(&t_then);
        let pairs_else = overapprox_match_pairs(&t_else);
        let mut pool = SessionPool::new();
        let (_, _, reused) = pool.session_for_path(&p, &t_then, &pairs_then);
        assert!(!reused);
        let (_, path, reused) = pool.session_for_path(&p, &t_else, &pairs_else);
        assert_eq!(path, 0, "value mismatch forces a fresh core");
        assert!(!reused);
        assert_eq!(pool.encodings_built, 2);
        assert_eq!(pool.paths_attached, 0);
    }
}
