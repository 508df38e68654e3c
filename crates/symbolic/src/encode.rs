//! The SMT encoding: `P = POrder /\ PMatchPairs /\ PUnique /\ !PProp /\ PEvents`.
//!
//! Every trace event gets a fresh integer *clock* variable; per-thread
//! program order chains clocks strictly (`POrder`). Each send gets a fixed
//! integer identifier and a symbolic value term (its payload expression
//! under the thread's SSA environment); each receive gets an unbound
//! identifier variable and a fresh value variable. `PMatchPairs` and
//! `PUnique` are literal implementations of the paper's Fig. 2 and Fig. 3
//! algorithms. `PEvents` pins branch outcomes to the trace and carries the
//! SSA data flow; `PProp` collects the program's assertions, negated for
//! violation queries.
//!
//! The delivery models other than the paper's arbitrary-delay network add
//! ordering axioms to `POrder`, built per model by
//! [`Encoding::delivery_axioms`]. They stay linear in the match pairs: each
//! receive gets one send-clock variable `sc(r)`, bound to the clock of the
//! send it consumes, and the receives of each ordered send group (an
//! endpoint under zero delay, a source-destination channel under pairwise
//! FIFO) are ordered pairwise by those clocks, O(R²) per group.
//!
//! The per-path parts — event clocks, branch pins, local order chains and
//! assertion terms — live in [`Encoding::paths`]. Path 0 is the trace
//! [`encode_core`] was built from; [`Encoding::attach_path`] maps further
//! control-flow paths with the same communication skeleton onto the shared
//! core as paths 1, 2, ….
//!
//! All constraints are Boolean combinations of difference atoms, so the
//! in-tree DPLL(T) solver ([`smt::SmtSolver`]) decides them exactly as
//! Yices would for the paper.

use crate::matchpairs::MatchPairs;
use mcapi::expr::{Cond, Expr};
use mcapi::program::{Instr, Program};
use mcapi::trace::{EventKind, Trace};
use mcapi::types::{DeliveryModel, EndpointAddr, Matching, MsgId, RecvKey};
use smt::{Model, SmtSolver, TermId};
use std::collections::{BTreeMap, HashMap};

/// Encoding options.
#[derive(Clone, Copy, Debug)]
pub struct EncodeOptions {
    /// Delivery-model ordering axioms added to `POrder`:
    /// `Unordered` adds none (the paper's network), `PairwiseFifo` adds the
    /// MCAPI per-pair ordering, `ZeroDelay` reproduces the MCC /
    /// Elwakil&Yang instant-delivery model (the incomplete baseline).
    pub delivery: DeliveryModel,
    /// `true`: assert `!PProp` (SAT = property violation — the paper's
    /// query). `false`: assert `PProp` (models are valid passing
    /// executions — used for behaviour enumeration).
    pub negate_props: bool,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            delivery: DeliveryModel::Unordered,
            negate_props: true,
        }
    }
}

/// A send operation's symbolic footprint.
#[derive(Clone, Copy, Debug)]
pub struct SendVar {
    pub msg: MsgId,
    pub event_idx: usize,
    /// The unique identifier constant the trace analysis assigns (Fig. 2).
    pub id: i64,
    pub clock: TermId,
    pub val: TermId,
    pub to: EndpointAddr,
}

/// A receive operation's symbolic footprint.
#[derive(Clone, Copy, Debug)]
pub struct RecvVar {
    pub key: RecvKey,
    pub event_idx: usize,
    /// Unbound identifier variable the solver binds to a send id (Fig. 2).
    pub id_term: TermId,
    /// Fresh variable for the received value.
    pub val: TermId,
    /// The clock the match is ordered against: the receive's own clock for
    /// blocking receives, the associated wait's clock for non-blocking
    /// receives (the paper's rule).
    pub clock_obs: TermId,
    pub endpoint: EndpointAddr,
}

/// One program assertion, symbolically evaluated at its trace position.
#[derive(Clone, Debug)]
pub struct PropTerm {
    pub term: TermId,
    pub message: String,
    pub thread: usize,
    pub pc: usize,
}

/// Size counters for the generated formula.
#[derive(Clone, Copy, Debug, Default)]
pub struct EncodeStats {
    /// Total width of the Fig. 2 disjunctions (number of match literals).
    pub match_disjuncts: usize,
    /// Number of Fig. 3 uniqueness assertions.
    pub unique_pairs: usize,
    /// Program-order plus delivery-model ordering assertions.
    pub order_constraints: usize,
    /// Branch-outcome constraints (PEvents).
    pub event_constraints: usize,
    /// Collected assertion properties.
    pub props: usize,
    /// SAT problem size after encoding.
    pub sat_vars: usize,
    pub sat_clauses: usize,
    pub theory_atoms: usize,
}

/// One control-flow path's terms on an [`Encoding`]. Nothing here is
/// asserted: [`encode`] asserts path 0's pins directly, while the session
/// layer guards each path's pins and chains behind a path selector so
/// every path shares one core (see [`crate::session::CheckSession`]).
#[derive(Clone, Debug, Default)]
pub struct PathTerms {
    /// Clock term per event of the path's trace.
    pub clocks: Vec<TermId>,
    /// Branch-outcome pins (PEvents).
    pub pins: Vec<TermId>,
    /// Program-order chain terms involving the path's local events (empty
    /// for path 0, whose chains are part of the core).
    pub chains: Vec<TermId>,
    /// Assertion properties under the path's own SSA data flow.
    pub props: Vec<PropTerm>,
}

/// The generated SMT problem plus decoding tables.
pub struct Encoding {
    pub solver: SmtSolver,
    pub sends: Vec<SendVar>,
    pub recvs: Vec<RecvVar>,
    /// Per-path terms; path 0 is the trace the core was built from.
    pub paths: Vec<PathTerms>,
    /// Per-thread event indices of path 0's communication events, used to
    /// map further paths' traces onto the shared clock variables.
    comm_event_idx: Vec<Vec<usize>>,
    /// Per receive (in `recvs` order), the indices into `sends` of its
    /// Fig. 2 candidates.
    cands: Vec<Vec<usize>>,
    pub stats: EncodeStats,
}

/// Why a trace could not be attached to an existing core as a further path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathAttachError {
    /// The communication skeletons differ (event kind/pc mismatch).
    SkeletonMismatch,
    /// A send's symbolic payload differs between the paths (an assignment
    /// in a branch arm feeds the send), so the cores are not shareable.
    ValueMismatch,
}

impl Encoding {
    /// The receive identifier terms, in `recvs` order (all-SAT projection).
    pub fn id_terms(&self) -> Vec<TermId> {
        self.recvs.iter().map(|r| r.id_term).collect()
    }

    /// Build (without asserting) the ordering axioms of one delivery model
    /// over this encoding's sends and receives. `Unordered` has none — the
    /// paper's network adds no constraints beyond program order; the
    /// ordered models are linear in the match pairs plus O(R²) per ordered
    /// send group (see `delivery_axiom_terms`). The session layer asserts
    /// these guarded by a selector literal; the one-shot [`encode`] asserts
    /// them directly.
    pub fn delivery_axioms(&mut self, delivery: DeliveryModel) -> Vec<TermId> {
        delivery_axiom_terms(
            &mut self.solver,
            &self.sends,
            &self.recvs,
            &self.cands,
            delivery,
            &mut self.stats,
        )
    }

    /// One path's property side of the query as a single term: `negate =
    /// true` yields "some assertion is violated" (the paper's violation
    /// query), `negate = false` yields "every assertion holds" (behaviour
    /// enumeration). Not asserted — callers assert it directly or guard it
    /// behind a selector.
    pub fn props_term(&mut self, path: usize, negate: bool) -> TermId {
        let terms: Vec<TermId> = self.paths[path].props.iter().map(|p| p.term).collect();
        if negate {
            let negs: Vec<TermId> = terms.into_iter().map(|t| self.solver.not(t)).collect();
            self.solver.or(negs) // empty -> false: nothing to violate
        } else {
            self.solver.and(terms)
        }
    }

    /// Assert each term directly (the one-shot, delivery-pinned shape).
    pub fn assert_terms(&mut self, terms: impl IntoIterator<Item = TermId>) {
        for t in terms {
            self.solver.assert_term(t);
        }
    }

    /// Assert `sel -> t` for each term: the axiom group is active exactly
    /// when `sel` is assumed true, so one clause database can host every
    /// delivery model (and both property polarities) side by side.
    pub fn assert_guarded(&mut self, sel: TermId, terms: impl IntoIterator<Item = TermId>) {
        for t in terms {
            let imp = self.solver.implies(sel, t);
            self.solver.assert_term(imp);
        }
    }

    /// Refresh the SAT-problem size counters after incremental additions.
    pub fn refresh_size_stats(&mut self) {
        self.stats.sat_vars = self.solver.num_sat_vars();
        self.stats.sat_clauses = self.solver.num_sat_clauses();
        self.stats.theory_atoms = self.solver.num_theory_atoms();
    }

    /// Map another control-flow path's trace onto this core encoding and
    /// return its path index.
    ///
    /// The trace must issue the same communication operations from the
    /// same program counters as path 0
    /// ([`mcapi::trace::Trace::comm_signature`] equality is the caller's
    /// cheap pre-filter); this walk re-derives the trace's SSA data flow
    /// and verifies every send's symbolic payload coincides with path 0's
    /// (terms are hash-consed, so structural equality is `TermId`
    /// equality). On success the new path's terms are pushed unasserted —
    /// the caller guards its pins and chains behind a path selector.
    pub fn attach_path(
        &mut self,
        program: &Program,
        trace: &Trace,
    ) -> Result<usize, PathAttachError> {
        let n = program.threads.len();
        if self.comm_event_idx.len() != n {
            return Err(PathAttachError::SkeletonMismatch);
        }
        let zero = self.solver.int_const(0);
        let mut env: Vec<Vec<TermId>> = program
            .threads
            .iter()
            .map(|t| vec![zero; t.num_vars])
            .collect();
        let send_by_msg: HashMap<MsgId, usize> = self
            .sends
            .iter()
            .enumerate()
            .map(|(i, s)| (s.msg, i))
            .collect();
        let recv_by_key: HashMap<RecvKey, usize> = self
            .recvs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.key, i))
            .collect();
        let mut comm_pos = vec![0usize; n];
        let mut recv_counts = vec![0usize; n];
        let mut prev_clock: Vec<Option<TermId>> = vec![None; n];
        let mut path = PathTerms {
            clocks: Vec::with_capacity(trace.events.len()),
            ..PathTerms::default()
        };
        for ev in &trace.events {
            let t = ev.thread;
            if t >= n || ev.pc >= program.threads[t].code.len() {
                return Err(PathAttachError::SkeletonMismatch);
            }
            let instr = program.threads[t].code[ev.pc].clone();
            let is_comm = matches!(
                ev.kind,
                EventKind::Send { .. }
                    | EventKind::Recv { .. }
                    | EventKind::RecvPost { .. }
                    | EventKind::WaitRecv { .. }
                    | EventKind::WaitNoop { .. }
            );
            let clock = if is_comm {
                // Reuse path 0's clock variable for the aligned
                // communication event.
                let &core_idx = self
                    .comm_event_idx
                    .get(t)
                    .and_then(|v| v.get(comm_pos[t]))
                    .ok_or(PathAttachError::SkeletonMismatch)?;
                comm_pos[t] += 1;
                self.paths[0].clocks[core_idx]
            } else {
                self.solver
                    .int_var(format!("clk_path_e{}_t{t}", path.clocks.len()))
            };
            if let Some(prev) = prev_clock[t] {
                // Chain the path's per-thread order; redundant for
                // comm-comm pairs (implied by path 0's own chains) but
                // required wherever a fresh local clock is involved.
                let c = self.solver.lt(prev, clock);
                path.chains.push(c);
                self.stats.order_constraints += 1;
            }
            prev_clock[t] = Some(clock);
            path.clocks.push(clock);
            match &ev.kind {
                EventKind::Send { msg, .. } => {
                    let value_expr = match &instr {
                        Instr::Send { value, .. } | Instr::SendI { value, .. } => value,
                        _ => return Err(PathAttachError::SkeletonMismatch),
                    };
                    let val = expr_term(&mut self.solver, &env[t], value_expr);
                    let &si = send_by_msg
                        .get(msg)
                        .ok_or(PathAttachError::SkeletonMismatch)?;
                    if self.sends[si].val != val {
                        return Err(PathAttachError::ValueMismatch);
                    }
                }
                EventKind::Recv { var, .. } | EventKind::WaitRecv { var, .. } => {
                    let key = RecvKey::new(t, recv_counts[t]);
                    recv_counts[t] += 1;
                    let &ri = recv_by_key
                        .get(&key)
                        .ok_or(PathAttachError::SkeletonMismatch)?;
                    env[t][var.0 as usize] = self.recvs[ri].val;
                }
                EventKind::RecvPost { .. } | EventKind::WaitNoop { .. } => {}
                EventKind::Assign { .. } => {
                    let Instr::Assign { var, expr } = &instr else {
                        return Err(PathAttachError::SkeletonMismatch);
                    };
                    let val = expr_term(&mut self.solver, &env[t], expr);
                    env[t][var.0 as usize] = val;
                }
                EventKind::Branch { taken } => {
                    let Instr::Branch { cond, .. } = &instr else {
                        return Err(PathAttachError::SkeletonMismatch);
                    };
                    let c = cond_term(&mut self.solver, &env[t], cond);
                    let pinned = if *taken { c } else { self.solver.not(c) };
                    path.pins.push(pinned);
                    self.stats.event_constraints += 1;
                }
                EventKind::AssertOk | EventKind::AssertFail { .. } => {
                    let Instr::Assert { cond, message } = &instr else {
                        return Err(PathAttachError::SkeletonMismatch);
                    };
                    let term = cond_term(&mut self.solver, &env[t], cond);
                    path.props.push(PropTerm {
                        term,
                        message: message.clone(),
                        thread: t,
                        pc: ev.pc,
                    });
                }
            }
        }
        // Every communication event of path 0 must have been consumed, or
        // the trace is a different skeleton.
        for (t, pos) in comm_pos.iter().enumerate() {
            if *pos != self.comm_event_idx[t].len() {
                return Err(PathAttachError::SkeletonMismatch);
            }
        }
        self.paths.push(path);
        Ok(self.paths.len() - 1)
    }

    /// Decode the match choice of a model into a canonical matching.
    pub fn matching_from_model(&self, model: &Model) -> Matching {
        let by_id: HashMap<i64, MsgId> = self.sends.iter().map(|s| (s.id, s.msg)).collect();
        let mut m: Matching = self
            .recvs
            .iter()
            .map(|r| {
                let id = model
                    .eval_int(self.solver.pool(), r.id_term)
                    .expect("recv id must be valued in a model");
                let msg = *by_id.get(&id).expect("recv id bound to unknown send");
                (r.key, msg)
            })
            .collect();
        m.sort_unstable_by_key(|(k, _)| *k);
        m
    }
}

/// Translate a DSL expression under an SSA environment.
fn expr_term(solver: &mut SmtSolver, env: &[TermId], e: &Expr) -> TermId {
    match e {
        Expr::Const(c) => solver.int_const(*c),
        Expr::Var(v) => env[v.0 as usize],
        Expr::AddConst(inner, c) => {
            let t = expr_term(solver, env, inner);
            solver.add_const(t, *c)
        }
    }
}

/// Translate a DSL condition under an SSA environment.
fn cond_term(solver: &mut SmtSolver, env: &[TermId], c: &Cond) -> TermId {
    match c {
        Cond::True => solver.tru(),
        Cond::False => solver.fls(),
        Cond::Cmp(op, a, b) => {
            let ta = expr_term(solver, env, a);
            let tb = expr_term(solver, env, b);
            match op {
                mcapi::types::CmpOp::Eq => solver.eq(ta, tb),
                mcapi::types::CmpOp::Ne => solver.ne(ta, tb),
                mcapi::types::CmpOp::Lt => solver.lt(ta, tb),
                mcapi::types::CmpOp::Le => solver.le(ta, tb),
                mcapi::types::CmpOp::Gt => solver.gt(ta, tb),
                mcapi::types::CmpOp::Ge => solver.ge(ta, tb),
            }
        }
        Cond::And(a, b) => {
            let ta = cond_term(solver, env, a);
            let tb = cond_term(solver, env, b);
            solver.and2(ta, tb)
        }
        Cond::Or(a, b) => {
            let ta = cond_term(solver, env, a);
            let tb = cond_term(solver, env, b);
            solver.or2(ta, tb)
        }
        Cond::Not(inner) => {
            let t = cond_term(solver, env, inner);
            solver.not(t)
        }
    }
}

/// Build the paper's SMT problem from a trace and its match pairs, with the
/// delivery-model axioms and property polarity asserted directly (the
/// one-shot shape). Sessions that serve several delivery models from one
/// clause database use [`encode_core`] plus guarded axiom groups instead.
pub fn encode(
    program: &Program,
    trace: &Trace,
    pairs: &MatchPairs,
    opts: EncodeOptions,
) -> Encoding {
    let mut enc = encode_core(program, trace, pairs);
    let pins = enc.paths[0].pins.clone();
    enc.assert_terms(pins);
    let axioms = enc.delivery_axioms(opts.delivery);
    enc.assert_terms(axioms);
    let props = enc.props_term(0, opts.negate_props);
    enc.assert_terms([props]);
    enc.refresh_size_stats();
    enc
}

/// Build the delivery-model-independent core of the encoding:
/// `POrder(program order) /\ PMatchPairs /\ PUnique`, with the trace's
/// branch pins and assertion properties collected as path 0 but not yet
/// asserted. Every delivery model, both property polarities and every
/// attached path share this core.
pub fn encode_core(program: &Program, trace: &Trace, pairs: &MatchPairs) -> Encoding {
    let mut solver = SmtSolver::new();
    let mut stats = EncodeStats::default();
    let n = program.threads.len();
    let zero = solver.int_const(0);
    // SSA environment: current term per local variable, initialised to 0
    // (locals start zeroed in the runtime).
    let mut env: Vec<Vec<TermId>> = program
        .threads
        .iter()
        .map(|t| vec![zero; t.num_vars])
        .collect();
    let mut prev_clock: Vec<Option<TermId>> = vec![None; n];
    let mut recv_counts = vec![0usize; n];

    let mut sends: Vec<SendVar> = Vec::new();
    let mut recvs: Vec<RecvVar> = Vec::new();
    let mut path = PathTerms {
        clocks: Vec::with_capacity(trace.events.len()),
        ..PathTerms::default()
    };
    let mut comm_event_idx: Vec<Vec<usize>> = vec![Vec::new(); n];

    // ---- walk the trace: clocks, POrder (program order), PEvents ----
    for (idx, ev) in trace.events.iter().enumerate() {
        let t = ev.thread;
        let clock = solver.int_var(format!("clk_e{idx}_t{t}"));
        if let Some(pc) = prev_clock[t] {
            let c = solver.lt(pc, clock);
            solver.assert_term(c);
            stats.order_constraints += 1;
        }
        prev_clock[t] = Some(clock);
        path.clocks.push(clock);
        if matches!(
            ev.kind,
            EventKind::Send { .. }
                | EventKind::Recv { .. }
                | EventKind::RecvPost { .. }
                | EventKind::WaitRecv { .. }
                | EventKind::WaitNoop { .. }
        ) {
            comm_event_idx[t].push(idx);
        }
        let instr = program.threads[t].code[ev.pc].clone();
        match &ev.kind {
            EventKind::Send { msg, to, .. } => {
                let value_expr = match &instr {
                    Instr::Send { value, .. } | Instr::SendI { value, .. } => value,
                    other => panic!("send event at non-send instruction {other:?}"),
                };
                let val = expr_term(&mut solver, &env[t], value_expr);
                sends.push(SendVar {
                    msg: *msg,
                    event_idx: idx,
                    id: sends.len() as i64,
                    clock,
                    val,
                    to: *to,
                });
            }
            EventKind::Recv { port, var, .. } => {
                let key = RecvKey::new(t, recv_counts[t]);
                recv_counts[t] += 1;
                let val = solver.int_var(format!("val_{key:?}"));
                let id_term = solver.int_var(format!("id_{key:?}"));
                env[t][var.0 as usize] = val;
                recvs.push(RecvVar {
                    key,
                    event_idx: idx,
                    id_term,
                    val,
                    clock_obs: clock,
                    endpoint: EndpointAddr::new(t, *port),
                });
            }
            EventKind::WaitRecv { port, var, .. } => {
                // Non-blocking receive: the match is ordered against this
                // wait's clock (the paper's rule for recv_i/wait).
                let key = RecvKey::new(t, recv_counts[t]);
                recv_counts[t] += 1;
                let val = solver.int_var(format!("val_{key:?}"));
                let id_term = solver.int_var(format!("id_{key:?}"));
                env[t][var.0 as usize] = val;
                recvs.push(RecvVar {
                    key,
                    event_idx: idx,
                    id_term,
                    val,
                    clock_obs: clock,
                    endpoint: EndpointAddr::new(t, *port),
                });
            }
            EventKind::RecvPost { .. } | EventKind::WaitNoop { .. } => {
                // Issue events: clock + program order only.
            }
            EventKind::Assign { .. } => {
                let Instr::Assign { var, expr } = &instr else {
                    panic!("assign event at non-assign instruction");
                };
                let val = expr_term(&mut solver, &env[t], expr);
                env[t][var.0 as usize] = val;
            }
            EventKind::Branch { taken } => {
                let Instr::Branch { cond, .. } = &instr else {
                    panic!("branch event at non-branch instruction");
                };
                // PEvents: the symbolic execution must follow the same
                // sequence of conditional branch outcomes as the trace.
                // Collected unasserted: `encode` asserts them directly,
                // sessions guard them behind a path selector.
                let c = cond_term(&mut solver, &env[t], cond);
                let pinned = if *taken { c } else { solver.not(c) };
                path.pins.push(pinned);
                stats.event_constraints += 1;
            }
            EventKind::AssertOk | EventKind::AssertFail { .. } => {
                let Instr::Assert { cond, message } = &instr else {
                    panic!("assert event at non-assert instruction");
                };
                let term = cond_term(&mut solver, &env[t], cond);
                path.props.push(PropTerm {
                    term,
                    message: message.clone(),
                    thread: t,
                    pc: ev.pc,
                });
            }
        }
    }

    // ---- PMatchPairs: Fig. 2 of the paper ----
    let send_by_msg: HashMap<MsgId, usize> =
        sends.iter().enumerate().map(|(i, s)| (s.msg, i)).collect();
    let mut cands: Vec<Vec<usize>> = Vec::with_capacity(recvs.len());
    for r in &recvs {
        let mut disjuncts: Vec<TermId> = Vec::new();
        let mut mine: Vec<usize> = Vec::new();
        if let Some(candidates) = pairs.sends_for.get(&r.key) {
            for msg in candidates {
                let Some(&si) = send_by_msg.get(msg) else {
                    continue;
                };
                mine.push(si);
                let s = sends[si];
                // match(recv, send): the send is issued before the receive
                // is observed, the values coincide, and the identifiers
                // bind.
                let before = solver.lt(s.clock, r.clock_obs);
                let same_val = solver.eq(r.val, s.val);
                let bind = solver.eq_const(r.id_term, s.id);
                let m = solver.and([before, same_val, bind]);
                disjuncts.push(m);
            }
        }
        stats.match_disjuncts += disjuncts.len();
        cands.push(mine);
        let any = solver.or(disjuncts);
        solver.assert_term(any); // empty set folds to `false`: recv unmatched
    }

    // ---- PUnique: Fig. 3 of the paper, over every pair of receives ----
    for i in 0..recvs.len() {
        for j in (i + 1)..recvs.len() {
            let d = solver.ne(recvs[i].id_term, recvs[j].id_term);
            solver.assert_term(d);
            stats.unique_pairs += 1;
        }
    }

    stats.props = path.props.len();
    stats.sat_vars = solver.num_sat_vars();
    stats.sat_clauses = solver.num_sat_clauses();
    stats.theory_atoms = solver.num_theory_atoms();

    Encoding {
        solver,
        sends,
        recvs,
        paths: vec![path],
        comm_event_idx,
        cands,
        stats,
    }
}

/// Delivery-model ordering axioms (POrder extensions) over an encoded
/// trace, built but not asserted. See [`Encoding::delivery_axioms`].
///
/// Each receive `r` that takes part in an ordered group gets one integer
/// `sc(r)`, the clock of the send it consumed: `bind(r,s) -> sc(r) =
/// clk(s)` for each candidate send `s`, where `bind(r,s)` is the Fig. 2
/// identifier atom `id(r) = id(s)`. A group is a set of sends that reach
/// one endpoint in a fixed order, together with the receives there that
/// can take one of them; for each ordered pair of those receives the group
/// asserts `sc(ra) < sc(rb) -> obs(ra) < obs(rb)`. Under zero delay a
/// group is every send to one endpoint (their clocks are kept pairwise
/// distinct); under pairwise FIFO it is one channel `(source thread,
/// destination)`, whose sends are program-ordered, and the pair axiom is
/// further guarded by a Boolean `on(r,c)` implied by `r` binding a send of
/// channel `c`. A group with a single send orders nothing and emits
/// nothing. The size is linear in the candidate pairs plus O(R²) per
/// group, where the direct formulation quantifies over send pairs × receive
/// pairs.
fn delivery_axiom_terms(
    solver: &mut SmtSolver,
    sends: &[SendVar],
    recvs: &[RecvVar],
    cands: &[Vec<usize>],
    delivery: DeliveryModel,
    stats: &mut EncodeStats,
) -> Vec<TermId> {
    let mut axioms: Vec<TermId> = Vec::new();
    // Ordered send groups, keyed by destination and, under pairwise FIFO,
    // the source thread of the channel.
    let mut groups: BTreeMap<(EndpointAddr, Option<u16>), Vec<usize>> = BTreeMap::new();
    match delivery {
        DeliveryModel::Unordered => return axioms,
        DeliveryModel::PairwiseFifo => {
            for (si, s) in sends.iter().enumerate() {
                groups
                    .entry((s.to, Some(s.msg.thread)))
                    .or_default()
                    .push(si);
            }
        }
        DeliveryModel::ZeroDelay => {
            for (si, s) in sends.iter().enumerate() {
                groups.entry((s.to, None)).or_default().push(si);
            }
            // Same-destination sends are totally ordered in time.
            for members in groups.values() {
                for (k, &s1) in members.iter().enumerate() {
                    for &s2 in &members[k + 1..] {
                        axioms.push(solver.ne(sends[s1].clock, sends[s2].clock));
                    }
                }
            }
        }
    }
    let mut send_clocks: Vec<Option<TermId>> = vec![None; recvs.len()];
    for ((to, channel), members) in &groups {
        if members.len() < 2 {
            continue;
        }
        // The receives that can take one of the group's sends, with the
        // binds that make them members.
        let mut rows: Vec<(usize, Vec<TermId>)> = Vec::new();
        for (ri, r) in recvs.iter().enumerate() {
            if r.endpoint != *to {
                continue;
            }
            let binds: Vec<TermId> = cands[ri]
                .iter()
                .filter(|&&si| channel.is_none_or(|c| sends[si].msg.thread == c))
                .map(|&si| solver.eq_const(r.id_term, sends[si].id))
                .collect();
            if !binds.is_empty() {
                rows.push((ri, binds));
            }
        }
        if rows.len() < 2 {
            continue;
        }
        // Per receive: `sc(r)`, the membership literal (none under zero
        // delay: every receive binds a send to its own endpoint) and
        // `obs(r)`.
        let rows: Vec<(TermId, Option<TermId>, TermId)> = rows
            .into_iter()
            .map(|(ri, binds)| {
                let r = &recvs[ri];
                // A receive whose every candidate is in the channel is on it
                // in every model, and needs no literal.
                let partial = binds.len() < cands[ri].len();
                let on = channel.filter(|_| partial).map(|c| {
                    let on = solver.bool_var(format!("on_{:?}_t{c}", r.key));
                    for bind in binds {
                        axioms.push(solver.implies(bind, on));
                    }
                    on
                });
                let sc = *send_clocks[ri]
                    .get_or_insert_with(|| send_clock(solver, sends, r, &cands[ri], &mut axioms));
                (sc, on, r.clock_obs)
            })
            .collect();
        for (a, &(sc_a, on_a, obs_a)) in rows.iter().enumerate() {
            for (b, &(sc_b, on_b, obs_b)) in rows.iter().enumerate() {
                if a == b {
                    continue;
                }
                let earlier = solver.lt(sc_a, sc_b);
                let mut clause: Vec<TermId> = [on_a, on_b, Some(earlier)]
                    .into_iter()
                    .flatten()
                    .map(|t| solver.not(t))
                    .collect();
                clause.push(solver.lt(obs_a, obs_b));
                axioms.push(solver.or(clause));
            }
        }
    }
    stats.order_constraints += axioms.len();
    axioms
}

/// Declare `sc(r)`, the clock of the send `r` consumed, and bind it with
/// `bind(r,s) -> sc(r) = clk(s)` for each candidate `s`. A receive with a
/// single candidate must consume it, so its `sc(r)` is that send's clock.
fn send_clock(
    solver: &mut SmtSolver,
    sends: &[SendVar],
    r: &RecvVar,
    cands: &[usize],
    axioms: &mut Vec<TermId>,
) -> TermId {
    if let [only] = cands {
        return sends[*only].clock;
    }
    let sc = solver.int_var(format!("sc_{:?}", r.key));
    for &si in cands {
        let bind = solver.eq_const(r.id_term, sends[si].id);
        let same = solver.eq(sc, sends[si].clock);
        axioms.push(solver.implies(bind, same));
    }
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchpairs::{overapprox_match_pairs, precise_match_pairs};
    use mcapi::builder::ProgramBuilder;
    use mcapi::runtime::execute_random;
    use mcapi::types::CmpOp;
    use smt::SatResult;

    fn fig1() -> Program {
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

    fn complete_trace(p: &Program) -> Trace {
        for seed in 0..200 {
            let out = execute_random(p, DeliveryModel::Unordered, seed);
            if out.trace.is_complete() && out.violation().is_none() {
                return out.trace;
            }
        }
        panic!("no complete trace");
    }

    #[test]
    fn fig1_enumeration_finds_exactly_two_pairings() {
        let p = fig1();
        let tr = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        let mut enc = encode(
            &p,
            &tr,
            &pairs,
            EncodeOptions {
                delivery: DeliveryModel::Unordered,
                negate_props: false,
            },
        );
        let ids = enc.id_terms();
        let models = enc.solver.enumerate_models(&ids, 100);
        assert_eq!(models.len(), 2, "the paper's Fig. 4: exactly two pairings");
    }

    #[test]
    fn race_enumeration_admits_n_factorial_matchings() {
        // Every receive of race(n) can take every send: the encoding
        // admits exactly the n! matchings, enumerated via blocking clauses.
        for (n, expect) in [(3, 6), (4, 24)] {
            let p = workloads::race(n);
            let tr = crate::checker::generate_trace(&p, &crate::checker::CheckConfig::default());
            let pairs = overapprox_match_pairs(&p, &tr);
            let mut enc = encode(
                &p,
                &tr,
                &pairs,
                EncodeOptions {
                    delivery: DeliveryModel::Unordered,
                    negate_props: false,
                },
            );
            let ids = enc.id_terms();
            let models = enc.solver.enumerate_models(&ids, 100_000);
            assert_eq!(models.len(), expect, "race({n})");
        }
    }

    #[test]
    fn fig1_zero_delay_encoding_finds_one_pairing() {
        let p = fig1();
        let tr = complete_trace(&p);
        // Use over-approximate pairs so the restriction comes from the
        // encoding's ordering axioms, not from the pair generator.
        let pairs = overapprox_match_pairs(&p, &tr);
        let mut enc = encode(
            &p,
            &tr,
            &pairs,
            EncodeOptions {
                delivery: DeliveryModel::ZeroDelay,
                negate_props: false,
            },
        );
        let ids = enc.id_terms();
        let models = enc.solver.enumerate_models(&ids, 100);
        assert_eq!(models.len(), 1, "zero-delay admits only Fig. 4a");
    }

    #[test]
    fn no_props_makes_violation_query_unsat() {
        let p = fig1();
        let tr = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        let mut enc = encode(&p, &tr, &pairs, EncodeOptions::default());
        assert_eq!(enc.solver.check(), SatResult::Unsat);
    }

    #[test]
    fn race_violation_is_sat_with_model() {
        use mcapi::expr::{Cond, Expr};
        let mut b = ProgramBuilder::new("race");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let a = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)),
            "p1 first",
        );
        b.send_const(t1, t0, 0, 1);
        b.send_const(t2, t0, 0, 2);
        let p = b.build().unwrap();
        let tr = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        let mut enc = encode(&p, &tr, &pairs, EncodeOptions::default());
        assert_eq!(enc.solver.check(), SatResult::Sat);
        let model = enc.solver.model().unwrap().clone();
        let matching = enc.matching_from_model(&model);
        // The violating match pairs recv(A) with t2's message.
        assert_eq!(matching[0].1, MsgId::new(2, 0));
        // The recv value under the model is t2's payload.
        let v = model.eval_int(enc.solver.pool(), enc.recvs[0].val).unwrap();
        assert_eq!(v, 2);
    }

    #[test]
    fn branch_outcomes_are_pinned() {
        use mcapi::expr::{Cond, Expr};
        use mcapi::program::Op;
        // t0 receives, branches on the value, asserts inside the branch.
        let mut b = ProgramBuilder::new("branch-pin");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let v = b.recv(t0, 0);
        b.push_op(
            t0,
            Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(v), Expr::Const(10)),
                then_ops: vec![],
                else_ops: vec![Op::Assert {
                    cond: Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(5)),
                    message: "small value must be 5".into(),
                }],
            },
        );
        b.send_const(t1, t0, 0, 5);
        let p = b.build().unwrap();
        let tr = complete_trace(&p);
        // The trace goes to the else-branch (5 < 10) and the assert holds.
        // Within this branch outcome the only send is 5, so no violation.
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        let mut enc = encode(&p, &tr, &pairs, EncodeOptions::default());
        assert_eq!(enc.solver.check(), SatResult::Unsat);
        assert!(enc.stats.event_constraints >= 1, "branch must be pinned");
    }

    #[test]
    fn pairwise_fifo_encoding_orders_same_source() {
        // One producer sends 1 then 2; consumer receives twice and asserts
        // the first is 1. Under pairwise FIFO the assertion cannot fail.
        use mcapi::expr::{Cond, Expr};
        let mut b = ProgramBuilder::new("fifo");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let a = b.recv(t0, 0);
        let _b2 = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)),
            "in order",
        );
        b.send_const(t1, t0, 0, 1);
        b.send_const(t1, t0, 0, 2);
        let p = b.build().unwrap();
        let tr = complete_trace(&p);
        let over = overapprox_match_pairs(&p, &tr);
        // Unordered: the violation is reachable (2 can overtake 1).
        let mut un = encode(
            &p,
            &tr,
            &over,
            EncodeOptions {
                delivery: DeliveryModel::Unordered,
                negate_props: true,
            },
        );
        assert_eq!(un.solver.check(), SatResult::Sat);
        // PairwiseFifo: unreachable.
        let mut pf = encode(
            &p,
            &tr,
            &over,
            EncodeOptions {
                delivery: DeliveryModel::PairwiseFifo,
                negate_props: true,
            },
        );
        assert_eq!(pf.solver.check(), SatResult::Unsat);
    }

    #[test]
    fn stats_are_populated() {
        let p = fig1();
        let tr = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        let enc = encode(
            &p,
            &tr,
            &pairs,
            EncodeOptions {
                delivery: DeliveryModel::Unordered,
                negate_props: false,
            },
        );
        assert_eq!(enc.stats.match_disjuncts, 5); // X,Y for A and B; Z for C
        assert_eq!(enc.stats.unique_pairs, 3); // 3 choose 2
        assert!(enc.stats.order_constraints >= 3); // per-thread chains
        assert!(enc.stats.sat_vars > 0);
        assert!(enc.stats.sat_clauses > 0);
        assert!(enc.stats.theory_atoms > 0);
        assert_eq!(enc.sends.len(), 3);
        assert_eq!(enc.recvs.len(), 3);
    }

    #[test]
    fn nonblocking_match_uses_wait_clock() {
        // t0 posts recv_i early, waits late; a send that happens after the
        // post but before the wait is still matchable (the paper's rule).
        let mut b = ProgramBuilder::new("nb-clock");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let (_v, req) = b.recv_i(t0, 0);
        // A blocking recv on port 1 forces the wait to happen after t2's
        // send (t2 sends the port-1 kick after its port-0 payload).
        b.port(t0, 1);
        let _gate = b.recv(t0, 1);
        b.wait(t0, req);
        b.send_const(t1, t0, 0, 1);
        b.send_const(t2, t0, 0, 2);
        b.send_const(t2, t0, 1, 9); // the gate kick
        let p = b.build().unwrap();
        let tr = complete_trace(&p);
        let pairs = precise_match_pairs(&p, &tr, DeliveryModel::Unordered);
        // The recv_i (key t0.r1? ordering: gate recv completes first or
        // second depending on trace) — just check the encoding enumerates
        // both payload bindings for the recv_i.
        let mut enc = encode(
            &p,
            &tr,
            &pairs,
            EncodeOptions {
                delivery: DeliveryModel::Unordered,
                negate_props: false,
            },
        );
        let ids = enc.id_terms();
        let models = enc.solver.enumerate_models(&ids, 100);
        assert!(
            models.len() >= 2,
            "recv_i must be able to bind either payload"
        );
    }
}
