//! End-to-end checking: trace generation, match-pair generation, encoding,
//! solving, witness validation, and the over-approximation refinement loop
//! (the paper's future-work item, closed here).

use crate::encode::EncodeStats;
use crate::matchpairs::{overapprox_match_pairs, precise_match_pairs_until, MatchPairs};
use crate::session::{CheckSession, SessionPool};
use crate::witness::{decode_witness, replay_witness, ReplayVerdict, Witness};
use mcapi::program::Program;
use mcapi::runtime::execute_random;
use mcapi::trace::{Trace, Violation};
use mcapi::types::{DeliveryModel, Matching};
use smt::SatResult;
use std::collections::BTreeSet;
use std::time::Instant;

/// Which match-pair generator to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchGen {
    /// The paper's exact depth-first abstract execution (exponential).
    Precise,
    /// The endpoint-based over-approximation plus validate-and-refine
    /// (the paper's future work; sound and complete via replay filtering).
    OverApprox,
}

/// Checker configuration.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    pub delivery: DeliveryModel,
    pub matchgen: MatchGen,
    /// Maximum spurious witnesses to block before giving up.
    pub max_refinements: usize,
    /// The instant the whole check must end by; `None` means unbounded.
    /// It is fixed once, before the check starts (the portfolio driver
    /// sets it from its per-scenario budget), and no layer restarts it:
    /// the precise match-pair DFS, the path frontier and its directed
    /// searches poll it, the check loop tests it between solver calls and
    /// hands it to the solver as a per-check deadline. So one budget spans
    /// every trace, query and path, and when it runs out the verdict
    /// degrades to [`Verdict::Unknown`] rather than a wrong answer.
    pub deadline: Option<Instant>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            delivery: DeliveryModel::Unordered,
            matchgen: MatchGen::Precise,
            max_refinements: 1000,
            deadline: None,
        }
    }
}

impl CheckConfig {
    pub fn with_matchgen(matchgen: MatchGen) -> Self {
        CheckConfig {
            matchgen,
            ..Default::default()
        }
    }
}

/// Final verdict of a check.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// A property violation is reachable; the witness describes the path
    /// to the error state and `violation` the concrete replayed failure.
    Violation(Box<ConfirmedViolation>),
    /// No execution following the trace's branch outcomes violates any
    /// assertion.
    Safe,
    /// Inconclusive (budget exhausted or no usable trace).
    Unknown(String),
}

/// A confirmed violation with its evidence.
#[derive(Clone, Debug)]
pub struct ConfirmedViolation {
    pub witness: Witness,
    /// The concrete assertion failure observed during replay, if any.
    pub violation: Option<Violation>,
    /// Messages of the violated properties under the model.
    pub violated_props: Vec<String>,
    /// The branch-outcome vector of the control-flow path the violation
    /// lives on (rendered per [`mcapi::sched::BranchPlan::render`]); set
    /// by the path-exploration engine, `None` for single-trace checks.
    pub branch_path: Option<String>,
    /// The trace the violation was found on (the violating path's trace
    /// under the path engine): the witness's event indices point into it.
    pub trace: Trace,
}

/// Wall-clock breakdown of one check across the pipeline's phases, in
/// microseconds. The phases are disjoint: `encode_us` covers core
/// encoding and sibling-path attachment (attributed to the query that
/// triggered the build), `solve_us` the time inside SMT checks,
/// `schedule_us` the directed-scheduler searches realising paths, and
/// `enumerate_us` static path enumeration. The single-trace engines
/// leave the last two at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Encoding built (core + sibling attachments), µs.
    pub encode_us: u64,
    /// Time inside solver checks, µs.
    pub solve_us: u64,
    /// Directed-scheduler search time, µs.
    pub schedule_us: u64,
    /// Static path enumeration time, µs.
    pub enumerate_us: u64,
}

impl PhaseTimings {
    /// Accumulate another report's phase times (portfolio aggregation).
    pub fn merge(&mut self, other: &PhaseTimings) {
        self.encode_us += other.encode_us;
        self.solve_us += other.solve_us;
        self.schedule_us += other.schedule_us;
        self.enumerate_us += other.enumerate_us;
    }

    /// Report the four phases into `reg` as µs counters
    /// (`mcapi_symbolic_*_us_total`), tagged with `labels`.
    pub fn record(&self, reg: &mut metrics::Registry, labels: &[(&str, &str)]) {
        reg.counter_add(
            "mcapi_symbolic_encode_us_total",
            "Wall-clock µs spent building encodings",
            labels,
            self.encode_us,
        );
        reg.counter_add(
            "mcapi_symbolic_solve_us_total",
            "Wall-clock µs spent inside SMT checks",
            labels,
            self.solve_us,
        );
        reg.counter_add(
            "mcapi_symbolic_schedule_us_total",
            "Wall-clock µs spent in directed-scheduler searches",
            labels,
            self.schedule_us,
        );
        reg.counter_add(
            "mcapi_symbolic_enumerate_us_total",
            "Wall-clock µs spent in static control-flow path enumeration",
            labels,
            self.enumerate_us,
        );
    }
}

/// Full check report.
#[derive(Clone, Debug)]
pub struct CheckReport {
    pub verdict: Verdict,
    /// Spurious witnesses blocked during refinement.
    pub refinements: usize,
    /// Size of the encoding that answered this query. For shared-session
    /// queries this is the session's clause database at query time —
    /// *cumulative* over every axiom group built by earlier queries, not a
    /// per-query delta (unlike [`CheckReport::solver_stats`]) — so size
    /// columns are only comparable between runs with the same reuse mode.
    pub encode_stats: EncodeStats,
    /// Match-pair generation cost (states explored).
    pub matchgen_states: usize,
    pub matchgen_pairs: usize,
    /// SMT checks issued by this query (1 + refinements, usually).
    pub sat_checks: usize,
    /// Solver work this query cost (delta over the session's counters, so
    /// shared-session queries report only their own share).
    pub solver_stats: smt::Stats,
    /// Sampled solver distributions for this query (same delta
    /// semantics as [`CheckReport::solver_stats`]).
    pub solver_introspect: smt::Introspect,
    /// Control-flow paths the engine analysed (1 for the single-trace
    /// engines; the feasible-path count for `symbolic::paths`).
    pub paths_explored: usize,
    /// Always 0: no engine skips a path unsearched. A plan the directed
    /// search proves unrealisable counts in `paths_explored`. Kept for the
    /// benchmark harness and the event schema.
    pub paths_pruned: usize,
    /// Transitions applied by the directed schedule searches realising
    /// paths (zero for the single-trace engines) — the work measure the
    /// canonical reduction shrinks.
    pub directed_transitions: u64,
    /// Schedule extensions pruned by the Mazurkiewicz normal-form test
    /// inside the directed searches (zero when canonical exploration is
    /// off; see [`mcapi::canon`]).
    pub canonical_skipped: u64,
    /// Wall-clock breakdown across pipeline phases.
    pub timings: PhaseTimings,
}

impl CheckReport {
    /// A report of `verdict` with every counter zero; each layer fills in
    /// what it measured.
    pub fn new(verdict: Verdict) -> CheckReport {
        CheckReport {
            verdict,
            refinements: 0,
            encode_stats: EncodeStats::default(),
            matchgen_states: 0,
            matchgen_pairs: 0,
            sat_checks: 0,
            solver_stats: smt::Stats::default(),
            solver_introspect: smt::Introspect::default(),
            paths_explored: 0,
            paths_pruned: 0,
            directed_transitions: 0,
            canonical_skipped: 0,
            timings: PhaseTimings::default(),
        }
    }

    /// Fold one trace's query into a multi-trace total: work counters and
    /// phase times add up, `matchgen_pairs` keeps the largest pair set,
    /// and `encode_stats` keeps the last query's. Encode stats are
    /// formula *sizes*, not work: under session reuse the last query's is
    /// the shared core's size, without it one representative core's.
    /// Verdict and the source-level path counters are the caller's.
    fn absorb(&mut self, query: &CheckReport) {
        self.refinements += query.refinements;
        self.sat_checks += query.sat_checks;
        self.matchgen_states += query.matchgen_states;
        self.matchgen_pairs = self.matchgen_pairs.max(query.matchgen_pairs);
        self.solver_stats.merge(&query.solver_stats);
        self.solver_introspect.merge(&query.solver_introspect);
        self.timings.merge(&query.timings);
        self.encode_stats = query.encode_stats;
    }
}

/// The symbolic layer's per-check counters under their stable metric
/// names, for the portfolio driver's reporter (which keeps only the
/// flattened counters per scenario).
#[allow(clippy::too_many_arguments)]
pub fn record_check_counters(
    reg: &mut metrics::Registry,
    labels: &[(&str, &str)],
    sat_checks: u64,
    refinements: u64,
    paths_explored: u64,
    paths_pruned: u64,
    directed_transitions: u64,
    canonical_skipped: u64,
) {
    reg.counter_add(
        "mcapi_symbolic_sat_checks_total",
        "SMT checks issued",
        labels,
        sat_checks,
    );
    reg.counter_add(
        "mcapi_symbolic_refinements_total",
        "Spurious witnesses blocked during refinement",
        labels,
        refinements,
    );
    reg.counter_add(
        "mcapi_symbolic_paths_explored_total",
        "Control-flow paths analysed",
        labels,
        paths_explored,
    );
    reg.counter_add(
        "mcapi_symbolic_paths_pruned_total",
        "Control-flow paths skipped unsearched (always 0: no engine skips a path)",
        labels,
        paths_pruned,
    );
    reg.counter_add(
        "mcapi_symbolic_directed_transitions_total",
        "Transitions applied by directed schedule searches",
        labels,
        directed_transitions,
    );
    reg.counter_add(
        "mcapi_symbolic_schedules_canonical_skipped_total",
        "Schedule extensions pruned by the Mazurkiewicz normal-form test",
        labels,
        canonical_skipped,
    );
}

/// Obtain a complete, non-violating trace by random execution, per the
/// paper ("generating an arbitrary execution trace through the program").
///
/// Falls back to a violating or incomplete trace if no clean one exists
/// within the attempt budget (callers see that through the returned trace).
pub fn generate_trace(program: &Program, cfg: &CheckConfig) -> Trace {
    /// Seeds `0..ATTEMPTS` are tried, in order, for a clean trace.
    const ATTEMPTS: u64 = 500;
    let mut fallback: Option<Trace> = None;
    for seed in 0..ATTEMPTS {
        let out = execute_random(program, cfg.delivery, seed);
        if out.trace.is_complete() && out.trace.violation.is_none() {
            return out.trace;
        }
        if fallback.is_none() {
            fallback = Some(out.trace);
        }
    }
    fallback.expect("at least one execution attempted")
}

/// Where the traces a check runs on come from.
///
/// The paper's engine analyses exactly **one** trace ([`SingleTrace`]);
/// the path-exploration layer (`symbolic::paths::PathEnumerator`)
/// enumerates one trace per feasible control-flow path. [`check_source`]
/// is the one loop that checks either. A source holds no budget of its
/// own: one that searches polls the check's [`CheckConfig::deadline`].
pub trait TraceSource {
    /// The next trace to analyse, or `None` when the source is exhausted.
    fn next_trace(&mut self) -> Option<SourcedTrace>;
    /// Did the source stop early (path budget, search budget) rather than
    /// prove its trace space exhausted? A truncated source must degrade
    /// the aggregate verdict to [`Verdict::Unknown`], never `Safe`.
    fn truncated(&self) -> bool;
    /// Why the source stopped early, when it did.
    fn stop_reason(&self) -> Option<String> {
        None
    }
    /// Traces yielded so far.
    fn paths_explored(&self) -> usize;
    /// Always 0 (see [`CheckReport::paths_pruned`]); kept for the
    /// benchmark harness.
    fn paths_pruned(&self) -> usize {
        0
    }
    /// Transitions applied by directed schedule searches realising the
    /// source's traces (zero for sources that do not search).
    fn directed_transitions(&self) -> u64 {
        0
    }
    /// Schedule extensions the canonical (Mazurkiewicz normal-form) prune
    /// rejected inside those searches.
    fn canonical_skipped(&self) -> u64 {
        0
    }
    /// µs spent enumerating the source's path space.
    fn enumerate_us(&self) -> u64 {
        0
    }
    /// µs spent in directed-scheduler searches realising paths.
    fn schedule_us(&self) -> u64 {
        0
    }
}

/// One trace produced by a [`TraceSource`], with its path provenance.
pub struct SourcedTrace {
    /// The trace to analyse.
    pub trace: Trace,
    /// Rendered branch-outcome vector of the path this trace realises
    /// (`None` for the single-trace engine).
    pub branch_path: Option<String>,
}

/// The classic source: one trace, by default a random complete one as
/// [`generate_trace`] produces it.
pub struct SingleTrace {
    trace: Option<Trace>,
    yielded: usize,
}

impl SingleTrace {
    /// Generate the single trace for `program` under `cfg`.
    pub fn new(program: &Program, cfg: &CheckConfig) -> SingleTrace {
        SingleTrace::of(generate_trace(program, cfg))
    }

    /// A source yielding exactly `trace` (e.g. one recorded on a target).
    pub fn of(trace: Trace) -> SingleTrace {
        SingleTrace {
            trace: Some(trace),
            yielded: 0,
        }
    }
}

impl TraceSource for SingleTrace {
    fn next_trace(&mut self) -> Option<SourcedTrace> {
        let trace = self.trace.take()?;
        self.yielded += 1;
        Some(SourcedTrace {
            trace,
            branch_path: None,
        })
    }

    fn truncated(&self) -> bool {
        false
    }

    fn paths_explored(&self) -> usize {
        self.yielded
    }
}

/// Check a program end to end: generate a trace, then run the paper's
/// pipeline on it ([`check_source`] over a [`SingleTrace`]).
///
/// ```
/// use mcapi::builder::ProgramBuilder;
/// use mcapi::expr::{Cond, Expr};
/// use mcapi::types::CmpOp;
/// use symbolic::checker::{check_program, CheckConfig, Verdict};
///
/// // Two producers race into one consumer; the assertion that producer 1
/// // always wins is refuted by a reachable interleaving.
/// let mut b = ProgramBuilder::new("race");
/// let t0 = b.thread("consumer");
/// let t1 = b.thread("p1");
/// let t2 = b.thread("p2");
/// let got = b.recv(t0, 0);
/// b.assert_cond(t0, Cond::cmp(CmpOp::Eq, Expr::Var(got), Expr::Const(1)), "p1 first");
/// b.send_const(t1, t0, 0, 1);
/// b.send_const(t2, t0, 0, 2);
/// let program = b.build().unwrap();
///
/// let report = check_program(&program, &CheckConfig::default());
/// assert!(matches!(report.verdict, Verdict::Violation(_)));
/// ```
pub fn check_program(program: &Program, cfg: &CheckConfig) -> CheckReport {
    check_source(
        &mut SessionPool::one_shot(),
        program,
        &mut SingleTrace::new(program, cfg),
        cfg,
    )
    .0
}

/// The paper's pipeline on a given trace: match pairs, encoding, solving,
/// and (for over-approximate pairs) validate-and-refine. A trace that
/// already violates a property is its own witness.
pub fn check_trace(program: &Program, trace: &Trace, cfg: &CheckConfig) -> CheckReport {
    check_source(
        &mut SessionPool::one_shot(),
        program,
        &mut SingleTrace::of(trace.clone()),
        cfg,
    )
    .0
}

/// The one symbolic check loop: every trace `source` yields runs through
/// match-pair generation, a session from `pool` (shared or fresh, as the
/// pool decides) and [`check_in_session_at`], and the per-trace reports
/// fold into one.
///
/// * A trace that violates on its own (a random trace, or a directed
///   path search hitting an assertion) is its own witness: no solver runs
///   and the loop stops.
/// * A confirmed violation stops the loop too, carrying the trace's
///   branch vector in [`ConfirmedViolation::branch_path`].
/// * Otherwise the verdict is `Safe` only when every trace was safe and
///   the source was not truncated; any `Unknown` trace or truncation
///   yields `Unknown`.
///
/// Match-pair generation and every query poll the one
/// [`CheckConfig::deadline`]; a source that searches polls the same
/// instant from its own copy of the configuration.
///
/// Returns the report and whether the *first* trace landed on an encoding
/// the pool already held. Sibling-path sharing inside one source is
/// visible through [`SessionPool::paths_attached`] instead, so batch-level
/// `encodings_built` accounting stays comparable across engines.
pub fn check_source(
    pool: &mut SessionPool,
    program: &Program,
    source: &mut dyn TraceSource,
    cfg: &CheckConfig,
) -> (CheckReport, bool) {
    let mut total = CheckReport::new(Verdict::Safe);
    let mut first_reuse: Option<bool> = None;
    let mut unknown: Option<String> = None;
    let mut verdict: Option<Verdict> = None;

    while let Some(st) = source.next_trace() {
        if st.trace.violation.is_some() {
            verdict = Some(violating_trace_verdict(st.trace, st.branch_path));
            break;
        }
        let pairs = make_pairs(program, &st.trace, cfg);
        let (session, path, reused) = pool.session_for_path(program, &st.trace, &pairs);
        let mut report = check_in_session_at(session, path, program, &st.trace, cfg);
        report.matchgen_states = pairs.states_explored;
        report.matchgen_pairs = pairs.num_pairs();
        first_reuse.get_or_insert(reused);
        total.absorb(&report);
        match report.verdict {
            Verdict::Violation(mut cv) => {
                cv.branch_path = st.branch_path;
                verdict = Some(Verdict::Violation(cv));
                break;
            }
            Verdict::Safe => {}
            Verdict::Unknown(why) => {
                unknown.get_or_insert(why);
            }
        }
    }

    let verdict = verdict.unwrap_or_else(|| match unknown {
        Some(why) => Verdict::Unknown(why),
        None if source.truncated() => Verdict::Unknown(
            source
                .stop_reason()
                .unwrap_or_else(|| "path frontier truncated".into()),
        ),
        None => Verdict::Safe,
    });
    total.verdict = verdict;
    total.timings.enumerate_us += source.enumerate_us();
    total.timings.schedule_us += source.schedule_us();
    total.paths_explored = source.paths_explored();
    total.directed_transitions = source.directed_transitions();
    total.canonical_skipped = source.canonical_skipped();
    (total, first_reuse.unwrap_or(false))
}

/// The verdict for a trace that violated a property on its own: the
/// trace is its own witness and no solver runs.
fn violating_trace_verdict(trace: Trace, branch_path: Option<String>) -> Verdict {
    let v = trace
        .violation
        .clone()
        .expect("caller checked for a violation");
    Verdict::Violation(Box::new(ConfirmedViolation {
        witness: Witness {
            matching: trace.concrete_matching(),
            event_order: (0..trace.events.len()).collect(),
            clocks: (0..trace.events.len() as i64).collect(),
            recv_values: Vec::new(),
            violated: vec![v.message.clone()],
        },
        violated_props: vec![v.message.clone()],
        violation: Some(v),
        branch_path,
        trace,
    }))
}

/// Run the violation query for `(trace, cfg)` on one path of a shared
/// session: path 0 is the trace the core was built from, further paths
/// are attached sibling control-flow paths (`trace` must be the path's
/// own trace; it is used for witness replay). The delivery-model axiom
/// group and negated-property group are activated by assumptions,
/// refinement blocking clauses live in a solver scope popped on exit,
/// and [`CheckConfig::deadline`] is plumbed into the solver as a
/// per-check deadline so no single solve can overshoot the budget.
///
/// Match-pair cost counters are left at zero — the session owner knows
/// whether pair generation was amortised.
pub fn check_in_session_at(
    session: &mut CheckSession,
    path: usize,
    program: &Program,
    trace: &Trace,
    cfg: &CheckConfig,
) -> CheckReport {
    let mut query_span = trace::span("symbolic.query");
    let deadline = cfg.deadline;
    // Build (or look up) the axiom groups *before* opening the per-query
    // scope: groups are permanent, blocking clauses are not. Group
    // building counts as encode time, as does any core build / sibling
    // attachment this query triggered (left pending on the session).
    let group_build = Instant::now();
    let assumptions = {
        let _span = trace::span("symbolic.activate_groups");
        session.assumptions_for(path, cfg.delivery, true)
    };
    let encode_us = session.take_pending_encode_us() + group_build.elapsed().as_micros() as u64;
    let enc = &mut session.enc;
    let stats_before = *enc.solver.stats();
    let introspect_before = enc.solver.introspect().clone();
    let id_terms = enc.id_terms();
    let mut refinements = 0usize;
    let mut sat_checks = 0usize;
    let mut solve_us = 0u64;
    enc.solver.push_scope();

    let verdict = loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break Verdict::Unknown("time budget exhausted".into());
        }
        enc.solver.set_deadline(deadline);
        sat_checks += 1;
        let solve_start = Instant::now();
        let result = enc.solver.check_assuming(&assumptions);
        solve_us += solve_start.elapsed().as_micros() as u64;
        enc.solver.set_deadline(None);
        match result {
            SatResult::Unsat => break Verdict::Safe,
            SatResult::Unknown => {
                break Verdict::Unknown(if let Some(e) = enc.solver.encode_error() {
                    e.to_string()
                } else if deadline.is_some_and(|d| Instant::now() >= d) {
                    "time budget exhausted".into()
                } else {
                    "solver budget exhausted".into()
                })
            }
            SatResult::Sat => {
                let model = enc.solver.model().expect("model after SAT").clone();
                let witness = decode_witness(enc, &model, path);
                match replay_witness(program, trace, &witness, cfg.delivery) {
                    ReplayVerdict::Confirmed { violation, .. } => {
                        let violated = witness.violated.clone();
                        break Verdict::Violation(Box::new(ConfirmedViolation {
                            witness,
                            violation,
                            violated_props: violated,
                            branch_path: None,
                            trace: trace.clone(),
                        }));
                    }
                    ReplayVerdict::Spurious { .. } => {
                        refinements += 1;
                        if refinements > cfg.max_refinements {
                            break Verdict::Unknown("refinement budget exhausted".into());
                        }
                        // Block this matching (inside the scope) and retry.
                        if !enc.solver.block_model_values(&id_terms) {
                            break Verdict::Unknown("failed to block spurious model".into());
                        }
                    }
                }
            }
        }
    };

    enc.solver.pop_scope();
    enc.refresh_size_stats();
    let solver_stats = enc.solver.stats().delta(&stats_before);
    let solver_introspect = enc.solver.introspect().delta(&introspect_before);
    query_span
        .arg("sat_checks", sat_checks as u64)
        .arg("refinements", refinements as u64)
        .arg("conflicts", solver_stats.conflicts)
        .arg("propagations", solver_stats.propagations);

    CheckReport {
        refinements,
        encode_stats: enc.stats,
        sat_checks,
        solver_stats,
        solver_introspect,
        paths_explored: 1,
        timings: PhaseTimings {
            encode_us,
            solve_us,
            ..PhaseTimings::default()
        },
        ..CheckReport::new(verdict)
    }
}

/// The match pairs `cfg` selects for this trace (the paper's precise DFS
/// or the endpoint over-approximation). The precise DFS honours
/// [`CheckConfig::deadline`]: past it, the over-approximate pairs stand in.
pub fn make_pairs(program: &Program, trace: &Trace, cfg: &CheckConfig) -> MatchPairs {
    match cfg.matchgen {
        MatchGen::Precise => precise_match_pairs_until(program, trace, cfg.delivery, cfg.deadline),
        MatchGen::OverApprox => overapprox_match_pairs(trace),
    }
}

/// Result of enumerating all behaviours (matchings) of a trace.
#[derive(Clone, Debug, Default)]
pub struct MatchingEnumeration {
    /// Confirmed matchings (validated by replay).
    pub matchings: BTreeSet<Matching>,
    /// Models rejected by replay (over-approximation artifacts).
    pub spurious: usize,
    /// SMT check calls performed.
    pub sat_checks: usize,
    /// Enumeration stopped before exhaustion was proven: another model
    /// still existed when `limit` was reached, [`CheckConfig::deadline`]
    /// passed, or a blocking clause could not be added. `matchings` may
    /// be missing behaviours the formula admits. A run that stops *at*
    /// `limit` with no further model is complete, not truncated.
    pub truncated: bool,
}

/// Enumerate every distinct send/receive pairing the formula admits — the
/// symbolic version of the paper's Fig. 4 ("all possible pairings").
///
/// ```
/// use symbolic::checker::{enumerate_matchings, generate_trace, CheckConfig};
///
/// // The paper's Fig. 1 admits exactly the two pairings of its Fig. 4.
/// let program = workloads::fig1();
/// let cfg = CheckConfig::default();
/// let trace = generate_trace(&program, &cfg);
/// let en = enumerate_matchings(&program, &trace, &cfg, 100);
/// assert_eq!(en.matchings.len(), 2);
/// ```
pub fn enumerate_matchings(
    program: &Program,
    trace: &Trace,
    cfg: &CheckConfig,
    limit: usize,
) -> MatchingEnumeration {
    let pairs = make_pairs(program, trace, cfg);
    let mut session = CheckSession::new(program, trace, &pairs);
    // All-SAT on the positive-property group: every model is blocked (in a
    // query scope) until the formula runs dry or the limit is reached.
    let assumptions = session.assumptions_for(0, cfg.delivery, false);
    let enc = &mut session.enc;
    let id_terms = enc.id_terms();
    let mut out = MatchingEnumeration::default();
    let deadline = cfg.deadline;
    enc.solver.push_scope();
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            out.truncated = true;
            break;
        }
        out.sat_checks += 1;
        enc.solver.set_deadline(deadline);
        let result = enc.solver.check_assuming(&assumptions);
        enc.solver.set_deadline(None);
        match result {
            SatResult::Sat => {
                // Blocking clauses make every model a fresh id assignment,
                // so a SAT result at the limit proves the enumeration is
                // incomplete — that (and only that) is a truncation.
                if out.matchings.len() + out.spurious >= limit {
                    out.truncated = true;
                    break;
                }
                let model = enc.solver.model().expect("model").clone();
                let matching = enc.matching_from_model(&model);
                let w = decode_witness(enc, &model, 0);
                let accept = match replay_witness(program, trace, &w, cfg.delivery) {
                    ReplayVerdict::Confirmed {
                        complete,
                        violation,
                    } => complete && violation.is_none(),
                    ReplayVerdict::Spurious { .. } => false,
                };
                if accept {
                    out.matchings.insert(matching);
                } else {
                    out.spurious += 1;
                }
                if !enc.solver.block_model_values(&id_terms) {
                    out.truncated = true;
                    break;
                }
            }
            SatResult::Unsat => break, // enumeration exhausted: complete
            SatResult::Unknown => {
                // A solver deadline/budget stop mid-enumeration means the
                // model set may be incomplete.
                out.truncated = true;
                break;
            }
        }
    }
    enc.solver.pop_scope();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcapi::builder::ProgramBuilder;
    use mcapi::expr::{Cond, Expr};
    use mcapi::types::CmpOp;

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

    fn race_with_assert() -> Program {
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
        b.build().unwrap()
    }

    /// The Fig. 4b-only violation: delayed message needed.
    fn delay_sensitive() -> Program {
        let mut b = ProgramBuilder::new("gap");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let a = b.recv(t0, 0);
        let _b2 = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(2)),
            "recv(A) must see Y first",
        );
        let _kick = b.recv(t1, 0);
        b.send_const(t1, t0, 0, 1); // X
        b.send_const(t2, t0, 0, 2); // Y
        b.send_const(t2, t1, 0, 9); // Z
        b.build().unwrap()
    }

    #[test]
    fn race_violation_found_and_confirmed() {
        let p = race_with_assert();
        for matchgen in [MatchGen::Precise, MatchGen::OverApprox] {
            let report = check_program(&p, &CheckConfig::with_matchgen(matchgen));
            match &report.verdict {
                Verdict::Violation(cv) => {
                    assert!(cv.violated_props.iter().any(|m| m.contains("p1 first")));
                }
                other => panic!("{matchgen:?}: expected violation, got {other:?}"),
            }
        }
    }

    #[test]
    fn delay_sensitive_violation_found_under_unordered() {
        let p = delay_sensitive();
        let report = check_program(&p, &CheckConfig::default());
        assert!(
            matches!(report.verdict, Verdict::Violation(_)),
            "the paper's technique models transit delays: {:?}",
            report.verdict
        );
    }

    #[test]
    fn delay_sensitive_safe_under_zero_delay_encoding() {
        // The MCC/zero-delay encoding cannot see the Fig.-4b behaviour —
        // the precise reproduction of the paper's criticism.
        let p = delay_sensitive();
        let cfg = CheckConfig {
            delivery: DeliveryModel::ZeroDelay,
            ..CheckConfig::default()
        };
        let report = check_program(&p, &cfg);
        assert!(
            matches!(report.verdict, Verdict::Safe),
            "zero-delay misses the violation: {:?}",
            report.verdict
        );
    }

    #[test]
    fn fig1_is_safe_it_has_no_assertions() {
        let p = fig1();
        let report = check_program(&p, &CheckConfig::default());
        assert!(matches!(report.verdict, Verdict::Safe));
    }

    #[test]
    fn exhausted_budget_degrades_to_unknown() {
        // A deadline of now is already past when the first check would run
        // (and is also plumbed into the solver as a per-check deadline), so
        // the verdict must degrade to Unknown, never flip.
        let p = race_with_assert();
        let cfg = CheckConfig {
            deadline: Some(Instant::now()),
            ..CheckConfig::default()
        };
        let report = check_program(&p, &cfg);
        match &report.verdict {
            Verdict::Unknown(why) => assert!(why.contains("time budget"), "{why}"),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn session_reuse_answers_all_deliveries_like_fresh_checks() {
        // One session per (trace, pairs) through the pool must answer what
        // three from-scratch pipelines answer, with at most the pair-set
        // distinct encodings built.
        let p = delay_sensitive();
        let mut pool = crate::session::SessionPool::new();
        for delivery in DeliveryModel::ALL {
            let cfg = CheckConfig {
                delivery,
                matchgen: MatchGen::OverApprox,
                ..CheckConfig::default()
            };
            let (pooled, _) = check_source(&mut pool, &p, &mut SingleTrace::new(&p, &cfg), &cfg);
            let fresh = check_program(&p, &cfg);
            assert_eq!(
                std::mem::discriminant(&pooled.verdict),
                std::mem::discriminant(&fresh.verdict),
                "{delivery}: pooled {:?} vs fresh {:?}",
                pooled.verdict,
                fresh.verdict,
            );
        }
        assert!(
            pool.encodings_built < 3,
            "traces coincide across deliveries here, so encodings must be shared"
        );
    }

    #[test]
    fn check_trace_on_violating_trace_is_its_own_witness() {
        let p = race_with_assert();
        let trace = (0..64)
            .map(|seed| mcapi::runtime::execute_random(&p, DeliveryModel::Unordered, seed).trace)
            .find(|t| t.violation.is_some())
            .expect("some schedule delivers p2's message first");
        let v = trace.violation.clone().unwrap();
        let n = trace.events.len();

        let report = check_trace(&p, &trace, &CheckConfig::default());
        let Verdict::Violation(cv) = &report.verdict else {
            panic!("expected a violation, got {:?}", report.verdict);
        };
        assert_eq!(
            report.sat_checks, 0,
            "no solver query for a violating trace"
        );
        assert_eq!(cv.violation.as_ref(), Some(&v));
        assert_eq!(cv.violated_props, vec![v.message.clone()]);
        assert_eq!(cv.branch_path, None);
        assert_eq!(cv.witness.matching, trace.concrete_matching());
        assert_eq!(cv.witness.event_order, (0..n).collect::<Vec<_>>());
        assert_eq!(cv.witness.clocks, (0..n as i64).collect::<Vec<_>>());
        assert!(cv.witness.recv_values.is_empty());
        assert_eq!(cv.witness.violated, vec![v.message]);
    }

    #[test]
    fn receives_beyond_thread_64_are_keyed() {
        // 64 empty threads, then t64 sends 2 to t65, which asserts 1. The
        // random trace violates on its own, so the witness keys t65's
        // receive from the trace.
        let mut b = ProgramBuilder::new("wide66");
        for i in 0..64 {
            b.thread(format!("t{i}"));
        }
        let sender = b.thread("t64");
        let receiver = b.thread("t65");
        let v = b.recv(receiver, 0);
        b.assert_cond(
            receiver,
            Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(1)),
            "v is one",
        );
        b.send_const(sender, receiver, 0, 2);
        let p = b.build().unwrap();
        let report = check_program(&p, &CheckConfig::default());
        assert!(
            matches!(report.verdict, Verdict::Violation(_)),
            "{:?}",
            report.verdict
        );
        let paths = crate::paths::check_program_paths(&p, &crate::paths::PathsConfig::default());
        assert!(
            matches!(paths.verdict, Verdict::Violation(_)),
            "{:?}",
            paths.verdict
        );
    }

    #[test]
    fn fig1_matching_enumeration_is_exactly_fig4() {
        let p = fig1();
        let cfg = CheckConfig::default();
        let trace = generate_trace(&p, &cfg);
        let en = enumerate_matchings(&p, &trace, &cfg, 100);
        assert_eq!(en.matchings.len(), 2, "Fig. 4a and Fig. 4b");
        assert_eq!(en.spurious, 0, "precise pairs yield no spurious models");
    }

    #[test]
    fn overapprox_enumeration_agrees_after_refinement() {
        let p = fig1();
        let cfg = CheckConfig::with_matchgen(MatchGen::OverApprox);
        let trace = generate_trace(&p, &cfg);
        let en = enumerate_matchings(&p, &trace, &cfg, 100);
        assert_eq!(en.matchings.len(), 2);
    }

    #[test]
    fn zero_delay_enumeration_single_matching() {
        let p = fig1();
        let cfg = CheckConfig {
            delivery: DeliveryModel::ZeroDelay,
            matchgen: MatchGen::OverApprox,
            ..CheckConfig::default()
        };
        let trace = generate_trace(&p, &cfg);
        let en = enumerate_matchings(&p, &trace, &cfg, 100);
        assert_eq!(en.matchings.len(), 1, "MCC's model sees only Fig. 4a");
    }

    #[test]
    fn safe_program_reports_safe() {
        // Deterministic pipeline: single producer, FIFO-irrelevant.
        let mut b = ProgramBuilder::new("safe");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let v = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(7)),
            "is 7",
        );
        b.send_const(t1, t0, 0, 7);
        let p = b.build().unwrap();
        for matchgen in [MatchGen::Precise, MatchGen::OverApprox] {
            let report = check_program(&p, &CheckConfig::with_matchgen(matchgen));
            assert!(matches!(report.verdict, Verdict::Safe), "{matchgen:?}");
        }
    }

    #[test]
    fn direct_violation_trace_short_circuits() {
        // Program that always violates: the random trace itself fails.
        let mut b = ProgramBuilder::new("always");
        let t0 = b.thread("t0");
        b.assert_cond(t0, Cond::False, "always fails");
        let p = b.build().unwrap();
        let report = check_program(&p, &CheckConfig::default());
        assert!(matches!(report.verdict, Verdict::Violation(_)));
        assert_eq!(report.refinements, 0);
    }

    #[test]
    fn report_carries_cost_counters() {
        let p = race_with_assert();
        let precise = check_program(&p, &CheckConfig::with_matchgen(MatchGen::Precise));
        let over = check_program(&p, &CheckConfig::with_matchgen(MatchGen::OverApprox));
        assert!(precise.matchgen_states > over.matchgen_states);
        assert!(precise.encode_stats.sat_vars > 0);
        assert!(over.matchgen_pairs >= 1);
    }
}
