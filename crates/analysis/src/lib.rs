//! # analysis — static communication analysis over compiled MCAPI programs
//!
//! A pre-verification pass over [`mcapi::program::Program`]s (flat,
//! loop-free code) producing two artefacts:
//!
//! 1. **Lint findings** ([`Finding`]): orphan receives (no reachable
//!    sender targets the endpoint), waits on never-issued requests,
//!    definite deadlocks over the blocking-dependency graph, statically
//!    false / tautological assertions, and statically infeasible branch
//!    arms. The MCAPI-lite frontend maps findings back to source spans
//!    via [`mcapi::program::Thread::origins`] and renders them with the
//!    caret machinery (`mcapi-smc lint`).
//! 2. **A triage verdict** ([`triage::StaticVerdict`]): scenarios the
//!    analysis can decide soundly (see `crate::triage` for the argument)
//!    are settled with zero engine work by the portfolio driver.
//!
//! Everything rests on per-thread constant propagation
//! (`crate::constprop`), which reuses the interpreter's own expression
//! evaluators so the static story can never diverge from execution.

#![warn(missing_docs)]

pub mod comm;
pub mod constprop;
pub mod triage;

use comm::{sends_by_endpoint, straight_run, RunEnd, SendSite, StraightRun};
use constprop::{eval_cond, flow, ThreadFlow};
use mcapi::program::{Instr, Program};
use mcapi::types::EndpointAddr;
use std::collections::BTreeMap;

pub use triage::{StaticVerdict, TriageConfig};

/// How serious a finding is. `Error`-class findings describe programs
/// that can never work as written; `Warning`-class findings are dead or
/// redundant communication structure.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious but not definitely broken (dead arms, no-op waits,
    /// tautological assertions).
    Warning,
    /// Definitely broken: unmatchable receives, definite deadlocks,
    /// statically false assertions.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What kind of defect a finding reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FindingKind {
    /// A receive whose endpoint no reachable send targets.
    OrphanReceive,
    /// A wait on a request no path can have issued.
    DanglingWait,
    /// A thread provably blocked forever (blocking-dependency cycle).
    DefiniteDeadlock,
    /// An assertion whose condition is statically false.
    AssertStaticallyFalse,
    /// An assertion whose condition is statically true on every path.
    AssertTautology,
    /// A branch whose condition is constant: one arm can never execute.
    InfeasibleArm,
    /// A variable that is never read (frontend-lowered programs only).
    UnusedVariable,
    /// A request handle that is never waited on (frontend-lowered
    /// programs only).
    UnusedRequest,
}

/// One diagnostic produced by the analysis.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Defect class.
    pub kind: FindingKind,
    /// Error or warning.
    pub severity: Severity,
    /// Offending thread index.
    pub thread: usize,
    /// Offending instruction index (first relevant copy for ops that were
    /// unrolled into several instructions).
    pub pc: usize,
    /// Pre-order structured-op ordinal (`Thread::origins[pc]`), when the
    /// program carries an origin table — the frontend's span key.
    pub op: Option<u32>,
    /// Human-readable description; names the thread and op index itself
    /// so the finding survives outside span-aware renderers.
    pub message: String,
}

/// Everything one analysis run produced.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Lint findings, ordered by (thread, pc).
    pub findings: Vec<Finding>,
    /// A statically decided verdict, when triage applies.
    pub static_verdict: Option<StaticVerdict>,
    /// The static path-space size (saturated just past the triage budget).
    pub static_paths: u64,
}

/// Is every branch/jump edge strictly forward? Compiled programs always
/// are; hand-written flat JSON might not be, and the analysis refuses to
/// reason about cyclic code rather than risk an unsound claim.
fn forward_only(program: &Program) -> bool {
    program.threads.iter().all(|t| {
        t.code.iter().enumerate().all(|(pc, ins)| match ins {
            Instr::Branch { else_target, .. } => *else_target > pc,
            Instr::Jump { target } => *target > pc,
            _ => true,
        })
    })
}

/// Run the full analysis under the default [`TriageConfig`].
pub fn analyze(program: &Program) -> AnalysisReport {
    analyze_with(program, &TriageConfig::default())
}

/// Run the full analysis: constant propagation, the communication graph,
/// match-potential and deadlock findings, assertion/arm classification,
/// and triage.
pub fn analyze_with(program: &Program, cfg: &TriageConfig) -> AnalysisReport {
    if !forward_only(program) {
        return AnalysisReport {
            findings: Vec::new(),
            static_verdict: None,
            static_paths: triage::static_path_product(program, cfg.max_static_paths),
        };
    }
    let flows: Vec<ThreadFlow> = program.threads.iter().map(flow).collect();
    let runs: Vec<StraightRun> = program
        .threads
        .iter()
        .enumerate()
        .map(|(t, th)| straight_run(t, th))
        .collect();
    let sends_to = sends_by_endpoint(program, &flows);

    let mut findings = Vec::new();
    match_potential_findings(program, &flows, &sends_to, &mut findings);
    deadlock_findings(program, &runs, &sends_to, &mut findings);
    classification_findings(program, &flows, &mut findings);
    findings.sort_by_key(|f| (f.thread, f.pc));

    let static_verdict = triage::triage(program, &flows, &runs, &findings, cfg);
    AnalysisReport {
        findings,
        static_verdict,
        static_paths: triage::static_path_product(program, cfg.max_static_paths),
    }
}

/// The `thread `name` op N:` site prefix every finding message carries
/// (mirrors `McapiError::Validation` messages).
fn site(program: &Program, thread: usize, pc: usize) -> String {
    let t = &program.threads[thread];
    match t.origins.get(pc) {
        Some(op) => format!("thread `{}` op {op}", t.name),
        None => format!("thread `{}` pc {pc}", t.name),
    }
}

fn finding(
    program: &Program,
    kind: FindingKind,
    severity: Severity,
    thread: usize,
    pc: usize,
    what: String,
) -> Finding {
    Finding {
        kind,
        severity,
        thread,
        pc,
        op: program.threads[thread].origins.get(pc).copied(),
        message: format!("{}: {what}", site(program, thread, pc)),
    }
}

/// Orphan receives and dangling waits.
fn match_potential_findings(
    program: &Program,
    flows: &[ThreadFlow],
    sends_to: &BTreeMap<EndpointAddr, Vec<SendSite>>,
    findings: &mut Vec<Finding>,
) {
    for (t, thread) in program.threads.iter().enumerate() {
        for (pc, ins) in thread.code.iter().enumerate() {
            if !flows[t].reachable(pc) {
                continue;
            }
            match ins {
                Instr::Recv { port, .. } | Instr::RecvI { port, .. } => {
                    let ep = EndpointAddr::new(t, *port);
                    if sends_to.get(&ep).is_some_and(|s| !s.is_empty()) {
                        continue;
                    }
                    let (severity, what) = match ins {
                        Instr::Recv { .. } => (
                            Severity::Error,
                            format!(
                                "receive on port {port} can never be matched: no reachable \
                                 send targets endpoint {ep} (definite deadlock once reached)"
                            ),
                        ),
                        _ => (
                            Severity::Warning,
                            format!(
                                "non-blocking receive on port {port} can never complete: \
                                 no reachable send targets endpoint {ep}"
                            ),
                        ),
                    };
                    findings.push(finding(
                        program,
                        FindingKind::OrphanReceive,
                        severity,
                        t,
                        pc,
                        what,
                    ));
                }
                Instr::Wait { req } => {
                    let issued = flows[t].in_reqs[pc]
                        .as_ref()
                        .is_some_and(|reqs| reqs[req.0 as usize]);
                    if !issued {
                        findings.push(finding(
                            program,
                            FindingKind::DanglingWait,
                            Severity::Warning,
                            t,
                            pc,
                            format!(
                                "wait on {req:?}, which no send_i/recv_i on any path \
                                 can have issued; the wait is a no-op"
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

/// Definite-deadlock findings from the blocking-dependency fixpoint.
/// Orphan receives (endpoint with no reachable sender at all) are already
/// reported by [`match_potential_findings`]; this reports the cyclic
/// cases, where senders exist but are provably stuck themselves.
fn deadlock_findings(
    program: &Program,
    runs: &[StraightRun],
    sends_to: &BTreeMap<EndpointAddr, Vec<SendSite>>,
    findings: &mut Vec<Finding>,
) {
    let dead = comm::definitely_deadlocked(program, runs, sends_to);
    if dead.is_empty() {
        return;
    }
    let stuck: Vec<&str> = dead
        .iter()
        .map(|&(t, _)| program.threads[t].name.as_str())
        .collect();
    let stuck = stuck.join(", ");
    for &(t, pc) in &dead {
        let RunEnd::Blocked { endpoint, .. } = runs[t].end else {
            continue;
        };
        if sends_to.get(&endpoint).is_none_or(|s| s.is_empty()) {
            continue; // already reported as an orphan receive
        }
        findings.push(finding(
            program,
            FindingKind::DefiniteDeadlock,
            Severity::Error,
            t,
            pc,
            format!(
                "definite deadlock: `{}` blocks here waiting on {endpoint}, and every \
                 thread that could send there is itself blocked forever \
                 (stuck set: {stuck})",
                program.threads[t].name
            ),
        ));
    }
}

/// Assertion and branch-arm classification, aggregated per structured op:
/// an unrolled `repeat` flattens one source op into many instructions,
/// and a source-level claim ("this arm is dead", "this assert is a
/// tautology") must hold for *every* unrolled copy.
fn classification_findings(program: &Program, flows: &[ThreadFlow], findings: &mut Vec<Finding>) {
    // Key: Ok(origin ordinal) when the program carries an origin table,
    // Err(pc) (every pc its own group) when it does not.
    type OriginKey = Result<u32, usize>;
    for (t, thread) in program.threads.iter().enumerate() {
        let mut asserts: BTreeMap<OriginKey, Vec<usize>> = BTreeMap::new();
        let mut branches: BTreeMap<OriginKey, Vec<usize>> = BTreeMap::new();
        for (pc, ins) in thread.code.iter().enumerate() {
            if !flows[t].reachable(pc) {
                continue;
            }
            let key = thread.origins.get(pc).copied().ok_or(pc);
            match ins {
                Instr::Assert { .. } => asserts.entry(key).or_default().push(pc),
                Instr::Branch { .. } => branches.entry(key).or_default().push(pc),
                _ => {}
            }
        }
        for pcs in asserts.values() {
            let evals: Vec<Option<bool>> = pcs
                .iter()
                .map(|&pc| {
                    let Instr::Assert { cond, .. } = &thread.code[pc] else {
                        unreachable!()
                    };
                    flows[t].in_vals[pc]
                        .as_deref()
                        .and_then(|vals| eval_cond(cond, vals))
                })
                .collect();
            if let Some(i) = evals.iter().position(|e| *e == Some(false)) {
                let pc = pcs[i];
                let Instr::Assert { message, .. } = &thread.code[pc] else {
                    unreachable!()
                };
                findings.push(finding(
                    program,
                    FindingKind::AssertStaticallyFalse,
                    Severity::Error,
                    t,
                    pc,
                    format!("assertion `{message}` is statically false"),
                ));
            } else if evals.iter().all(|e| *e == Some(true)) {
                let pc = pcs[0];
                let Instr::Assert { message, .. } = &thread.code[pc] else {
                    unreachable!()
                };
                findings.push(finding(
                    program,
                    FindingKind::AssertTautology,
                    Severity::Warning,
                    t,
                    pc,
                    format!("assertion `{message}` is statically true on every path"),
                ));
            }
        }
        for pcs in branches.values() {
            let forced: Vec<Option<bool>> = pcs.iter().map(|&pc| flows[t].forced[pc]).collect();
            let (outcome, dead_arm) = if forced.iter().all(|f| *f == Some(true)) {
                ("true", "else")
            } else if forced.iter().all(|f| *f == Some(false)) {
                ("false", "then")
            } else {
                continue;
            };
            findings.push(finding(
                program,
                FindingKind::InfeasibleArm,
                Severity::Warning,
                t,
                pcs[0],
                format!(
                    "branch condition is statically {outcome}; \
                     the {dead_arm} arm can never execute"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcapi::builder::ProgramBuilder;
    use mcapi::expr::{Cond, Expr};
    use mcapi::program::Op;
    use mcapi::types::CmpOp;

    fn kinds(report: &AnalysisReport) -> Vec<FindingKind> {
        report.findings.iter().map(|f| f.kind).collect()
    }

    #[test]
    fn orphan_receive_is_an_error_naming_the_endpoint() {
        let mut b = ProgramBuilder::new("orphan");
        let a = b.thread("a");
        let c = b.thread("c");
        b.recv(a, 0);
        b.send_const(c, a, 1, 5); // wrong port
        b.port(a, 1);
        let p = b.build().unwrap();
        let report = analyze(&p);
        let f = &report.findings[0];
        assert_eq!(f.kind, FindingKind::OrphanReceive);
        assert_eq!(f.severity, Severity::Error);
        assert!(f.message.contains("thread `a` op 0"), "{}", f.message);
        assert!(f.message.contains("endpoint 0:0"), "{}", f.message);
        assert_eq!(report.static_verdict, None, "errors block triage");
    }

    #[test]
    fn dangling_wait_is_a_warning_and_does_not_block_triage() {
        let mut b = ProgramBuilder::new("dangle");
        let t = b.thread("t");
        let r = b.fresh_req(t);
        b.wait(t, r);
        let p = b.build().unwrap();
        let report = analyze(&p);
        assert_eq!(kinds(&report), vec![FindingKind::DanglingWait]);
        assert_eq!(report.findings[0].severity, Severity::Warning);
        assert_eq!(report.static_verdict, Some(StaticVerdict::Safe));
    }

    #[test]
    fn cyclic_blocking_is_reported_once_per_stuck_thread() {
        let mut b = ProgramBuilder::new("cycle");
        let a = b.thread("a");
        let c = b.thread("c");
        b.recv(a, 0);
        b.send_const(a, c, 0, 1);
        b.recv(c, 0);
        b.send_const(c, a, 0, 2);
        let p = b.build().unwrap();
        let report = analyze(&p);
        let dead: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::DefiniteDeadlock)
            .collect();
        assert_eq!(dead.len(), 2);
        assert!(
            dead[0].message.contains("stuck set: a, c"),
            "{}",
            dead[0].message
        );
    }

    #[test]
    fn constant_conditions_classify_arms_and_asserts() {
        let mut b = ProgramBuilder::new("consts");
        let t = b.thread("t");
        let x = b.fresh_var(t);
        b.assign(t, x, Expr::Const(7));
        b.push_op(
            t,
            Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(x), Expr::Const(5)),
                then_ops: vec![],
                else_ops: vec![Op::Send {
                    to: EndpointAddr::new(0, 0),
                    value: Expr::Const(0),
                }],
            },
        );
        b.assert_cond(
            t,
            Cond::cmp(CmpOp::Eq, Expr::Var(x), Expr::Const(7)),
            "x is seven",
        );
        let p = b.build().unwrap();
        let report = analyze(&p);
        assert_eq!(
            kinds(&report),
            vec![FindingKind::InfeasibleArm, FindingKind::AssertTautology]
        );
        assert!(report.findings[0].message.contains("statically true"));
        assert!(report.findings[1]
            .message
            .contains("statically true on every path"));
        // Tautologies and dead arms are warnings: triage still settles.
        assert_eq!(report.static_verdict, Some(StaticVerdict::Safe));
        assert_eq!(flow(&p.threads[0]).forced.iter().flatten().count(), 1);
    }

    #[test]
    fn unrolled_loop_copies_aggregate_per_source_op() {
        // A branch on the loop counter takes different arms on different
        // iterations: neither arm is dead at the source level, so no
        // infeasible-arm finding may fire even though every unrolled copy
        // is individually forced.
        let mut b = ProgramBuilder::new("loop");
        let t = b.thread("t");
        let u = b.thread("u");
        let i = b.fresh_var(t);
        b.repeat(t, 3, |body| {
            body.push_op(Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(i), Expr::Const(1)),
                then_ops: vec![Op::Send {
                    to: EndpointAddr::new(1, 0),
                    value: Expr::Var(i),
                }],
                else_ops: vec![],
            });
            body.assign(i, Expr::Var(i).plus(1));
        });
        for _ in 0..2 {
            b.recv(u, 0);
        }
        let p = b.build().unwrap();
        let report = analyze(&p);
        assert!(
            !kinds(&report).contains(&FindingKind::InfeasibleArm),
            "{:?}",
            report.findings
        );
        // Each unrolled copy is forced on its own.
        assert_eq!(flow(&p.threads[0]).forced.iter().flatten().count(), 3);
    }

    #[test]
    fn facts_refuse_cyclic_flat_code() {
        use mcapi::program::{Instr, Thread};
        let p = Program {
            name: "cyclic".into(),
            threads: vec![Thread {
                name: "t".into(),
                ops: vec![],
                num_vars: 0,
                num_reqs: 0,
                ports: vec![],
                code: vec![Instr::Jump { target: 0 }],
                origins: vec![],
            }],
        };
        // No claim about cyclic code: no findings and no verdict.
        let report = analyze(&p);
        assert!(report.findings.is_empty());
        assert_eq!(report.static_verdict, None);
    }
}
