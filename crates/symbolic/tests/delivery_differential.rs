//! The delivery-axiom differential: the linear-size delivery groups that
//! `Encoding::delivery_axioms` builds must decide exactly what the direct
//! quadratic formulation decides. That formulation quantifies over pairs of
//! same-destination sends × pairs of receives, and lives here only as the
//! reference.
//!
//! For every `default_grid(2)` point, every corpus program and seeded
//! random programs, under pairwise FIFO and zero delay, with both the
//! precise and the over-approximate match pairs:
//! - the violation query has the same SAT/UNSAT answer under both axiom
//!   sets;
//! - behaviour enumeration over the receive identifiers yields the same
//!   set of matchings;
//! - every model of the new formula makes every reference axiom true.
//!
//! It also pins the size of the `branchy5` encoding, so the quadratic form
//! cannot creep back.

use mcapi::builder::ProgramBuilder;
use mcapi::expr::{Cond, Expr};
use mcapi::program::Program;
use mcapi::trace::Trace;
use mcapi::types::{CmpOp, DeliveryModel};
use smt::{SatResult, SmtSolver, TermId};
use std::collections::BTreeSet;
use symbolic::checker::{check_program, generate_trace, CheckConfig, MatchGen};
use symbolic::encode::{encode_core, RecvVar, SendVar};
use symbolic::{overapprox_match_pairs, precise_match_pairs, Encoding, MatchPairs};
use workloads::{default_grid, random_program, RandomProgramConfig};

/// Behaviour enumeration stops here; a program with more matchings is
/// compared on its first `LIMIT` models only.
const LIMIT: usize = 400;

const ORDERED: [DeliveryModel; 2] = [DeliveryModel::PairwiseFifo, DeliveryModel::ZeroDelay];

/// The direct O(S²R²) delivery axioms: the reference the linear groups
/// are checked against.
fn reference_axioms(
    solver: &mut SmtSolver,
    sends: &[SendVar],
    recvs: &[RecvVar],
    delivery: DeliveryModel,
) -> Vec<TermId> {
    let mut axioms: Vec<TermId> = Vec::new();
    match delivery {
        DeliveryModel::Unordered => {}
        DeliveryModel::PairwiseFifo => {
            // Sends from one source to one destination arrive in order: if
            // ra consumed the later send and rb the earlier one, rb must
            // have completed first.
            for (i1, s1) in sends.iter().enumerate() {
                for s2 in sends.iter().skip(i1 + 1) {
                    if s1.msg.thread != s2.msg.thread || s1.to != s2.to {
                        continue;
                    }
                    let (first, second) = if s1.msg.seq < s2.msg.seq {
                        (s1, s2)
                    } else {
                        (s2, s1)
                    };
                    for ra in recvs.iter().filter(|r| r.endpoint == s1.to) {
                        for rb in recvs.iter().filter(|r| r.endpoint == s1.to) {
                            if ra.key == rb.key {
                                continue;
                            }
                            let a2 = solver.eq_const(ra.id_term, second.id);
                            let b1 = solver.eq_const(rb.id_term, first.id);
                            let premise = solver.and2(a2, b1);
                            let conc = solver.lt(rb.clock_obs, ra.clock_obs);
                            axioms.push(solver.implies(premise, conc));
                        }
                    }
                }
            }
        }
        DeliveryModel::ZeroDelay => {
            // Instant in-order delivery: receives at an endpoint consume
            // sends in global send order.
            for (i1, s1) in sends.iter().enumerate() {
                for s2 in sends.iter().skip(i1 + 1) {
                    if s1.to != s2.to {
                        continue;
                    }
                    axioms.push(solver.ne(s1.clock, s2.clock));
                    for ra in recvs.iter().filter(|r| r.endpoint == s1.to) {
                        for rb in recvs.iter().filter(|r| r.endpoint == s1.to) {
                            if ra.key == rb.key {
                                continue;
                            }
                            for (sa, sb) in [(s1, s2), (s2, s1)] {
                                let pa = solver.eq_const(ra.id_term, sa.id);
                                let pb = solver.eq_const(rb.id_term, sb.id);
                                let ord = solver.lt(sa.clock, sb.clock);
                                let premise = solver.and([pa, pb, ord]);
                                let conc = solver.lt(ra.clock_obs, rb.clock_obs);
                                axioms.push(solver.implies(premise, conc));
                            }
                        }
                    }
                }
            }
        }
    }
    axioms
}

/// Path 0's query with either axiom set asserted directly: the shape of
/// `symbolic::encode`, with the delivery group swappable.
fn build(
    program: &Program,
    trace: &Trace,
    pairs: &MatchPairs,
    delivery: DeliveryModel,
    negate_props: bool,
    reference: bool,
) -> Encoding {
    let mut enc = encode_core(program, trace, pairs);
    let pins = enc.paths[0].pins.clone();
    enc.assert_terms(pins);
    let axioms = if reference {
        reference_axioms(&mut enc.solver, &enc.sends, &enc.recvs, delivery)
    } else {
        enc.delivery_axioms(delivery)
    };
    enc.assert_terms(axioms);
    let props = enc.props_term(0, negate_props);
    enc.assert_terms([props]);
    enc
}

/// Run `enc` to SAT/UNSAT, enumerating up to `limit` matchings over the
/// receive identifiers. Every model must satisfy every reference axiom.
fn models_satisfying_reference(
    enc: &mut Encoding,
    delivery: DeliveryModel,
    limit: usize,
    what: &str,
) -> (SatResult, BTreeSet<Vec<i64>>) {
    let refs = reference_axioms(&mut enc.solver, &enc.sends, &enc.recvs, delivery);
    let ids = enc.id_terms();
    let mut found = BTreeSet::new();
    let mut first = None;
    while found.len() < limit {
        let res = enc.solver.check();
        first.get_or_insert(res);
        if res != SatResult::Sat {
            assert_eq!(res, SatResult::Unsat, "{what}: solver gave up");
            break;
        }
        let model = enc.solver.model().expect("model after SAT").clone();
        for &ax in &refs {
            assert_eq!(
                model.eval_bool(enc.solver.pool(), ax),
                Some(true),
                "{what}: a model of the linear axioms violates reference axiom {}",
                enc.solver.display(ax)
            );
        }
        let tuple: Vec<i64> = ids
            .iter()
            .map(|&t| model.eval_int(enc.solver.pool(), t).expect("id valued"))
            .collect();
        assert!(found.insert(tuple), "{what}: blocked matching came back");
        enc.solver.block_model_values(&ids);
    }
    (first.expect("at least one check"), found)
}

/// The differential for one program: both axiom sets, both ordered
/// delivery models, both match-pair generators.
fn differential(name: &str, program: &Program) {
    for delivery in ORDERED {
        let cfg = CheckConfig {
            delivery,
            ..CheckConfig::default()
        };
        let trace = generate_trace(program, &cfg);
        for (gen, pairs) in [
            ("precise", precise_match_pairs(program, &trace, delivery)),
            ("overapprox", overapprox_match_pairs(&trace)),
        ] {
            let what = format!("{name} {delivery:?} {gen}");
            // The violation query: same answer, and its model (if any)
            // satisfies the reference.
            let mut new = build(program, &trace, &pairs, delivery, true, false);
            let mut old = build(program, &trace, &pairs, delivery, true, true);
            let (new_res, _) = models_satisfying_reference(&mut new, delivery, 1, &what);
            assert_eq!(new_res, old.solver.check(), "{what}: violation query");
            // Behaviour enumeration: the same matchings.
            let mut new = build(program, &trace, &pairs, delivery, false, false);
            let mut old = build(program, &trace, &pairs, delivery, false, true);
            let (_, new_set) = models_satisfying_reference(&mut new, delivery, LIMIT, &what);
            let old_set: BTreeSet<Vec<i64>> = old
                .solver
                .enumerate_models(&old.id_terms(), LIMIT)
                .into_iter()
                .collect();
            if new_set.len() < LIMIT || old_set.len() < LIMIT {
                assert_eq!(new_set, old_set, "{what}: matchings differ");
            }
        }
    }
}

#[test]
fn grid_points_agree_with_the_reference() {
    for spec in default_grid(2) {
        differential(&spec.name(), &spec.build());
    }
}

#[test]
fn corpus_programs_agree_with_the_reference() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mcapi"))
        .collect();
    files.sort();
    assert!(files.len() >= 24, "corpus/ shrank to {}", files.len());
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable corpus file");
        let program = frontend::parse_program(&src).expect("corpus file parses");
        differential(&path.display().to_string(), &program);
    }
}

#[test]
fn random_programs_agree_with_the_reference() {
    for seed in 0..32 {
        let cfg = RandomProgramConfig {
            nonblocking_percent: 50,
            with_assert: seed % 2 == 0,
            ..RandomProgramConfig::default()
        };
        differential(&format!("random seed {seed}"), &random_program(seed, &cfg));
    }
}

/// Two `recv_i`/`wait` pairs on one endpoint whose waits complete in
/// reverse post order: each receive is ordered by its wait's clock, not by
/// its post, and the earlier post completes second.
#[test]
fn reversed_waits_agree_with_the_reference() {
    let mut b = ProgramBuilder::new("reversed-waits");
    let t0 = b.thread("t0");
    let t1 = b.thread("t1");
    let t2 = b.thread("t2");
    let (first, r1) = b.recv_i(t0, 0);
    let (second, r2) = b.recv_i(t0, 0);
    b.wait(t0, r2);
    b.wait(t0, r1);
    b.assert_cond(
        t0,
        Cond::cmp(CmpOp::Lt, Expr::Var(first), Expr::Var(second)),
        "posts see sends in order",
    );
    b.send_const(t1, t0, 0, 1);
    b.send_const(t1, t0, 0, 2);
    b.send_const(t2, t0, 0, 3);
    differential("reversed-waits", &b.build().unwrap());
}

/// A two-send channel next to a causally earlier send from another
/// source: t2 sends `x` to t0 and only then lets t1 send `a1`, `a2`. Pairwise
/// FIFO orders `a1` before `a2` but lets `x` arrive at any point, which is 3
/// matchings; zero delay forces `x` first, which is 1. An axiom that
/// ordered receives across channels would give FIFO zero delay's answer.
#[test]
fn fifo_leaves_other_channels_unordered() {
    let mut b = ProgramBuilder::new("fifo-beside-causal-send");
    let t0 = b.thread("t0");
    let t1 = b.thread("t1");
    let t2 = b.thread("t2");
    b.recv(t0, 0);
    b.recv(t0, 0);
    b.recv(t0, 0);
    b.send_const(t2, t0, 0, 9);
    b.send_const(t2, t1, 0, 0);
    b.recv(t1, 0);
    b.send_const(t1, t0, 0, 1);
    b.send_const(t1, t0, 0, 2);
    let program = b.build().unwrap();
    differential("fifo-beside-causal-send", &program);
    for (delivery, expect) in ORDERED.into_iter().zip([3, 1]) {
        let trace = generate_trace(&program, &CheckConfig::default());
        let pairs = overapprox_match_pairs(&trace);
        let mut enc = build(&program, &trace, &pairs, delivery, false, false);
        let ids = enc.id_terms();
        let matchings = enc.solver.enumerate_models(&ids, LIMIT).len();
        assert_eq!(matchings, expect, "{delivery:?}");
    }
}

/// The `branchy5` single-trace precise encoding, whose zero-delay group
/// was 64,128 clauses and whose FIFO group was 13,340 in the quadratic
/// form.
#[test]
fn branchy5_delivery_groups_stay_linear() {
    let program = workloads::FamilySpec::from_name("branchy5")
        .expect("grid point")
        .build();
    let clauses = |delivery| {
        let cfg = CheckConfig {
            delivery,
            matchgen: MatchGen::Precise,
            ..CheckConfig::default()
        };
        check_program(&program, &cfg).encode_stats.sat_clauses
    };
    let zero = clauses(DeliveryModel::ZeroDelay);
    assert!(zero <= 6_412, "zero-delay encoding has {zero} clauses");
    let fifo = clauses(DeliveryModel::PairwiseFifo);
    assert!(fifo <= 13_340, "pairwise-FIFO encoding has {fifo} clauses");
}
