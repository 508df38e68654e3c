//! The SMT stack exercised through the exact formula shapes the encoder
//! produces, plus differential checks between the two match-pair
//! generators at the formula level.

use mcapi::types::DeliveryModel;
use smt::{SatResult, SmtSolver};
use symbolic::checker::{generate_trace, CheckConfig};
use symbolic::encode::{encode, EncodeOptions};
use symbolic::matchpairs::{overapprox_match_pairs, precise_match_pairs};
use workloads::race::race;
use workloads::{fig1, pipeline, ring, scatter};

#[test]
fn encoder_formula_sizes_scale_linearly_in_events() {
    // Order constraints are one per event (minus thread heads); match
    // disjuncts are bounded by pairs; uniqueness is R choose 2.
    for n in [2usize, 4, 6] {
        let p = race(n);
        let cfg = CheckConfig::default();
        let trace = generate_trace(&p, &cfg);
        let pairs = overapprox_match_pairs(&trace);
        let enc = encode(
            &p,
            &trace,
            &pairs,
            EncodeOptions {
                delivery: DeliveryModel::Unordered,
                negate_props: false,
            },
        );
        assert_eq!(enc.stats.match_disjuncts, n * n);
        assert_eq!(enc.stats.unique_pairs, n * (n - 1) / 2);
        assert_eq!(enc.stats.order_constraints, trace.events.len() - (n + 1));
        assert_eq!(enc.paths[0].clocks.len(), trace.events.len());
    }
}

#[test]
fn precise_and_overapprox_encodings_equisatisfiable_here() {
    // On fully-racy endpoints the two generators coincide, so the
    // encodings must give identical verdicts and model counts.
    let p = race(3);
    let cfg = CheckConfig::default();
    let trace = generate_trace(&p, &cfg);
    let precise = precise_match_pairs(&p, &trace, DeliveryModel::Unordered);
    let over = overapprox_match_pairs(&trace);
    assert_eq!(precise.sends_for, over.sends_for);
    let count = |pairs| {
        let mut enc = encode(
            &p,
            &trace,
            &pairs,
            EncodeOptions {
                delivery: DeliveryModel::Unordered,
                negate_props: false,
            },
        );
        let ids = enc.id_terms();
        enc.solver.enumerate_models(&ids, 1000).len()
    };
    assert_eq!(count(precise), count(over));
}

#[test]
fn unsat_instances_from_deterministic_programs() {
    // Rings are fully deterministic, and pipelines are under pairwise
    // FIFO: with the violation query the formula must be UNSAT before any
    // refinement, and solving must be fast even for bigger instances.
    let rings = [(3usize, 2usize), (4, 3), (5, 4)]
        .map(|(n, laps)| (ring(n, laps), DeliveryModel::Unordered));
    let pipelines = [(3usize, 2usize), (4, 3), (5, 4)]
        .map(|(stages, items)| (pipeline(stages, items), DeliveryModel::PairwiseFifo));
    for (p, delivery) in rings.into_iter().chain(pipelines) {
        let cfg = CheckConfig::default();
        let trace = generate_trace(&p, &cfg);
        let pairs = overapprox_match_pairs(&trace);
        let mut enc = encode(
            &p,
            &trace,
            &pairs,
            EncodeOptions {
                delivery,
                ..EncodeOptions::default()
            },
        );
        assert_eq!(
            enc.solver.check(),
            SatResult::Unsat,
            "{} [{delivery}]",
            p.name
        );
    }
}

#[test]
fn scatter_nonblocking_formula_is_satisfiable_for_enumeration() {
    let p = scatter(3);
    let cfg = CheckConfig::default();
    let trace = generate_trace(&p, &cfg);
    let pairs = precise_match_pairs(&p, &trace, DeliveryModel::Unordered);
    let mut enc = encode(
        &p,
        &trace,
        &pairs,
        EncodeOptions {
            delivery: DeliveryModel::Unordered,
            negate_props: false,
        },
    );
    let ids = enc.id_terms();
    let models = enc.solver.enumerate_models(&ids, 1000);
    // Master's 3 gather slots can be filled by the 3 worker replies in any
    // order: 3! = 6; workers' own job receives are fixed.
    assert_eq!(models.len(), 6);
}

#[test]
fn solver_stats_accumulate_across_checks() {
    let p = fig1();
    let cfg = CheckConfig::default();
    let trace = generate_trace(&p, &cfg);
    let pairs = precise_match_pairs(&p, &trace, DeliveryModel::Unordered);
    let mut enc = encode(
        &p,
        &trace,
        &pairs,
        EncodeOptions {
            delivery: DeliveryModel::Unordered,
            negate_props: false,
        },
    );
    assert_eq!(enc.solver.check(), SatResult::Sat);
    let d1 = enc.solver.stats().decisions;
    let ids = enc.id_terms();
    enc.solver.block_model_values(&ids);
    assert_eq!(enc.solver.check(), SatResult::Sat);
    let d2 = enc.solver.stats().decisions;
    assert!(d2 >= d1);
}

#[test]
fn direct_smt_api_handles_encoder_fragment() {
    // The encoder only ever emits: strict clock orders, value equalities
    // with offsets, identifier bindings, boolean structure. Verify each
    // shape through the public API in one formula.
    let mut s = SmtSolver::new();
    let c1 = s.int_var("c1");
    let c2 = s.int_var("c2");
    let v = s.int_var("v");
    let id = s.int_var("id");
    let order = s.lt(c1, c2);
    let vplus = s.add_const(v, 3);
    let val_eq = s.eq_const(vplus, 10);
    let bind0 = s.eq_const(id, 0);
    let bind1 = s.eq_const(id, 1);
    let one_of = s.or2(bind0, bind1);
    let distinct = s.ne(c1, c2);
    for t in [order, val_eq, one_of, distinct] {
        s.assert_term(t);
    }
    assert_eq!(s.check(), SatResult::Sat);
    let m = s.model().unwrap();
    assert!(m.ints[0] < m.ints[1]);
    assert_eq!(m.ints[2], 7);
    assert!(m.ints[3] == 0 || m.ints[3] == 1);
}
