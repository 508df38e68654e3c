//! E1 as tests: the three delivery models form a strict behaviour
//! hierarchy, and both the runtime and the encoding respect it.

use explicit::{ExploreConfig, GraphExplorer};
use mcapi::types::DeliveryModel;
use symbolic::checker::{
    check_program, enumerate_matchings, generate_trace, CheckConfig, MatchGen, Verdict,
};
use workloads::race::{delay_gap, race, race_with_winner_assert};
use workloads::{fig1, fig1_with_assert, pipeline, ring};

fn behaviours(
    p: &mcapi::Program,
    model: DeliveryModel,
) -> std::collections::BTreeSet<mcapi::Matching> {
    GraphExplorer::new(p, ExploreConfig::with_model(model))
        .explore()
        .matchings
}

#[test]
fn zero_delay_subset_of_fifo_subset_of_unordered() {
    // ZeroDelay ⊆ PairwiseFifo ⊆ Unordered on every workload.
    let programs = vec![fig1(), race(3), pipeline(3, 2), ring(3, 2), delay_gap(1)];
    for p in &programs {
        let un = behaviours(p, DeliveryModel::Unordered);
        let pf = behaviours(p, DeliveryModel::PairwiseFifo);
        let zd = behaviours(p, DeliveryModel::ZeroDelay);
        assert!(zd.is_subset(&pf), "{}: zero-delay ⊄ fifo", p.name);
        assert!(pf.is_subset(&un), "{}: fifo ⊄ unordered", p.name);
    }
}

#[test]
fn hierarchy_is_strict_somewhere() {
    // fig1: unordered has 2 behaviours, zero-delay 1 (strict at the top);
    // single-producer pipeline: fifo strictly below unordered.
    let f = fig1();
    assert!(
        behaviours(&f, DeliveryModel::ZeroDelay).len()
            < behaviours(&f, DeliveryModel::Unordered).len()
    );
    let p = pipeline(3, 2);
    assert!(
        behaviours(&p, DeliveryModel::PairwiseFifo).len()
            < behaviours(&p, DeliveryModel::Unordered).len(),
        "two items from one source must be reorderable only under Unordered"
    );
}

#[test]
fn symbolic_enumeration_respects_hierarchy() {
    let p = fig1();
    let mut counts = Vec::new();
    for model in [
        DeliveryModel::ZeroDelay,
        DeliveryModel::PairwiseFifo,
        DeliveryModel::Unordered,
    ] {
        let cfg = CheckConfig {
            delivery: model,
            matchgen: MatchGen::OverApprox,
            ..CheckConfig::default()
        };
        let trace = generate_trace(&p, &cfg);
        let en = enumerate_matchings(&p, &trace, &cfg, 100);
        counts.push(en.matchings.len());
    }
    assert!(
        counts[0] <= counts[1] && counts[1] <= counts[2],
        "{counts:?}"
    );
    assert_eq!(counts[0], 1);
    assert_eq!(counts[2], 2);
}

#[test]
fn fifo_matters_only_for_same_source_streams() {
    // fig1's racing sends come from different threads: FIFO == Unordered.
    let f = fig1();
    assert_eq!(
        behaviours(&f, DeliveryModel::PairwiseFifo),
        behaviours(&f, DeliveryModel::Unordered)
    );
}

#[test]
fn behaviours_and_verdicts_per_model_are_pinned() {
    // The E1 table: per delivery model (unordered, pairwise FIFO, zero
    // delay), the explicit behaviour count and the violation verdict, which
    // the explicit search and the over-approximate symbolic check share.
    let table = [
        (fig1_with_assert(), [1, 1, 1], [true, true, false]),
        (race_with_winner_assert(2), [1, 1, 1], [true, true, true]),
        (race_with_winner_assert(3), [2, 2, 2], [true, true, true]),
        (delay_gap(1), [1, 1, 1], [true, true, false]),
        (delay_gap(2), [1, 1, 1], [true, true, false]),
        (pipeline(3, 2), [2, 1, 1], [true, false, false]),
    ];
    for (p, counts, violations) in &table {
        for (i, model) in DeliveryModel::ALL.into_iter().enumerate() {
            let truth = GraphExplorer::new(p, ExploreConfig::with_model(model)).explore();
            let cfg = CheckConfig {
                delivery: model,
                matchgen: MatchGen::OverApprox,
                ..CheckConfig::default()
            };
            let symbolic = matches!(check_program(p, &cfg).verdict, Verdict::Violation(_));
            assert_eq!(
                (truth.matchings.len(), truth.found_violation(), symbolic),
                (counts[i], violations[i], violations[i]),
                "{} [{model}]",
                p.name
            );
        }
    }
}

#[test]
fn verdicts_track_the_hierarchy_on_delay_gap() {
    let p = delay_gap(1);
    let verdict = |model| {
        let cfg = CheckConfig {
            delivery: model,
            ..CheckConfig::default()
        };
        match check_program(&p, &cfg).verdict {
            Verdict::Violation(_) => "violation",
            Verdict::Safe => "safe",
            Verdict::Unknown(_) => "unknown",
        }
    };
    assert_eq!(verdict(DeliveryModel::Unordered), "violation");
    assert_eq!(verdict(DeliveryModel::PairwiseFifo), "violation");
    assert_eq!(verdict(DeliveryModel::ZeroDelay), "safe");
}

#[test]
fn pipeline_overtaking_is_fifo_protected() {
    let p = pipeline(3, 2);
    let verdict = |model| {
        let cfg = CheckConfig {
            delivery: model,
            matchgen: MatchGen::OverApprox,
            ..CheckConfig::default()
        };
        matches!(check_program(&p, &cfg).verdict, Verdict::Violation(_))
    };
    assert!(
        !verdict(DeliveryModel::PairwiseFifo),
        "FIFO keeps the pipeline in order"
    );
    assert!(
        verdict(DeliveryModel::Unordered),
        "unordered transport reorders"
    );
}
