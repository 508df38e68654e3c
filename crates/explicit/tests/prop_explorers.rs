//! Property tests: the graph search agrees with the sleep-set reference
//! explorer (`common/sleepset.rs`) on random programs.

mod common;

use common::sleepset::{SleepConfig, SleepSetExplorer};
use explicit::{ExploreConfig, GraphExplorer};
use mcapi::builder::ProgramBuilder;
use mcapi::program::Program;
use mcapi::types::DeliveryModel;
use proptest::prelude::*;

/// Random deadlock-free program (sends precede receives per thread).
fn arb_program() -> impl Strategy<Value = Program> {
    (
        2usize..4,
        prop::collection::vec((0usize..3, 1i64..20), 1..6),
    )
        .prop_map(|(n, sends)| {
            let mut b = ProgramBuilder::new("prop");
            let tids: Vec<_> = (0..n).map(|i| b.thread(format!("t{i}"))).collect();
            let mut incoming = vec![0usize; n];
            for (i, &(to_raw, val)) in sends.iter().enumerate() {
                let from = i % n;
                let mut to = to_raw % n;
                if to == from {
                    to = (to + 1) % n;
                }
                b.send_const(tids[from], tids[to], 0, val);
                incoming[to] += 1;
            }
            for (t, &cnt) in incoming.iter().enumerate() {
                for _ in 0..cnt {
                    b.recv(tids[t], 0);
                }
            }
            b.build().unwrap()
        })
}

fn model_strategy() -> impl Strategy<Value = DeliveryModel> {
    prop_oneof![
        Just(DeliveryModel::Unordered),
        Just(DeliveryModel::PairwiseFifo),
        Just(DeliveryModel::ZeroDelay),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sleep-set pruning preserves matchings, violations and deadlock
    /// existence versus the naive stateless enumeration.
    #[test]
    fn sleep_sets_preserve_semantics(p in arb_program(), model in model_strategy()) {
        let full = SleepSetExplorer::new(
            &p,
            SleepConfig { model, use_sleep_sets: false, ..SleepConfig::default() },
        )
        .explore();
        let red = SleepSetExplorer::new(
            &p,
            SleepConfig { model, use_sleep_sets: true, ..SleepConfig::default() },
        )
        .explore();
        prop_assert_eq!(&full.matchings, &red.matchings, "model {}", model);
        prop_assert_eq!(&full.violations, &red.violations);
        prop_assert_eq!(full.deadlocks > 0, red.deadlocks > 0);
        prop_assert!(red.complete_terminals <= full.complete_terminals);
    }

    /// Stateless enumeration and graph search agree on matchings.
    #[test]
    fn stateless_equals_graph_on_matchings(p in arb_program(), model in model_strategy()) {
        let graph = GraphExplorer::new(&p, ExploreConfig::with_model(model)).explore();
        let sleep = SleepSetExplorer::new(
            &p,
            SleepConfig { model, ..SleepConfig::default() },
        )
        .explore();
        prop_assert_eq!(&graph.matchings, &sleep.matchings);
    }

    /// Delivery-model hierarchy on arbitrary programs:
    /// zero-delay ⊆ pairwise-fifo ⊆ unordered.
    #[test]
    fn hierarchy_holds_on_random_programs(p in arb_program()) {
        let beh = |model| {
            GraphExplorer::new(&p, ExploreConfig::with_model(model)).explore().matchings
        };
        let un = beh(DeliveryModel::Unordered);
        let pf = beh(DeliveryModel::PairwiseFifo);
        let zd = beh(DeliveryModel::ZeroDelay);
        prop_assert!(zd.is_subset(&pf));
        prop_assert!(pf.is_subset(&un));
    }
}
