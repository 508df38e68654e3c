//! E5: wall-clock comparison — symbolic check vs explicit-state search
//! (naive, sleep-set-reduced) as races widen.
//!
//! Run: `cargo run --release -p bench --bin exp_dpor_compare`

use explicit::sleepset::SleepConfig;
use explicit::{ExploreConfig, GraphExplorer, SleepSetExplorer};
use mcapi::types::DeliveryModel;
use std::time::Instant;
use symbolic::checker::{check_program, CheckConfig, MatchGen};
use workloads::race::race_with_winner_assert;

fn main() {
    println!("# E5: checker runtimes as the race widens (violation search)\n");
    println!(
        "{}",
        bench::header(&[
            "workload",
            "symbolic (overapprox)",
            "graph search",
            "graph states",
            "stateless naive",
            "naive execs",
            "stateless + sleep sets",
            "sleep execs",
        ])
    );

    for n in 2..=6 {
        let program = race_with_winner_assert(n);

        let t = Instant::now();
        let sym = check_program(
            &program,
            &CheckConfig {
                matchgen: MatchGen::OverApprox,
                ..CheckConfig::default()
            },
        );
        let sym_time = t.elapsed();
        assert!(matches!(
            sym.verdict,
            symbolic::checker::Verdict::Violation(_)
        ));

        let cfg = ExploreConfig::with_model(DeliveryModel::Unordered);
        let t = Instant::now();
        let graph = GraphExplorer::new(&program, cfg).explore();
        let graph_time = t.elapsed();

        let t = Instant::now();
        let naive = SleepSetExplorer::new(
            &program,
            SleepConfig {
                use_sleep_sets: false,
                ..SleepConfig::default()
            },
        )
        .explore();
        let naive_time = t.elapsed();

        let t = Instant::now();
        let sleep = SleepSetExplorer::new(&program, SleepConfig::default()).explore();
        let sleep_time = t.elapsed();

        println!(
            "{}",
            bench::row(&[
                format!("race-assert({n})"),
                format!("{sym_time:?}"),
                format!("{graph_time:?}"),
                graph.states.to_string(),
                format!("{naive_time:?}"),
                naive.complete_terminals.to_string(),
                format!("{sleep_time:?}"),
                sleep.complete_terminals.to_string(),
            ])
        );
    }

    println!("\nReading: explicit enumeration explodes factorially with race width;");
    println!("sleep sets cut the execution count but not the asymptote; the symbolic");
    println!("check defers the case split to CDCL and scales much further — the");
    println!("Fusion-vs-Inspect shape the paper cites as motivation.");
}
