//! E2: the cost of precise match-pair generation ("prohibitively
//! expensive") vs the over-approximation, as the race widens.
//!
//! The "precise states" column counts the distinct states the precise DFS
//! visits. Those are skeleton states keyed on what can change the future
//! (per-thread pcs and the in-flight messages), not whole system states,
//! so executions that differ only in history count once.
//!
//! Run: `cargo run --release -p bench --bin exp_precise_cost`

use mcapi::types::DeliveryModel;
use std::time::Instant;
use symbolic::checker::{generate_trace, CheckConfig};
use symbolic::matchpairs::{overapprox_match_pairs, precise_match_pairs};
use workloads::race::race;
use workloads::scatter;

fn main() {
    println!("# E2: precise DFS vs over-approximation cost\n");
    println!(
        "{}",
        bench::header(&[
            "workload",
            "precise states",
            "precise time",
            "overapprox time",
            "pairs (precise)",
            "pairs (over)",
            "spurious pairs",
        ])
    );

    let mut programs = Vec::new();
    for n in 2..=7 {
        programs.push((format!("race({n})"), race(n)));
    }
    for w in 2..=4 {
        programs.push((format!("scatter({w})"), scatter(w)));
    }

    for (name, program) in &programs {
        let cfg = CheckConfig::default();
        let trace = generate_trace(program, &cfg);

        let t0 = Instant::now();
        let precise = precise_match_pairs(program, &trace, DeliveryModel::Unordered);
        let precise_time = t0.elapsed();

        let t1 = Instant::now();
        let over = overapprox_match_pairs(program, &trace);
        let over_time = t1.elapsed();

        let spurious = over.num_pairs() - precise.num_pairs();
        println!(
            "{}",
            bench::row(&[
                name.clone(),
                precise.states_explored.to_string(),
                format!("{precise_time:?}"),
                format!("{over_time:?}"),
                precise.num_pairs().to_string(),
                over.num_pairs().to_string(),
                spurious.to_string(),
            ])
        );
    }

    println!("\nReading: precise DFS state counts grow exponentially with race width");
    println!("(the paper's motivation for the over-approximation future work), while");
    println!("the endpoint over-approximation is O(sends + recvs) and loses little");
    println!("precision on racy endpoints (and none at all on fully-racy ones).");
}
