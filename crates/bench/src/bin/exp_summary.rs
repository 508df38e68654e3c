//! One-shot consolidated experiment table (F4 + E1..E5 at small scale),
//! printed as markdown tables on stdout.
//!
//! Run: `cargo run --release -p bench --bin exp_summary`

use explicit::{ground_truth_check, mcc_check};
use mcapi::types::DeliveryModel;
use std::time::Instant;
use symbolic::checker::{
    check_program, enumerate_matchings, generate_trace, CheckConfig, MatchGen, Verdict,
};
use symbolic::matchpairs::{overapprox_match_pairs, precise_match_pairs};
use workloads::fig1::{fig1, fig1_with_assert};
use workloads::race::{delay_gap, race, race_with_winner_assert};

fn main() {
    let t_start = Instant::now();
    println!("# Consolidated reproduction summary\n");

    // --- F4 ---
    println!("## F4: Fig. 1 pairings per technique");
    let p = fig1();
    let cfg = CheckConfig::default();
    let trace = generate_trace(&p, &cfg);
    let sym = enumerate_matchings(&p, &trace, &cfg, 100);
    let zd_cfg = CheckConfig {
        delivery: DeliveryModel::ZeroDelay,
        matchgen: MatchGen::OverApprox,
        ..CheckConfig::default()
    };
    let trace_zd = generate_trace(&p, &zd_cfg);
    let sym_zd = enumerate_matchings(&p, &trace_zd, &zd_cfg, 100);
    let truth = ground_truth_check(&p);
    let mcc = mcc_check(&p);
    println!("{}", bench::header(&["technique", "pairings"]));
    println!(
        "{}",
        bench::row(&[
            "ground truth (exhaustive, delays)".into(),
            truth.matchings.len().to_string()
        ])
    );
    println!(
        "{}",
        bench::row(&[
            "THIS PAPER (symbolic, delays)".into(),
            sym.matchings.len().to_string()
        ])
    );
    println!(
        "{}",
        bench::row(&[
            "MCC stand-in (instant delivery)".into(),
            mcc.matchings.len().to_string()
        ])
    );
    println!(
        "{}",
        bench::row(&[
            "Elwakil&Yang-style (symbolic, no delays)".into(),
            sym_zd.matchings.len().to_string()
        ])
    );

    // --- E1 ---
    println!("\n## E1: delay-only violation (delay-gap family)");
    println!(
        "{}",
        bench::header(&[
            "workload",
            "ground truth",
            "MCC model",
            "symbolic delays",
            "symbolic zero-delay"
        ])
    );
    for chain in 1..=2 {
        let p = delay_gap(chain);
        let gt = ground_truth_check(&p).found_violation();
        let mc = mcc_check(&p).found_violation();
        let s1 = matches!(
            check_program(&p, &CheckConfig::default()).verdict,
            Verdict::Violation(_)
        );
        let s2 = matches!(
            check_program(
                &p,
                &CheckConfig {
                    delivery: DeliveryModel::ZeroDelay,
                    ..Default::default()
                }
            )
            .verdict,
            Verdict::Violation(_)
        );
        let fmt = |b: bool| if b { "VIOLATION" } else { "safe" };
        println!(
            "{}",
            bench::row(&[
                format!("delay-gap({chain})"),
                fmt(gt).into(),
                fmt(mc).into(),
                fmt(s1).into(),
                fmt(s2).into(),
            ])
        );
    }

    // --- E2 ---
    println!("\n## E2: precise match-pair DFS cost (states explored)");
    println!(
        "{}",
        bench::header(&[
            "race width",
            "precise states",
            "precise pairs",
            "overapprox pairs"
        ])
    );
    for n in 2..=6 {
        let p = race(n);
        let trace = generate_trace(&p, &CheckConfig::default());
        let precise = precise_match_pairs(&p, &trace, DeliveryModel::Unordered);
        let over = overapprox_match_pairs(&trace);
        println!(
            "{}",
            bench::row(&[
                n.to_string(),
                precise.states_explored.to_string(),
                precise.num_pairs().to_string(),
                over.num_pairs().to_string(),
            ])
        );
    }

    // --- E3 ---
    println!("\n## E3: refinement loop (overapprox) verdict parity");
    println!(
        "{}",
        bench::header(&["workload", "precise", "overapprox", "refinements"])
    );
    for (name, p) in [
        ("fig1+assert".to_string(), fig1_with_assert()),
        ("race-assert(3)".to_string(), race_with_winner_assert(3)),
        ("delay-gap(1)".to_string(), delay_gap(1)),
    ] {
        let pr = check_program(&p, &CheckConfig::with_matchgen(MatchGen::Precise));
        let ov = check_program(&p, &CheckConfig::with_matchgen(MatchGen::OverApprox));
        let fmt = |v: &Verdict| match v {
            Verdict::Violation(_) => "VIOLATION",
            Verdict::Safe => "safe",
            Verdict::Unknown(_) => "unknown",
        };
        println!(
            "{}",
            bench::row(&[
                name,
                fmt(&pr.verdict).into(),
                fmt(&ov.verdict).into(),
                ov.refinements.to_string(),
            ])
        );
    }

    // --- E4 ---
    println!("\n## E4: symbolic vs exhaustive behaviour parity (race family)");
    println!(
        "{}",
        bench::header(&[
            "workload",
            "explicit behaviours",
            "symbolic behaviours",
            "agree"
        ])
    );
    for n in 2..=4 {
        let p = race(n);
        let truth = ground_truth_check(&p);
        let trace = generate_trace(&p, &CheckConfig::default());
        let en = enumerate_matchings(&p, &trace, &CheckConfig::default(), 100_000);
        println!(
            "{}",
            bench::row(&[
                format!("race({n})"),
                truth.matchings.len().to_string(),
                en.matchings.len().to_string(),
                (truth.matchings == en.matchings).to_string(),
            ])
        );
    }

    // --- E5 ---
    println!("\n## E5: runtime shape (symbolic vs explicit), violation search");
    println!(
        "{}",
        bench::header(&["race width", "symbolic", "explicit graph"])
    );
    for n in [3usize, 5] {
        let p = race_with_winner_assert(n);
        let t = Instant::now();
        let _ = check_program(&p, &CheckConfig::with_matchgen(MatchGen::OverApprox));
        let sym_t = t.elapsed();
        let t = Instant::now();
        let _ = ground_truth_check(&p);
        let exp_t = t.elapsed();
        println!(
            "{}",
            bench::row(&[n.to_string(), format!("{sym_t:?}"), format!("{exp_t:?}")])
        );
    }

    println!("\n(total runtime {:?})", t_start.elapsed());
}
