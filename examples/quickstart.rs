//! Quickstart: the paper's Figure 1, end to end.
//!
//! Builds the three-thread program from the paper, records one execution
//! trace, generates match pairs, builds the SMT problem, and enumerates
//! every send/receive pairing the formula admits — recovering exactly the
//! two pairings of the paper's Figure 4, where MCC and the Elwakil&Yang
//! encoding (reproduced by the `ZeroDelay` option) see only one.
//!
//! Run with: `cargo run --example quickstart`

use mcapi::types::DeliveryModel;
use symbolic::checker::{enumerate_matchings, generate_trace, CheckConfig, MatchGen};
use symbolic::encode::{encode, EncodeOptions};
use symbolic::matchpairs::precise_match_pairs;
use workloads::fig1;

fn main() {
    let program = fig1();
    println!("== Program (paper Fig. 1) ==");
    println!("Thread t0  |  Thread t1   |  Thread t2");
    println!("recv(A)    |  recv(C)     |  send(Y):t0");
    println!("recv(B)    |  send(X):t0  |  send(Z):t1");
    println!();

    // 1. One arbitrary execution trace.
    let cfg = CheckConfig::default();
    let trace = generate_trace(&program, &cfg);
    println!("== Recorded trace ({} events) ==", trace.events.len());
    print!("{}", trace.render());
    println!();

    // 2. Trace analysis: MatchPairs + getSends (precise DFS).
    let pairs = precise_match_pairs(&program, &trace, DeliveryModel::Unordered);
    println!(
        "== Match pairs (precise DFS, {} states explored) ==",
        pairs.states_explored
    );
    for (recv, sends) in &pairs.sends_for {
        println!("  getSends({recv:?}) = {sends:?}");
    }
    println!();

    // 3. The SMT problem P = POrder /\ PMatchPairs /\ PUnique /\ PEvents.
    let enc = encode(
        &program,
        &trace,
        &pairs,
        EncodeOptions {
            delivery: DeliveryModel::Unordered,
            negate_props: false,
        },
    );
    println!("== SMT problem ==");
    println!(
        "  {} SAT variables, {} clauses, {} difference atoms",
        enc.stats.sat_vars, enc.stats.sat_clauses, enc.stats.theory_atoms
    );
    println!(
        "  match disjuncts: {}, uniqueness pairs: {}, order constraints: {}",
        enc.stats.match_disjuncts, enc.stats.unique_pairs, enc.stats.order_constraints
    );
    println!();

    // 4. All-SAT over the receive identifiers = all possible pairings.
    println!("== All pairings under arbitrary transit delays (the paper's model) ==");
    let en = enumerate_matchings(&program, &trace, &cfg, 100);
    for (i, m) in en.matchings.iter().enumerate() {
        println!("  pairing {}:", i + 1);
        for (recv, msg) in m {
            println!("    {recv:?}  <-  {msg:?}");
        }
    }
    println!("  ({} pairings — Fig. 4a and Fig. 4b)", en.matchings.len());
    println!();

    // 5. The same query under the MCC / zero-delay network model.
    let zd = CheckConfig {
        delivery: DeliveryModel::ZeroDelay,
        matchgen: MatchGen::OverApprox,
        ..CheckConfig::default()
    };
    let trace_zd = generate_trace(&program, &zd);
    let en_zd = enumerate_matchings(&program, &trace_zd, &zd, 100);
    println!("== All pairings under instant delivery (MCC / Elwakil&Yang) ==");
    for m in &en_zd.matchings {
        for (recv, msg) in m {
            println!("    {recv:?}  <-  {msg:?}");
        }
    }
    println!(
        "  ({} pairing — the delayed behaviour of Fig. 4b is missed)",
        en_zd.matchings.len()
    );
}
