//! F1/F2/F3: the paper's Figure 1 program, its trace, and the generated
//! SMT problem — with `--show-smt` printing the Fig. 2 / Fig. 3 conjuncts.
//!
//! Run: `cargo run --release -p bench --bin exp_fig1 [-- --show-smt]`

use mcapi::types::DeliveryModel;
use symbolic::checker::{generate_trace, CheckConfig};
use symbolic::encode::{encode, EncodeOptions};
use symbolic::matchpairs::precise_match_pairs;
use workloads::fig1;

fn main() {
    let show_smt = std::env::args().any(|a| a == "--show-smt");
    let program = fig1();
    let cfg = CheckConfig::default();
    let trace = generate_trace(&program, &cfg);

    println!("# F1: paper Figure 1");
    println!(
        "program `{}`: {} threads, {} sends, {} recvs",
        program.name,
        program.threads.len(),
        program.num_static_sends(),
        program.num_static_recvs()
    );
    println!("\ntrace ({} events):", trace.events.len());
    print!("{}", trace.render());

    let pairs = precise_match_pairs(&program, &trace, DeliveryModel::Unordered);
    println!("\n# trace analysis: MatchPairs / getSends");
    for (r, s) in &pairs.sends_for {
        println!("getSends({r:?}) = {s:?}");
    }

    let enc = encode(
        &program,
        &trace,
        &pairs,
        EncodeOptions {
            delivery: DeliveryModel::Unordered,
            negate_props: false,
        },
    );
    println!("\n# F2/F3: generated SMT problem");
    println!("{}", bench::header(&["conjunct", "size"]));
    println!(
        "{}",
        bench::row(&[
            "PMatchPairs disjuncts (Fig. 2)".into(),
            enc.stats.match_disjuncts.to_string()
        ])
    );
    println!(
        "{}",
        bench::row(&[
            "PUnique pairs (Fig. 3)".into(),
            enc.stats.unique_pairs.to_string()
        ])
    );
    println!(
        "{}",
        bench::row(&[
            "POrder constraints".into(),
            enc.stats.order_constraints.to_string()
        ])
    );
    println!(
        "{}",
        bench::row(&["SAT variables".into(), enc.stats.sat_vars.to_string()])
    );
    println!(
        "{}",
        bench::row(&["SAT clauses".into(), enc.stats.sat_clauses.to_string()])
    );
    println!(
        "{}",
        bench::row(&[
            "difference atoms".into(),
            enc.stats.theory_atoms.to_string()
        ])
    );

    if show_smt {
        println!("\n# match / uniqueness terms (s-expressions)");
        let pool = enc.solver.pool();
        for r in &enc.recvs {
            println!(
                "; receive {:?}: id variable {}",
                r.key,
                pool.display(r.id_term)
            );
        }
        for s in &enc.sends {
            println!(
                "; send {:?}: id constant {}, clock {}",
                s.msg,
                s.id,
                pool.display(s.clock)
            );
        }
    }
}
