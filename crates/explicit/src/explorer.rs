//! Breadth-first state-graph exploration over an exact interned store.
//!
//! States are [`mcapi::state::SysState`] values, optionally annotated with
//! the matching history (which receive consumed which message) so that the
//! set of distinct complete matchings — the paper's behaviour-coverage
//! metric (Fig. 4) — can be read off the terminal states. Annotation makes
//! the reachable graph larger (states that differ only in history stop
//! merging); turn it off for pure state-count benchmarks. Each visited
//! state is stored as one row of `u32` ids into per-thread intern tables
//! (the crate-private `store` module), compared exactly.

use crate::stats::ExploreResult;
use crate::store::Store;
use mcapi::canon::{independent, summarize};
use mcapi::program::Program;
use mcapi::state::SysState;
use mcapi::types::DeliveryModel;
use std::time::Instant;

/// Exploration parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    pub model: DeliveryModel,
    /// Record complete matchings at terminal states.
    pub track_matchings: bool,
    /// Stop after visiting this many states (`truncated` set in the result).
    pub max_states: usize,
    /// The instant the exploration must end by, polled every 1,024
    /// visited states (`truncated` and `out_of_time` set in the result).
    /// `None` = unbounded.
    pub deadline: Option<Instant>,
    /// Stop at the first assertion violation.
    pub stop_at_first_violation: bool,
    /// Prune successors that swap an adjacent independent pair out of the
    /// thread-major order (the BFS-safe fragment of the Mazurkiewicz
    /// normal form; see [`mcapi::canon`]). Sound because the condition is
    /// a function of node content only — the incoming action joins the
    /// node identity — and the lexicographically least word of every trace
    /// class is adjacent-normal at every prefix, so every class keeps a
    /// surviving linearisation. Off by default: refining node identity
    /// can cost states on heavily-merging graphs; the portfolio driver
    /// wires it to its `canonical` switch.
    pub use_canonical: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            model: DeliveryModel::Unordered,
            track_matchings: true,
            max_states: 1_000_000,
            deadline: None,
            stop_at_first_violation: false,
            use_canonical: false,
        }
    }
}

impl ExploreConfig {
    pub fn with_model(model: DeliveryModel) -> Self {
        ExploreConfig {
            model,
            ..Default::default()
        }
    }
}

/// How many visited states pass between two looks at the clock.
const DEADLINE_POLL: usize = 1024;

/// BFS over the state graph.
pub struct GraphExplorer<'a> {
    program: &'a Program,
    config: ExploreConfig,
}

impl<'a> GraphExplorer<'a> {
    pub fn new(program: &'a Program, config: ExploreConfig) -> Self {
        GraphExplorer { program, config }
    }

    /// Run the exploration to fixpoint (or a limit).
    pub fn explore(&self) -> ExploreResult {
        let cfg = &self.config;
        let mut result = ExploreResult::default();
        // `sys` is the decoded state of the row being expanded; `row` and
        // `child` are reused row buffers.
        let mut sys = SysState::initial(self.program);
        let mut store = Store::new(&sys, cfg.track_matchings);
        let (mut row, mut child) = (Vec::new(), Vec::new());
        // Rows are stored in BFS order: the frontier is rows `next..`.
        let mut next = 0;

        // Frontier-generation accounting for tracing: `in_gen` counts
        // nodes left in the current BFS level; when it hits zero the
        // popped node starts the next level (the rest of which is
        // exactly the frontier's current contents). Pure bookkeeping — the
        // iteration order is untouched.
        let mut generation: u64 = 0;
        let mut in_gen: usize = 1;
        let mut gen_states: u64 = 0;
        let mut gen_span = trace::span("explicit.generation");

        while next < store.len() {
            store.load(next, &mut row);
            next += 1;
            if in_gen == 0 {
                gen_span
                    .arg("generation", generation)
                    .arg("states", gen_states);
                drop(gen_span);
                generation += 1;
                gen_states = 0;
                gen_span = trace::span("explicit.generation");
                in_gen = store.len() - next + 1;
            }
            in_gen -= 1;
            gen_states += 1;
            result.states += 1;
            if result.states >= cfg.max_states {
                result.truncated = true;
                break;
            }
            if result.states % DEADLINE_POLL == 0
                && cfg.deadline.is_some_and(|d| Instant::now() >= d)
            {
                result.truncated = true;
                result.out_of_time = true;
                break;
            }
            // A violation is terminal: it enables no action.
            if let Some(v) = store.violation(&row) {
                result.push_violation(v.clone());
                if cfg.stop_at_first_violation {
                    break;
                }
                continue;
            }
            store.decode(&row, &mut sys);
            let actions = sys.enabled_actions(self.program, cfg.model);
            if actions.is_empty() {
                if sys.all_done(self.program) {
                    result.complete_terminals += 1;
                    if cfg.track_matchings {
                        result.matchings.insert(store.matching(&row));
                    }
                } else {
                    result.deadlocks += 1;
                }
                continue;
            }
            let incoming = store.last(&row);
            for action in actions {
                // BFS-safe canonical fragment: drop the successor when it
                // swaps an adjacent independent pair out of thread-major
                // order — the smaller-first ordering of the same pair
                // reaches an equivalent node that stays in the frontier.
                let last = if cfg.use_canonical {
                    let summary = summarize(self.program, &sys, action);
                    if let Some((b, sb)) = incoming {
                        if independent(cfg.model, &summary, &sb) && action < b {
                            result.canonical_skipped += 1;
                            continue;
                        }
                    }
                    Some((action, summary))
                } else {
                    None
                };
                sys.apply_mut(self.program, action, cfg.model);
                let violation = store.successor(&row, &mut sys, action, last, &mut child);
                result.transitions += 1;
                if let Some(v) = violation {
                    result.push_violation(v);
                    if cfg.stop_at_first_violation {
                        return result;
                    }
                }
                store.insert(&child);
            }
        }
        gen_span
            .arg("generation", generation)
            .arg("states", gen_states);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcapi::builder::ProgramBuilder;
    use mcapi::expr::{Cond, Expr};
    use mcapi::types::CmpOp;

    /// The paper's Fig. 1 program.
    fn fig1() -> Program {
        let mut b = ProgramBuilder::new("fig1");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        b.recv(t0, 0); // A
        b.recv(t0, 0); // B
        b.recv(t1, 0); // C
        b.send_const(t1, t0, 0, 100); // X
        b.send_const(t2, t0, 0, 200); // Y
        b.send_const(t2, t1, 0, 300); // Z
        b.build().unwrap()
    }

    #[test]
    fn fig1_unordered_finds_both_pairings() {
        let p = fig1();
        let r =
            GraphExplorer::new(&p, ExploreConfig::with_model(DeliveryModel::Unordered)).explore();
        assert!(!r.truncated);
        assert_eq!(r.deadlocks, 0);
        assert!(r.violations.is_empty());
        // Fig. 4 of the paper: exactly two complete pairings.
        assert_eq!(r.matchings.len(), 2, "{:?}", r.matchings);
    }

    #[test]
    fn fig1_zero_delay_finds_only_one_pairing() {
        let p = fig1();
        let r =
            GraphExplorer::new(&p, ExploreConfig::with_model(DeliveryModel::ZeroDelay)).explore();
        // The MCC model misses Fig. 4b.
        assert_eq!(r.matchings.len(), 1, "{:?}", r.matchings);
    }

    #[test]
    fn fig1_pairwise_fifo_still_finds_both() {
        // The racing sends come from different threads, so per-pair FIFO
        // does not restrict the race: both pairings remain.
        let p = fig1();
        let r = GraphExplorer::new(&p, ExploreConfig::with_model(DeliveryModel::PairwiseFifo))
            .explore();
        assert_eq!(r.matchings.len(), 2, "{:?}", r.matchings);
    }

    #[test]
    fn deadlock_counted() {
        let mut b = ProgramBuilder::new("dl");
        let t0 = b.thread("t0");
        b.recv(t0, 0);
        let p = b.build().unwrap();
        let r = GraphExplorer::new(&p, ExploreConfig::default()).explore();
        assert_eq!(r.deadlocks, 1);
        assert_eq!(r.complete_terminals, 0);
    }

    #[test]
    fn violation_found_only_under_delay_model() {
        // t0: recv a; recv b; assert(a == 1).
        // t1 sends 1 then t2 sends 2 — but t1's send happens after it
        // receives a kick from t2, so in send order t2's 2 comes first.
        // ZeroDelay: recv a always gets 2 -> assertion always fails?? No:
        // build it so the violating behaviour needs a delayed message.
        let mut b = ProgramBuilder::new("delay-bug");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let a = b.recv(t0, 0);
        let _b2 = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)),
            "first must be 1",
        );
        // t1 gets a kick from t2, then sends 1 to t0.
        let _k = b.recv(t1, 0);
        b.send_const(t1, t0, 0, 1);
        // t2 kicks t1 first, then sends 2 to t0.
        b.send_const(t2, t1, 0, 99);
        b.send_const(t2, t0, 0, 2);
        let p = b.build().unwrap();

        // Under ZeroDelay: t2's "2" is sent before t1's "1" in every
        // interleaving (t1 waits for the kick which t2 sends before "2"?
        // No — t2 sends the kick first, then 2; t1 may send 1 before or
        // after t2 sends 2. Both assertion outcomes are reachable, so a
        // violation exists under both models; what differs is coverage of
        // pairings, tested via matchings above.)
        let gt =
            GraphExplorer::new(&p, ExploreConfig::with_model(DeliveryModel::Unordered)).explore();
        assert!(gt.found_violation());
    }

    #[test]
    fn stop_at_first_violation_short_circuits() {
        let mut b = ProgramBuilder::new("bomb");
        let t0 = b.thread("t0");
        b.assert_cond(t0, Cond::False, "always");
        let p = b.build().unwrap();
        let cfg = ExploreConfig {
            stop_at_first_violation: true,
            ..Default::default()
        };
        let r = GraphExplorer::new(&p, cfg).explore();
        assert!(r.found_violation());
        assert!(r.states <= 2);
    }

    #[test]
    fn race_assert_violation_found_by_every_search() {
        for n in [3, 5] {
            let p = workloads::race_with_winner_assert(n);
            let full = GraphExplorer::new(&p, ExploreConfig::with_model(DeliveryModel::Unordered))
                .explore();
            assert!(full.found_violation(), "graph, n = {n}");
            let first = ExploreConfig {
                stop_at_first_violation: true,
                track_matchings: false,
                ..ExploreConfig::with_model(DeliveryModel::Unordered)
            };
            assert!(
                GraphExplorer::new(&p, first).explore().found_violation(),
                "first violation, n = {n}"
            );
        }
    }

    #[test]
    fn max_states_truncates() {
        let p = fig1();
        let cfg = ExploreConfig {
            max_states: 3,
            ..Default::default()
        };
        let r = GraphExplorer::new(&p, cfg).explore();
        assert!(r.truncated);
    }

    #[test]
    fn time_budget_stops_at_the_first_deadline_poll() {
        // branchy(3) has far more than 1,024 states; a spent budget stops
        // the search at the first poll.
        let p = workloads::branchy(3);
        let cfg = ExploreConfig {
            deadline: Some(Instant::now()),
            ..Default::default()
        };
        let r = GraphExplorer::new(&p, cfg).explore();
        assert!(r.truncated && r.out_of_time);
        assert_eq!(r.states, DEADLINE_POLL);
        let unbounded = GraphExplorer::new(&p, ExploreConfig::default()).explore();
        assert!(!unbounded.truncated && !unbounded.out_of_time);
        assert!(unbounded.states > DEADLINE_POLL);
    }

    #[test]
    fn matchings_off_reduces_state_count() {
        let p = fig1();
        let with = ExploreConfig {
            track_matchings: true,
            ..Default::default()
        };
        let without = ExploreConfig {
            track_matchings: false,
            ..Default::default()
        };
        let rw = GraphExplorer::new(&p, with).explore();
        let ro = GraphExplorer::new(&p, without).explore();
        assert!(ro.states <= rw.states);
        assert!(ro.matchings.is_empty());
    }

    #[test]
    fn canonical_bfs_preserves_matchings_and_verdicts() {
        let p = fig1();
        for model in DeliveryModel::ALL {
            let plain = GraphExplorer::new(&p, ExploreConfig::with_model(model)).explore();
            let canon = GraphExplorer::new(
                &p,
                ExploreConfig {
                    use_canonical: true,
                    ..ExploreConfig::with_model(model)
                },
            )
            .explore();
            assert_eq!(plain.matchings, canon.matchings, "model {model}");
            assert_eq!(plain.violations, canon.violations, "model {model}");
            assert_eq!(plain.deadlocks > 0, canon.deadlocks > 0, "model {model}");
            if model != DeliveryModel::ZeroDelay {
                assert!(canon.canonical_skipped > 0, "model {model}");
            }
        }
    }

    #[test]
    fn zero_delay_explores_fewer_or_equal_matchings() {
        let p = fig1();
        let un =
            GraphExplorer::new(&p, ExploreConfig::with_model(DeliveryModel::Unordered)).explore();
        let zd =
            GraphExplorer::new(&p, ExploreConfig::with_model(DeliveryModel::ZeroDelay)).explore();
        assert!(zd.matchings.is_subset(&un.matchings));
    }
}
