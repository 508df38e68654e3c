//! Differential net for `GraphExplorer`'s interned-row store: the BFS it
//! replaced — whole cloned `Node`s (system state, sorted matching, receive
//! counts, canonical stamp) in a `HashSet` and a `VecDeque` — is kept
//! here as the reference, and every field of the two `ExploreResult`s
//! must be bit-identical: state and transition counts, terminals,
//! violations in order, matchings, canonical skips and truncation.

use explicit::{ExploreConfig, ExploreResult, GraphExplorer, Matching, RecvKey};
use mcapi::program::Program;
use mcapi::types::DeliveryModel;
use proptest::prelude::*;

mod reference {
    use super::*;
    use mcapi::canon::{independent, summarize, ActionSummary};
    use mcapi::state::{Action, SysState};
    use std::collections::{HashSet, VecDeque};

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Node {
        sys: SysState,
        matching: Matching,
        recv_counts: Vec<u16>,
        last: Option<(Action, ActionSummary)>,
    }

    impl Node {
        fn successor(
            &self,
            program: &Program,
            action: Action,
            model: DeliveryModel,
            track_matchings: bool,
            last: Option<(Action, ActionSummary)>,
        ) -> Node {
            let (next_sys, _events) = self.sys.apply(program, action, model);
            let mut next = Node {
                sys: next_sys,
                matching: self.matching.clone(),
                recv_counts: self.recv_counts.clone(),
                last,
            };
            if let Some(msg) = action.message() {
                let t = action.thread();
                let key = RecvKey::new(t, next.recv_counts[t] as usize);
                next.recv_counts[t] += 1;
                if track_matchings {
                    let pos = next.matching.partition_point(|(k, _)| *k < key);
                    next.matching.insert(pos, (key, msg));
                }
            }
            next
        }
    }

    fn record_terminal(program: &Program, cfg: &ExploreConfig, node: &Node, r: &mut ExploreResult) {
        if let Some(v) = &node.sys.violation {
            r.push_violation(v.clone());
            return;
        }
        if node.sys.all_done(program) {
            r.complete_terminals += 1;
            if cfg.track_matchings {
                r.matchings.insert(node.matching.clone());
            }
        } else {
            r.deadlocks += 1;
        }
    }

    /// The explorer's BFS before the interned store (no time budget).
    pub fn explore(program: &Program, cfg: &ExploreConfig) -> ExploreResult {
        let mut result = ExploreResult::default();
        let init = Node {
            sys: SysState::initial(program),
            matching: Vec::new(),
            recv_counts: vec![0; program.threads.len()],
            last: None,
        };
        let mut visited: HashSet<Node> = HashSet::new();
        let mut queue: VecDeque<Node> = VecDeque::new();
        visited.insert(init.clone());
        queue.push_back(init);
        while let Some(node) = queue.pop_front() {
            result.states += 1;
            if result.states >= cfg.max_states {
                result.truncated = true;
                break;
            }
            let actions = node.sys.enabled_actions(program, cfg.model);
            if actions.is_empty() {
                record_terminal(program, cfg, &node, &mut result);
                if cfg.stop_at_first_violation && result.found_violation() {
                    break;
                }
                continue;
            }
            for action in actions {
                let last = if cfg.use_canonical {
                    let summary = summarize(program, &node.sys, action);
                    if let Some((b, sb)) = &node.last {
                        if independent(cfg.model, &summary, sb) && action < *b {
                            result.canonical_skipped += 1;
                            continue;
                        }
                    }
                    Some((action, summary))
                } else {
                    None
                };
                let next = node.successor(program, action, cfg.model, cfg.track_matchings, last);
                if let Some(v) = &next.sys.violation {
                    result.push_violation(v.clone());
                    if cfg.stop_at_first_violation {
                        result.transitions += 1;
                        return result;
                    }
                }
                result.transitions += 1;
                if visited.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
        result
    }
}

/// Run both stores under `cfg` and require identical results.
fn assert_same(program: &Program, cfg: ExploreConfig, what: &str) -> ExploreResult {
    let got = GraphExplorer::new(program, cfg).explore();
    let want = reference::explore(program, &cfg);
    let fields = |r: &ExploreResult| {
        (
            r.states,
            r.transitions,
            r.complete_terminals,
            r.deadlocks,
            r.violations.clone(),
            r.matchings.clone(),
            r.canonical_skipped,
            r.truncated,
            r.out_of_time,
            r.schedules.clone(),
        )
    };
    assert_eq!(fields(&got), fields(&want), "{what}: {cfg:?}");
    got
}

/// Every combination of delivery model, canonical pruning and matching
/// tracking.
fn configs() -> impl Iterator<Item = ExploreConfig> {
    DeliveryModel::ALL.into_iter().flat_map(|model| {
        [(false, false), (false, true), (true, false), (true, true)].map(
            move |(use_canonical, track_matchings)| ExploreConfig {
                use_canonical,
                track_matchings,
                ..ExploreConfig::with_model(model)
            },
        )
    })
}

#[test]
fn grid_scale3_matches_reference_in_every_mode() {
    for spec in workloads::default_grid(3) {
        let p = spec.build();
        for cfg in configs() {
            assert_same(&p, cfg, &spec.name());
        }
    }
}

#[test]
fn corpus_matches_reference_under_a_state_cap() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mcapi"))
        .collect();
    files.sort();
    assert!(files.len() >= 24, "corpus has {} files", files.len());
    let mut capped = 0;
    for f in &files {
        let text = std::fs::read_to_string(f).expect("readable corpus file");
        let p = frontend::parse_program(&text).expect("corpus file parses");
        for use_canonical in [false, true] {
            let cfg = ExploreConfig {
                max_states: 200_000,
                use_canonical,
                ..ExploreConfig::default()
            };
            capped += assert_same(&p, cfg, &f.display().to_string()).truncated as usize;
        }
    }
    // loop-storm exceeds the cap, so truncation is exercised at scale.
    assert!(capped >= 1);
}

#[test]
fn truncation_at_small_caps_matches_reference() {
    let p = workloads::FamilySpec::Ring { nodes: 4, laps: 2 }.build();
    for max_states in [1, 2, 3, 10, 57, 200] {
        for cfg in configs() {
            let cfg = ExploreConfig { max_states, ..cfg };
            assert_same(&p, cfg, &format!("ring4x2 cap {max_states}"));
        }
    }
}

#[test]
fn first_violation_stop_matches_reference() {
    for spec in workloads::family_grid("race-assert", 4) {
        let p = spec.build();
        for cfg in configs() {
            let cfg = ExploreConfig {
                stop_at_first_violation: true,
                ..cfg
            };
            let r = assert_same(&p, cfg, &spec.name());
            assert!(r.found_violation(), "{}", spec.name());
        }
    }
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

    /// Seeded random programs (non-blocking receives, assertions) and
    /// random loop programs, under every mode.
    #[test]
    fn random_programs_match_reference(
        seed in 0u64..1_000_000,
        threads in 2usize..4,
        sends_per_thread in 1usize..3,
        with_assert in any::<bool>(),
        looped in any::<bool>(),
        model in model_strategy(),
        use_canonical in any::<bool>(),
        track_matchings in any::<bool>(),
    ) {
        let p = if looped {
            workloads::random_loop_program(seed, 1 + (seed % 3) as usize)
        } else {
            let shape = workloads::RandomProgramConfig {
                threads,
                sends_per_thread,
                with_assert,
                ..Default::default()
            };
            workloads::random_program(seed, &shape)
        };
        let cfg = ExploreConfig {
            use_canonical,
            track_matchings,
            ..ExploreConfig::with_model(model)
        };
        assert_same(&p, cfg, &p.name);
    }
}
