//! The three workloads: which programs each one checks, how they are cut
//! into requests, and the seeded shuffle that orders every pass.

use driver::scenario::{cross, Engine, ProgramSpec, Scenario};
use mcapi::program::{Instr, Program};
use mcapi::types::DeliveryModel;
use std::sync::Arc;
use symbolic::checker::MatchGen;
use workloads::grid::{default_grid, family_grid, FamilySpec};

/// One closed-loop request stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Every `default_grid(3)` point × 3 deliveries × 4 engines, one point
    /// per request: the CI/regression sweep.
    GridSweep,
    /// `branchy` 1–5 and `credit-window` 2x1–2x4 under `symbolic-paths`,
    /// one (point, delivery) per request.
    PathsBranchy,
    /// The five largest tractable points under `symbolic-precise`, one
    /// (point, delivery) per request.
    PreciseDeep,
}

impl Workload {
    /// Every workload, in the order reports list them.
    pub const ALL: [Workload; 3] = [
        Workload::GridSweep,
        Workload::PathsBranchy,
        Workload::PreciseDeep,
    ];

    /// The name `--workload` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridSweep => "grid-sweep",
            Workload::PathsBranchy => "paths-branchy",
            Workload::PreciseDeep => "precise-deep",
        }
    }

    /// Parse a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The grid points this workload checks. The seed only picks the
    /// three `random` points of `grid-sweep`.
    pub fn points(self, seed: u64) -> Vec<FamilySpec> {
        match self {
            Workload::GridSweep => default_grid(3)
                .into_iter()
                .map(|p| match p {
                    FamilySpec::Random { seed: i } => FamilySpec::Random {
                        seed: seed.wrapping_add(i),
                    },
                    other => other,
                })
                .collect(),
            Workload::PathsBranchy => {
                let mut pts = family_grid("branchy", 5);
                pts.extend(family_grid("credit-window", 4));
                pts
            }
            Workload::PreciseDeep => ["branchy4", "scatter5", "storm7", "race-assert5"]
                .iter()
                .map(|n| FamilySpec::from_name(n).expect("valid grid-point name"))
                .chain([FamilySpec::CreditWindow {
                    window: 2,
                    rounds: 4,
                }])
                .collect(),
        }
    }

    /// Requests are one point × these deliveries × [`Workload::engines`]
    /// for `grid-sweep`, and one (point, delivery) for the others.
    pub fn engines(self) -> &'static [Engine] {
        match self {
            Workload::GridSweep => &Engine::ALL,
            Workload::PathsBranchy => &[Engine::SymbolicPaths],
            Workload::PreciseDeep => &[Engine::Symbolic(MatchGen::Precise)],
        }
    }

    /// Build every program and cut the workload into requests, in
    /// unshuffled order.
    pub fn requests(self, seed: u64) -> Vec<Request> {
        let mut out = Vec::new();
        for point in self.points(seed) {
            let name = point.name();
            let program = Arc::new(point.build());
            let spec = ProgramSpec::Source {
                name: name.clone(),
                program: Arc::clone(&program),
            };
            if self == Workload::GridSweep {
                out.push(Request::new(
                    &name,
                    &program,
                    cross(&[spec], &DeliveryModel::ALL, self.engines()),
                ));
            } else {
                for delivery in DeliveryModel::ALL {
                    out.push(Request::new(
                        &format!("{name}/{delivery}"),
                        &program,
                        cross(std::slice::from_ref(&spec), &[delivery], self.engines()),
                    ));
                }
            }
        }
        out
    }
}

/// One closed-loop request: a single `run_portfolio` call over the
/// scenarios of one program.
#[derive(Clone, Debug)]
pub struct Request {
    /// `point` or `point/delivery`.
    pub label: String,
    /// The program every scenario checks (built once, at set-up).
    pub program: Arc<Program>,
    /// The scenarios, in the order the driver batches them.
    pub scenarios: Vec<Scenario>,
    /// The program has no assertion, so every verdict must be Safe.
    pub assertion_free: bool,
}

impl Request {
    fn new(label: &str, program: &Arc<Program>, scenarios: Vec<Scenario>) -> Request {
        let assertion_free = program
            .threads
            .iter()
            .all(|t| !t.code.iter().any(|i| matches!(i, Instr::Assert { .. })));
        Request {
            label: label.to_string(),
            program: Arc::clone(program),
            scenarios,
            assertion_free,
        }
    }
}

/// SplitMix64: a tiny, dependency-free generator for the pass shuffles.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for pass `pass` of a run seeded with `seed`.
    pub fn for_pass(seed: u64, pass: u64) -> SplitMix {
        SplitMix(seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_kind_counts_are_odd_and_not_multiples_of_ten() {
        let counts: Vec<usize> = Workload::ALL.iter().map(|w| w.requests(0).len()).collect();
        assert_eq!(counts, [35, 27, 15]);
    }

    #[test]
    fn grid_sweep_random_points_follow_the_seed() {
        let names: Vec<String> = Workload::GridSweep
            .points(40)
            .iter()
            .map(FamilySpec::name)
            .filter(|n| n.starts_with("random"))
            .collect();
        assert_eq!(names, ["random40", "random41", "random42"]);
    }

    #[test]
    fn permutations_are_seeded() {
        let a = SplitMix::for_pass(7, 0).permutation(27);
        assert_eq!(a, SplitMix::for_pass(7, 0).permutation(27));
        assert_ne!(a, SplitMix::for_pass(7, 1).permutation(27));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..27).collect::<Vec<_>>());
    }
}
