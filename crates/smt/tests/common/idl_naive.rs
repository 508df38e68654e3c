//! Baseline difference-logic theory: full Bellman–Ford re-check on every
//! assertion. It is the differential oracle for the incremental solver in
//! `smt::idl`, which maintains a potential function instead of re-checking
//! (the `idl_naive` tests in `tests/oracles.rs` compare the two).

use smt::sat::{Theory, TheoryResult};
use smt::{DiffAtom, IntVarId, Lit, Var};

#[derive(Clone, Copy, Debug)]
struct Edge {
    from: IntVarId,
    to: IntVarId,
    weight: i64,
    cause: Lit,
}

/// Eager (non-incremental) IDL solver: keeps the asserted edge list and
/// re-runs Bellman–Ford from scratch after each assertion.
#[derive(Default)]
pub struct NaiveIdl {
    atom_of: Vec<Option<DiffAtom>>,
    edges: Vec<Edge>,
    marks: Vec<usize>,
    num_vars: usize,
    /// Distances from the virtual super-source (valid after a consistent
    /// assertion; used for model extraction).
    dist: Vec<i64>,
    /// Total Bellman–Ford relaxation rounds executed (cost metric).
    pub relaxation_rounds: u64,
}

impl NaiveIdl {
    pub fn new() -> Self {
        NaiveIdl::default()
    }

    pub fn register_atom(&mut self, var: Var, atom: DiffAtom) {
        let idx = var.index();
        if self.atom_of.len() <= idx {
            self.atom_of.resize(idx + 1, None);
        }
        self.atom_of[idx] = Some(atom);
        self.num_vars = self.num_vars.max(atom.x.max(atom.y) as usize + 1);
    }

    pub fn value_of(&self, v: IntVarId) -> i64 {
        let zero = self.dist.first().copied().unwrap_or(0);
        self.dist.get(v as usize).copied().unwrap_or(0) - zero
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Full Bellman–Ford with a virtual source connected to every node by
    /// weight 0. Returns the negative cycle's causes on inconsistency.
    fn recheck(&mut self) -> Result<(), Vec<Lit>> {
        let n = self.num_vars;
        let mut dist = vec![0i64; n];
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut changed_node = None;
        for round in 0..n.max(1) {
            self.relaxation_rounds += 1;
            let mut changed = false;
            for (ei, e) in self.edges.iter().enumerate() {
                let cand = dist[e.from as usize] + e.weight;
                if cand < dist[e.to as usize] {
                    dist[e.to as usize] = cand;
                    parent[e.to as usize] = Some(ei);
                    changed = true;
                    changed_node = Some(e.to as usize);
                }
            }
            if !changed {
                self.dist = dist;
                return Ok(());
            }
            if round + 1 == n.max(1) {
                break;
            }
        }
        // A node still relaxing after n rounds lies on / is reachable from
        // a negative cycle; walk parents n times to land on the cycle.
        let mut node = changed_node.expect("relaxation continued");
        for _ in 0..n {
            node = self.edges[parent[node].expect("on improving path")].from as usize;
        }
        // Collect the cycle's causes.
        let mut causes = Vec::new();
        let start = node;
        loop {
            let ei = parent[node].expect("cycle edge");
            let e = self.edges[ei];
            causes.push(e.cause);
            node = e.from as usize;
            if node == start {
                break;
            }
        }
        causes.sort_unstable_by_key(|l| l.0);
        causes.dedup();
        Err(causes)
    }
}

impl Theory for NaiveIdl {
    fn assert_true(&mut self, lit: Lit) -> TheoryResult {
        let Some(atom) = self.atom_of.get(lit.var().index()).copied().flatten() else {
            return Ok(());
        };
        let bound = if lit.is_pos() {
            atom
        } else {
            atom.complement()
        };
        self.num_vars = self.num_vars.max(bound.x.max(bound.y) as usize + 1);
        self.edges.push(Edge {
            from: bound.y,
            to: bound.x,
            weight: bound.c,
            cause: lit,
        });
        match self.recheck() {
            Ok(()) => Ok(()),
            Err(causes) => Err(causes),
        }
    }

    fn new_level(&mut self) {
        self.marks.push(self.edges.len());
    }

    fn backtrack_to(&mut self, levels_remaining: usize) {
        while self.marks.len() > levels_remaining {
            let m = self.marks.pop().expect("mark underflow");
            self.edges.truncate(m);
        }
    }
}
