//! Minimal DIMACS CNF reader/writer, used for differential testing of the
//! SAT core against generated instances.

use smt::sat::{SatSolver, SolveResult};
use smt::{LBool, Lit, Var};
use std::fmt;

/// A DIMACS parse error: the 1-based line and what is wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimacsError(pub usize, pub String);

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dimacs parse error at line {}: {}", self.0, self.1)
    }
}

/// A parsed CNF instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    pub num_vars: usize,
    pub clauses: Vec<Vec<i32>>,
}

impl Cnf {
    /// Parse DIMACS text. Tolerates comments and blank lines; clauses may
    /// span lines and must be `0`-terminated.
    pub fn parse(text: &str) -> Result<Cnf, DimacsError> {
        let mut num_vars = None;
        let mut clauses = Vec::new();
        let mut current: Vec<i32> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut parts = rest.split_whitespace();
                if parts.next() != Some("cnf") {
                    return Err(DimacsError(lineno + 1, "expected 'p cnf'".into()));
                }
                let nv: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| DimacsError(lineno + 1, "bad var count".into()))?;
                let _nc: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| DimacsError(lineno + 1, "bad clause count".into()))?;
                num_vars = Some(nv);
                continue;
            }
            for tok in line.split_whitespace() {
                let v: i32 = tok
                    .parse()
                    .map_err(|_| DimacsError(lineno + 1, format!("bad literal {tok}")))?;
                if v == 0 {
                    clauses.push(std::mem::take(&mut current));
                } else {
                    current.push(v);
                }
            }
        }
        if !current.is_empty() {
            clauses.push(current);
        }
        let num_vars = num_vars.unwrap_or_else(|| {
            clauses
                .iter()
                .flat_map(|c| c.iter())
                .map(|l| l.unsigned_abs() as usize)
                .max()
                .unwrap_or(0)
        });
        Ok(Cnf { num_vars, clauses })
    }

    /// Serialise to DIMACS text.
    pub fn to_dimacs(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                let _ = write!(out, "{l} ");
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Load into a fresh SAT solver and solve. Returns the verdict and, when
    /// SAT, the model as signed DIMACS literals.
    pub fn solve(&self) -> (SolveResult, Option<Vec<i32>>) {
        let mut s = SatSolver::new_pure();
        let vars: Vec<Var> = (0..self.num_vars).map(|_| s.new_var()).collect();
        for c in &self.clauses {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&l| {
                    let v = vars[(l.unsigned_abs() - 1) as usize];
                    v.lit(l > 0)
                })
                .collect();
            if !s.add_clause(&lits) {
                return (SolveResult::Unsat, None);
            }
        }
        match s.solve() {
            SolveResult::Sat => {
                let model: Vec<i32> = vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let idx = (i + 1) as i32;
                        match s.model_value(v) {
                            LBool::False => -idx,
                            _ => idx,
                        }
                    })
                    .collect();
                (SolveResult::Sat, Some(model))
            }
            other => (other, None),
        }
    }
}
