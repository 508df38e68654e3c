//! Per-thread constant propagation over compiled (loop-free) code.
//!
//! Compiled MCAPI threads only ever branch and jump *forward* (the
//! structured DSL is loop-free and `repeat` is unrolled at compile time),
//! so one pass in increasing-pc order visits every instruction after all
//! of its predecessors — a worklist is unnecessary. The lattice per
//! variable is `Const(c)` / `Any`, with unreachable program points
//! represented by an absent state. Receives are the only source of
//! `Any`: every value a thread computes before its first receive is a
//! compile-time constant (locals start at zero).
//!
//! Evaluation delegates to [`mcapi::expr::Expr::eval`] /
//! [`mcapi::expr::Cond::eval`] on a materialised local array, so the
//! analysis agrees with the interpreter bit-for-bit (including the
//! saturating `+` semantics) — the soundness of every downstream
//! consumer (branch-arm classification, lint, triage) rests on
//! this evaluator never disagreeing with a real execution.

use mcapi::expr::{Cond, Expr};
use mcapi::program::{Instr, Thread};

/// One variable's abstract value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Val {
    /// The variable holds exactly this value on every path reaching here.
    Const(i64),
    /// The variable may hold different values on different paths (or
    /// depends on a received message).
    Any,
}

impl Val {
    fn join(self, other: Val) -> Val {
        match (self, other) {
            (Val::Const(a), Val::Const(b)) if a == b => Val::Const(a),
            _ => Val::Any,
        }
    }
}

/// Evaluate `e` under abstract values; `Some(c)` only when every variable
/// the expression reads is a known constant.
pub fn eval_expr(e: &Expr, vals: &[Val]) -> Val {
    let mut vs = Vec::new();
    e.vars(&mut vs);
    if vs
        .iter()
        .any(|v| !matches!(vals.get(v.0 as usize), Some(Val::Const(_))))
    {
        return Val::Any;
    }
    Val::Const(e.eval(&materialise(vals)))
}

/// Evaluate `c` under abstract values; `Some(b)` only when every variable
/// the condition reads is a known constant.
pub fn eval_cond(c: &Cond, vals: &[Val]) -> Option<bool> {
    let mut vs = Vec::new();
    c.vars(&mut vs);
    if vs
        .iter()
        .any(|v| !matches!(vals.get(v.0 as usize), Some(Val::Const(_))))
    {
        return None;
    }
    Some(c.eval(&materialise(vals)))
}

/// Build a concrete locals array for the interpreter's evaluators.
/// `Any` slots are filled with 0; callers only evaluate expressions whose
/// variables are all `Const`, so the filler is never read.
fn materialise(vals: &[Val]) -> Vec<i64> {
    vals.iter()
        .map(|v| match v {
            Val::Const(c) => *c,
            Val::Any => 0,
        })
        .collect()
}

/// The result of constant propagation over one thread.
#[derive(Clone, Debug)]
pub struct ThreadFlow {
    /// `in_vals[pc]`: abstract locals on entry to `pc`; `None` =
    /// statically unreachable.
    pub in_vals: Vec<Option<Vec<Val>>>,
    /// `in_reqs[pc][r]`: request `r` may have been issued (by a `send_i`
    /// or `recv_i`) on some path reaching `pc`.
    pub in_reqs: Vec<Option<Vec<bool>>>,
    /// Branches whose condition is a compile-time constant:
    /// `forced[pc] = Some(outcome)` means the branch at `pc` takes
    /// `outcome` (`true` = fall-through/then) on every execution.
    pub forced: Vec<Option<bool>>,
}

impl ThreadFlow {
    /// Is `pc` reachable on any path (under the analysis'
    /// over-approximation — receives may hold any value)?
    pub fn reachable(&self, pc: usize) -> bool {
        self.in_vals.get(pc).is_some_and(Option::is_some)
    }
}

/// Run the forward dataflow over one compiled thread.
pub fn flow(thread: &Thread) -> ThreadFlow {
    let n = thread.code.len();
    let mut in_vals: Vec<Option<Vec<Val>>> = vec![None; n + 1];
    let mut in_reqs: Vec<Option<Vec<bool>>> = vec![None; n + 1];
    let mut forced: Vec<Option<bool>> = vec![None; n];
    in_vals[0] = Some(vec![Val::Const(0); thread.num_vars]);
    in_reqs[0] = Some(vec![false; thread.num_reqs]);

    for pc in 0..n {
        let Some(vals) = in_vals[pc].clone() else {
            continue;
        };
        let reqs = in_reqs[pc].clone().unwrap_or_default();
        let mut flow_to = |target: usize, vals: &[Val], reqs: &[bool]| {
            debug_assert!(target > pc, "compiled code only flows forward");
            match &mut in_vals[target] {
                Some(existing) => {
                    for (e, v) in existing.iter_mut().zip(vals) {
                        *e = e.join(*v);
                    }
                }
                slot @ None => *slot = Some(vals.to_vec()),
            }
            match &mut in_reqs[target] {
                Some(existing) => {
                    for (e, r) in existing.iter_mut().zip(reqs) {
                        *e |= *r;
                    }
                }
                slot @ None => *slot = Some(reqs.to_vec()),
            }
        };
        match &thread.code[pc] {
            Instr::Assign { var, expr } => {
                let mut next = vals.clone();
                next[var.0 as usize] = eval_expr(expr, &vals);
                flow_to(pc + 1, &next, &reqs);
            }
            Instr::Recv { var, .. } => {
                let mut next = vals.clone();
                next[var.0 as usize] = Val::Any;
                flow_to(pc + 1, &next, &reqs);
            }
            Instr::RecvI { var, req, .. } => {
                let mut next = vals.clone();
                next[var.0 as usize] = Val::Any;
                let mut nreqs = reqs.clone();
                nreqs[req.0 as usize] = true;
                flow_to(pc + 1, &next, &nreqs);
            }
            Instr::SendI { req, .. } => {
                let mut nreqs = reqs.clone();
                nreqs[req.0 as usize] = true;
                flow_to(pc + 1, &vals, &nreqs);
            }
            Instr::Send { .. } | Instr::Assert { .. } | Instr::Wait { .. } => {
                // A failing assert stops execution, but treating its
                // successor as reachable is the sound over-approximation.
                flow_to(pc + 1, &vals, &reqs);
            }
            Instr::Branch { cond, else_target } => match eval_cond(cond, &vals) {
                Some(true) => {
                    forced[pc] = Some(true);
                    flow_to(pc + 1, &vals, &reqs);
                }
                Some(false) => {
                    forced[pc] = Some(false);
                    flow_to(*else_target, &vals, &reqs);
                }
                None => {
                    flow_to(pc + 1, &vals, &reqs);
                    flow_to(*else_target, &vals, &reqs);
                }
            },
            Instr::Jump { target } => flow_to(*target, &vals, &reqs),
        }
    }

    ThreadFlow {
        in_vals,
        in_reqs,
        forced,
    }
}

/// Number of static control-flow paths through one thread's code,
/// saturating at `cap + 1`. Counts *all* branch outcomes (not just
/// feasible ones) — this is the space the path enumerator walks, so the
/// triage guard uses it to predict enumeration effort.
pub fn static_path_count(thread: &Thread, cap: u64) -> u64 {
    let n = thread.code.len();
    // paths[pc] = number of paths from pc to exit; reverse order works
    // because all edges go forward.
    let mut paths = vec![0u64; n + 1];
    paths[n] = 1;
    for pc in (0..n).rev() {
        paths[pc] = match &thread.code[pc] {
            Instr::Branch { else_target, .. } => paths[pc + 1].saturating_add(paths[*else_target]),
            Instr::Jump { target } => paths[*target],
            _ => paths[pc + 1],
        }
        .min(cap + 1);
    }
    paths[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcapi::builder::ProgramBuilder;
    use mcapi::expr::{Cond, Expr};
    use mcapi::program::Op;
    use mcapi::types::CmpOp;

    #[test]
    fn constants_fold_through_assignments_and_force_branches() {
        let mut b = ProgramBuilder::new("p");
        let t = b.thread("t");
        let x = b.fresh_var(t);
        b.assign(t, x, Expr::Const(4));
        b.assign(t, x, Expr::Var(x).plus(1));
        b.push_op(
            t,
            Op::If {
                cond: Cond::cmp(CmpOp::Ge, Expr::Var(x), Expr::Const(5)),
                then_ops: vec![Op::Assign {
                    var: x,
                    expr: Expr::Const(0),
                }],
                else_ops: vec![Op::Assign {
                    var: x,
                    expr: Expr::Const(1),
                }],
            },
        );
        let p = b.build().unwrap();
        let f = flow(&p.threads[0]);
        // The branch is at pc 2 and is forced true (5 >= 5).
        assert_eq!(f.forced[2], Some(true));
        // The else arm (after the then-arm's jump) is unreachable.
        let else_pc = match &p.threads[0].code[2] {
            Instr::Branch { else_target, .. } => *else_target,
            other => panic!("{other:?}"),
        };
        assert!(!f.reachable(else_pc));
        assert!(f.reachable(3));
    }

    #[test]
    fn receives_kill_constness_and_issue_tracking_sees_recv_i() {
        let mut b = ProgramBuilder::new("p");
        let t = b.thread("t");
        let u = b.thread("u");
        let v = b.recv(t, 0);
        let (w, r) = b.recv_i(t, 0);
        b.wait(t, r);
        b.assign(t, v, Expr::Var(w));
        b.send_const(u, t, 0, 1);
        b.send_const(u, t, 0, 2);
        let p = b.build().unwrap();
        let f = flow(&p.threads[0]);
        // After the recv at pc 0 the variable is Any.
        assert_eq!(f.in_vals[1].as_ref().unwrap()[v.0 as usize], Val::Any);
        // The request is not issued before pc 1, and is at the wait.
        assert!(!f.in_reqs[1].as_ref().unwrap()[r.0 as usize]);
        assert!(f.in_reqs[2].as_ref().unwrap()[r.0 as usize]);
    }

    #[test]
    fn static_path_counts_multiply_per_branch() {
        let p = workloads::branchy(2);
        let consumer = &p.threads[0];
        assert_eq!(static_path_count(consumer, 1024), 4);
        let straight = &p.threads[1];
        assert_eq!(static_path_count(straight, 1024), 1);
    }
}
