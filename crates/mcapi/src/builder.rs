//! Fluent construction of MCAPI programs.
//!
//! ```
//! use mcapi::builder::ProgramBuilder;
//! use mcapi::expr::{Cond, Expr};
//! use mcapi::types::CmpOp;
//!
//! let mut b = ProgramBuilder::new("demo");
//! let server = b.thread("server");
//! let client = b.thread("client");
//! let req = b.recv(server, 0);
//! b.send_expr(server, client, 0, Expr::Var(req).plus(1));
//! b.send_const(client, server, 0, 41);
//! let reply = b.recv(client, 0);
//! b.assert_cond(client, Cond::cmp(CmpOp::Eq, Expr::Var(reply), Expr::Const(42)), "ping+1");
//! let program = b.build().unwrap();
//! assert_eq!(program.threads.len(), 2);
//! ```

use crate::error::McapiError;
use crate::expr::{Cond, Expr};
use crate::program::{Op, Program, Thread, UnrollConfig};
use crate::types::{EndpointAddr, Port, ReqId, ThreadId, Value, VarId};

/// Builder for [`Program`].
pub struct ProgramBuilder {
    name: String,
    threads: Vec<ThreadDraft>,
}

struct ThreadDraft {
    name: String,
    ops: Vec<Op>,
    num_vars: usize,
    num_reqs: usize,
    ports: Vec<Port>,
}

impl ProgramBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            threads: Vec::new(),
        }
    }

    /// Declare a thread (= MCAPI node). Port 0 is declared automatically.
    pub fn thread(&mut self, name: impl Into<String>) -> ThreadId {
        let id = self.threads.len();
        self.threads.push(ThreadDraft {
            name: name.into(),
            ops: Vec::new(),
            num_vars: 0,
            num_reqs: 0,
            ports: vec![0],
        });
        id
    }

    /// Declare an additional receive port on a thread.
    pub fn port(&mut self, thread: ThreadId, port: Port) {
        let t = &mut self.threads[thread];
        if !t.ports.contains(&port) {
            t.ports.push(port);
        }
    }

    /// Allocate a fresh local variable slot.
    pub fn fresh_var(&mut self, thread: ThreadId) -> VarId {
        let t = &mut self.threads[thread];
        let v = VarId(t.num_vars as u16);
        t.num_vars += 1;
        v
    }

    /// Allocate a fresh request handle (used by `send_i`/`recv_i` helpers
    /// and by frontends that lower explicit request declarations).
    pub fn fresh_req(&mut self, thread: ThreadId) -> ReqId {
        let t = &mut self.threads[thread];
        let r = ReqId(t.num_reqs as u16);
        t.num_reqs += 1;
        r
    }

    /// Append a raw op (escape hatch for `If` bodies etc.).
    pub fn push_op(&mut self, thread: ThreadId, op: Op) {
        self.threads[thread].ops.push(op);
    }

    /// Blocking receive on `port` into a fresh variable; returns the var.
    pub fn recv(&mut self, thread: ThreadId, port: Port) -> VarId {
        let var = self.fresh_var(thread);
        self.port(thread, port);
        self.push_op(thread, Op::Recv { port, var });
        var
    }

    /// Non-blocking receive; returns (destination var, request handle).
    pub fn recv_i(&mut self, thread: ThreadId, port: Port) -> (VarId, ReqId) {
        let var = self.fresh_var(thread);
        let req = self.fresh_req(thread);
        self.port(thread, port);
        self.push_op(thread, Op::RecvI { port, var, req });
        (var, req)
    }

    /// Blocking send of a constant to `(to_thread, port)`.
    pub fn send_const(&mut self, thread: ThreadId, to_thread: ThreadId, port: Port, value: Value) {
        self.send_expr(thread, to_thread, port, Expr::Const(value));
    }

    /// Blocking send of an expression.
    pub fn send_expr(&mut self, thread: ThreadId, to_thread: ThreadId, port: Port, value: Expr) {
        self.push_op(
            thread,
            Op::Send {
                to: EndpointAddr::new(to_thread, port),
                value,
            },
        );
    }

    /// Blocking send of a local variable's value.
    pub fn send_var(&mut self, thread: ThreadId, to_thread: ThreadId, port: Port, var: VarId) {
        self.send_expr(thread, to_thread, port, Expr::Var(var));
    }

    /// Non-blocking send of a constant; returns the request handle.
    pub fn send_i_const(
        &mut self,
        thread: ThreadId,
        to_thread: ThreadId,
        port: Port,
        value: Value,
    ) -> ReqId {
        let req = self.fresh_req(thread);
        self.push_op(
            thread,
            Op::SendI {
                to: EndpointAddr::new(to_thread, port),
                value: Expr::Const(value),
                req,
            },
        );
        req
    }

    /// Block on a request.
    pub fn wait(&mut self, thread: ThreadId, req: ReqId) {
        self.push_op(thread, Op::Wait { req });
    }

    /// Local assignment.
    pub fn assign(&mut self, thread: ThreadId, var: VarId, expr: Expr) {
        self.push_op(thread, Op::Assign { var, expr });
    }

    /// Safety assertion.
    pub fn assert_cond(&mut self, thread: ThreadId, cond: Cond, message: impl Into<String>) {
        self.push_op(
            thread,
            Op::Assert {
                cond,
                message: message.into(),
            },
        );
    }

    /// Structured conditional. The closures receive a [`BranchBuilder`]
    /// scoped to the same thread.
    pub fn if_else(
        &mut self,
        thread: ThreadId,
        cond: Cond,
        build_then: impl FnOnce(&mut BranchBuilder<'_>),
        build_else: impl FnOnce(&mut BranchBuilder<'_>),
    ) {
        let mut then_ops = Vec::new();
        {
            let mut bb = BranchBuilder {
                parent: self,
                thread,
                ops: &mut then_ops,
            };
            build_then(&mut bb);
        }
        let mut else_ops = Vec::new();
        {
            let mut bb = BranchBuilder {
                parent: self,
                thread,
                ops: &mut else_ops,
            };
            build_else(&mut bb);
        }
        self.push_op(
            thread,
            Op::If {
                cond,
                then_ops,
                else_ops,
            },
        );
    }

    /// Bounded loop: the closure builds the body, which `build` unrolls
    /// `count` times at compile time (see [`Op::Repeat`]). Variables and
    /// requests allocated inside the body belong to the thread as usual.
    pub fn repeat(
        &mut self,
        thread: ThreadId,
        count: usize,
        build_body: impl FnOnce(&mut BranchBuilder<'_>),
    ) {
        let mut body = Vec::new();
        {
            let mut bb = BranchBuilder {
                parent: self,
                thread,
                ops: &mut body,
            };
            build_body(&mut bb);
        }
        self.push_op(thread, Op::Repeat { count, body });
    }

    /// Compile and validate under the default [`UnrollConfig`].
    pub fn build(self) -> Result<Program, McapiError> {
        self.build_with(&UnrollConfig::default())
    }

    /// Compile and validate with explicit loop-unroll bounds.
    pub fn build_with(self, unroll: &UnrollConfig) -> Result<Program, McapiError> {
        if self.threads.is_empty() {
            return Err(McapiError::Builder("program has no threads".into()));
        }
        Program {
            name: self.name,
            threads: self
                .threads
                .into_iter()
                .map(|t| Thread {
                    name: t.name,
                    ops: t.ops,
                    num_vars: t.num_vars,
                    num_reqs: t.num_reqs,
                    ports: t.ports,
                    code: vec![],
                    origins: vec![],
                })
                .collect(),
        }
        .compile_with(unroll)
    }
}

/// Scoped builder for one branch of an `if`: collects ops into the branch
/// while still allocating variables/requests from the parent thread.
pub struct BranchBuilder<'a> {
    parent: &'a mut ProgramBuilder,
    thread: ThreadId,
    ops: &'a mut Vec<Op>,
}

impl BranchBuilder<'_> {
    pub fn fresh_var(&mut self) -> VarId {
        self.parent.fresh_var(self.thread)
    }

    pub fn recv(&mut self, port: Port) -> VarId {
        let var = self.parent.fresh_var(self.thread);
        self.parent.port(self.thread, port);
        self.ops.push(Op::Recv { port, var });
        var
    }

    pub fn send_const(&mut self, to_thread: ThreadId, port: Port, value: Value) {
        self.ops.push(Op::Send {
            to: EndpointAddr::new(to_thread, port),
            value: Expr::Const(value),
        });
    }

    pub fn send_expr(&mut self, to_thread: ThreadId, port: Port, value: Expr) {
        self.ops.push(Op::Send {
            to: EndpointAddr::new(to_thread, port),
            value,
        });
    }

    pub fn assign(&mut self, var: VarId, expr: Expr) {
        self.ops.push(Op::Assign { var, expr });
    }

    pub fn assert_cond(&mut self, cond: Cond, message: impl Into<String>) {
        self.ops.push(Op::Assert {
            cond,
            message: message.into(),
        });
    }

    pub fn push_op(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Nested bounded loop inside a branch or loop body.
    pub fn repeat(&mut self, count: usize, build_body: impl FnOnce(&mut BranchBuilder<'_>)) {
        let mut body = Vec::new();
        {
            let mut bb = BranchBuilder {
                parent: &mut *self.parent,
                thread: self.thread,
                ops: &mut body,
            };
            build_body(&mut bb);
        }
        self.ops.push(Op::Repeat { count, body });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::execute_random;
    use crate::types::{CmpOp, DeliveryModel};

    #[test]
    fn empty_program_rejected() {
        let b = ProgramBuilder::new("empty");
        assert!(matches!(b.build(), Err(McapiError::Builder(_))));
    }

    #[test]
    fn fresh_vars_are_sequential_per_thread() {
        let mut b = ProgramBuilder::new("p");
        let t0 = b.thread("a");
        let t1 = b.thread("b");
        assert_eq!(b.fresh_var(t0), VarId(0));
        assert_eq!(b.fresh_var(t0), VarId(1));
        assert_eq!(b.fresh_var(t1), VarId(0));
    }

    #[test]
    fn recv_declares_port_and_var() {
        let mut b = ProgramBuilder::new("p");
        let t0 = b.thread("a");
        let t1 = b.thread("b");
        let v = b.recv(t0, 3);
        b.send_const(t1, t0, 3, 1);
        let p = b.build().unwrap();
        assert!(p.threads[0].ports.contains(&3));
        assert_eq!(v, VarId(0));
        assert_eq!(p.threads[0].num_vars, 1);
    }

    #[test]
    fn if_else_builder_produces_structured_op() {
        let mut b = ProgramBuilder::new("p");
        let t0 = b.thread("a");
        let x = b.fresh_var(t0);
        b.assign(t0, x, Expr::Const(1));
        b.if_else(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(x), Expr::Const(1)),
            |bb| bb.assign(x, Expr::Const(10)),
            |bb| bb.assign(x, Expr::Const(20)),
        );
        let p = b.build().unwrap();
        let out = execute_random(&p, DeliveryModel::Unordered, 0);
        assert_eq!(out.final_state.threads[0].locals[0], 10);
    }

    #[test]
    fn branch_builder_allocates_from_parent() {
        let mut b = ProgramBuilder::new("p");
        let t0 = b.thread("a");
        let t1 = b.thread("b");
        let x = b.recv(t0, 0);
        let mut inner_var = None;
        b.if_else(
            t0,
            Cond::cmp(CmpOp::Gt, Expr::Var(x), Expr::Const(0)),
            |bb| {
                let v = bb.fresh_var();
                bb.assign(v, Expr::Const(5));
                inner_var = Some(v);
            },
            |_| {},
        );
        b.send_const(t1, t0, 0, 1);
        let p = b.build().unwrap();
        assert_eq!(p.threads[0].num_vars, 2);
        assert_eq!(inner_var, Some(VarId(1)));
    }

    #[test]
    fn doc_example_runs_clean() {
        // Mirrors the module doc example, checked end-to-end.
        let mut b = ProgramBuilder::new("demo");
        let server = b.thread("server");
        let client = b.thread("client");
        let req = b.recv(server, 0);
        b.send_expr(server, client, 0, Expr::Var(req).plus(1));
        b.send_const(client, server, 0, 41);
        let reply = b.recv(client, 0);
        b.assert_cond(
            client,
            Cond::cmp(CmpOp::Eq, Expr::Var(reply), Expr::Const(42)),
            "ping+1",
        );
        let p = b.build().unwrap();
        for seed in 0..20 {
            let out = execute_random(&p, DeliveryModel::Unordered, seed);
            assert!(out.trace.is_complete());
            assert!(out.violation().is_none(), "seed {seed}");
        }
    }
}
