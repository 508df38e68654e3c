//! Models (satisfying assignments) extracted after a SAT answer.

use crate::term::{Term, TermId, TermPool};

/// A first-order model: integer values per pool integer variable and Boolean
/// values per pool Boolean variable.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// Indexed by the pool's integer-variable index.
    pub ints: Vec<i64>,
    /// Indexed by the pool's Boolean-variable index (`false` when the
    /// variable was irrelevant to the verdict).
    pub bools: Vec<bool>,
}

impl Model {
    /// Evaluate an integer term.
    pub fn eval_int(&self, pool: &TermPool, t: TermId) -> Option<i64> {
        match pool.get(t) {
            Term::IntConst(c) => Some(*c),
            Term::IntVar(i) => self.ints.get(*i as usize).copied(),
            Term::Add(a, b) => Some(self.eval_int(pool, *a)? + self.eval_int(pool, *b)?),
            Term::Sub(a, b) => Some(self.eval_int(pool, *a)? - self.eval_int(pool, *b)?),
            _ => None,
        }
    }

    /// Evaluate a Boolean term under this model.
    pub fn eval_bool(&self, pool: &TermPool, t: TermId) -> Option<bool> {
        match pool.get(t) {
            Term::True => Some(true),
            Term::False => Some(false),
            Term::BoolVar(i) => self.bools.get(*i as usize).copied(),
            Term::Not(x) => Some(!self.eval_bool(pool, *x)?),
            Term::And(kids) => {
                for k in kids.iter() {
                    if !self.eval_bool(pool, *k)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Term::Or(kids) => {
                for k in kids.iter() {
                    if self.eval_bool(pool, *k)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            Term::Implies(a, b) => Some(!self.eval_bool(pool, *a)? || self.eval_bool(pool, *b)?),
            Term::Iff(a, b) => Some(self.eval_bool(pool, *a)? == self.eval_bool(pool, *b)?),
            Term::Ite(c, th, el) => {
                if self.eval_bool(pool, *c)? {
                    self.eval_bool(pool, *th)
                } else {
                    self.eval_bool(pool, *el)
                }
            }
            Term::Cmp(op, a, b) => {
                Some(op.eval(self.eval_int(pool, *a)?, self.eval_int(pool, *b)?))
            }
            Term::IntVar(_) | Term::IntConst(_) | Term::Add(..) | Term::Sub(..) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::CmpOp;

    #[test]
    fn eval_int_expressions() {
        let mut p = TermPool::new();
        let x = p.int_var("x"); // index 0
        let y = p.int_var("y"); // index 1
        let m = Model {
            ints: vec![3, 10],
            bools: vec![],
        };
        let s = p.add(x, y);
        assert_eq!(m.eval_int(&p, s), Some(13));
        let d = p.sub(y, x);
        assert_eq!(m.eval_int(&p, d), Some(7));
        let c = p.int_const(42);
        assert_eq!(m.eval_int(&p, c), Some(42));
    }

    #[test]
    fn eval_bool_structure() {
        let mut p = TermPool::new();
        let x = p.int_var("x");
        let y = p.int_var("y");
        let b = p.bool_var("b"); // bool index 0
        let m = Model {
            ints: vec![1, 2],
            bools: vec![true],
        };
        let lt = p.cmp(CmpOp::Lt, x, y);
        assert_eq!(m.eval_bool(&p, lt), Some(true));
        let gt = p.cmp(CmpOp::Gt, x, y);
        assert_eq!(m.eval_bool(&p, gt), Some(false));
        let conj = p.and2(lt, b);
        assert_eq!(m.eval_bool(&p, conj), Some(true));
        let n = p.not(conj);
        assert_eq!(m.eval_bool(&p, n), Some(false));
        let imp = p.implies(gt, b);
        assert_eq!(m.eval_bool(&p, imp), Some(true));
        let iff = p.iff(lt, b);
        assert_eq!(m.eval_bool(&p, iff), Some(true));
        let ite = p.ite(gt, lt, b);
        assert_eq!(m.eval_bool(&p, ite), Some(true));
    }

    #[test]
    fn missing_values_yield_none() {
        let mut p = TermPool::new();
        let x = p.int_var("x");
        let m = Model::default();
        assert_eq!(m.eval_int(&p, x), None);
        let five = p.int_const(5);
        let cmpt = p.cmp(CmpOp::Le, x, five);
        assert_eq!(m.eval_bool(&p, cmpt), None);
    }

    #[test]
    fn int_term_in_bool_eval_is_none() {
        let mut p = TermPool::new();
        let x = p.int_var("x");
        let m = Model {
            ints: vec![0],
            bools: vec![],
        };
        assert_eq!(m.eval_bool(&p, x), None);
    }
}
