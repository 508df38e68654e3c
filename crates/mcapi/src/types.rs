//! Identifiers and enums shared across the MCAPI runtime.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Message payloads. MCAPI messages carry opaque byte buffers; the paper's
/// analysis only ever constrains the *value* flowing through a message, so
/// we model payloads as integers (one machine word), which keeps the
/// symbolic encoding in difference logic.
pub type Value = i64;

/// Index of a thread (one MCAPI node per thread, as in the paper's Fig. 1).
pub type ThreadId = usize;

/// An MCAPI port number within a node.
pub type Port = u16;

/// A thread-local variable slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub u16);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "var{}", self.0)
    }
}

/// A thread-local non-blocking request handle (`mcapi_request_t`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReqId(pub u16);

impl fmt::Debug for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// An MCAPI endpoint: a (node, port) pair. Nodes are identified with
/// threads in this model (the paper does the same).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EndpointAddr {
    pub node: u16,
    pub port: Port,
}

impl EndpointAddr {
    pub fn new(node: usize, port: Port) -> Self {
        EndpointAddr {
            node: node as u16,
            port,
        }
    }
}

impl fmt::Debug for EndpointAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep({}:{})", self.node, self.port)
    }
}

impl fmt::Display for EndpointAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// Canonical message identity: the `seq`-th send issued by `thread`.
///
/// Using (thread, per-thread send index) — rather than a global counter —
/// makes message identity independent of the interleaving, which both the
/// explicit-state explorers (state hashing) and the symbolic encoding
/// (stable send identifiers, as required by Fig. 2 of the paper) rely on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId {
    pub thread: u16,
    pub seq: u16,
}

impl MsgId {
    pub fn new(thread: usize, seq: usize) -> Self {
        MsgId {
            thread: thread as u16,
            seq: seq as u16,
        }
    }
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}.{}", self.thread, self.seq)
    }
}

/// Identity of a receive *completion*: the `index`-th receive completed by
/// `thread` (blocking receives and binding waits both count).
///
/// This is interleaving-independent, so matchings produced by the explicit
/// explorers and by the symbolic encoding are directly comparable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RecvKey {
    pub thread: u16,
    pub index: u16,
}

impl RecvKey {
    pub fn new(thread: usize, index: usize) -> Self {
        RecvKey {
            thread: thread as u16,
            index: index as u16,
        }
    }
}

impl fmt::Debug for RecvKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.r{}", self.thread, self.index)
    }
}

/// A complete send/receive pairing of one terminated execution, kept sorted
/// by receive key — the objects enumerated in the paper's Fig. 4.
pub type Matching = Vec<(RecvKey, MsgId)>;

/// The network's delivery discipline — the crux of the paper.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum DeliveryModel {
    /// Arbitrary per-message transit delays: a receive may match *any*
    /// in-flight message addressed to its endpoint. This is the model the
    /// PPoPP'11 encoding captures (both pairings of the paper's Fig. 4).
    #[default]
    Unordered,
    /// MCAPI-spec ordering: messages between one (source endpoint,
    /// destination endpoint) pair arrive in send order; messages from
    /// different sources still race.
    PairwiseFifo,
    /// Instant delivery in global send order: the endpoint queue is FIFO by
    /// send time. This reproduces the MCC / Elwakil&Yang network model that
    /// the paper shows misses behaviours (it can only produce Fig. 4a).
    ZeroDelay,
}

impl DeliveryModel {
    /// All models, for parameter sweeps.
    pub const ALL: [DeliveryModel; 3] = [
        DeliveryModel::Unordered,
        DeliveryModel::PairwiseFifo,
        DeliveryModel::ZeroDelay,
    ];
}

impl fmt::Display for DeliveryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeliveryModel::Unordered => "unordered",
            DeliveryModel::PairwiseFifo => "pairwise-fifo",
            DeliveryModel::ZeroDelay => "zero-delay",
        };
        f.write_str(s)
    }
}

/// Comparison operators for the DSL condition language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, a: Value, b: Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msgid_is_canonical_per_thread() {
        let a = MsgId::new(1, 0);
        let b = MsgId::new(1, 0);
        assert_eq!(a, b);
        assert_ne!(a, MsgId::new(1, 1));
        assert_ne!(a, MsgId::new(2, 0));
    }

    #[test]
    fn cmpop_eval_and_negate_are_complementary() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for a in -2..3 {
                for b in -2..3 {
                    assert_eq!(op.eval(a, b), !op.negate().eval(a, b));
                }
            }
        }
    }

    #[test]
    fn endpoint_display() {
        let e = EndpointAddr::new(2, 7);
        assert_eq!(e.to_string(), "2:7");
        assert_eq!(format!("{e:?}"), "ep(2:7)");
    }

    #[test]
    fn delivery_model_all_covers_three() {
        assert_eq!(DeliveryModel::ALL.len(), 3);
        assert_eq!(DeliveryModel::Unordered.to_string(), "unordered");
    }

    #[test]
    fn serde_roundtrip() {
        let e = EndpointAddr::new(1, 2);
        let j = serde_json::to_string(&e).unwrap();
        let back: EndpointAddr = serde_json::from_str(&j).unwrap();
        assert_eq!(e, back);
        let m = MsgId::new(3, 4);
        let j = serde_json::to_string(&m).unwrap();
        let back: MsgId = serde_json::from_str(&j).unwrap();
        assert_eq!(m, back);
    }
}
