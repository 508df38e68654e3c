//! The BFS's rows over the exact interned store of [`mcapi::store`].
//!
//! A search node — system state, matching history, per-thread receive
//! counts and (in canonical mode) the incoming action — is stored as one
//! fixed-width row of `u32` in a single arena. With `n` threads a row is
//! `n + 4` words:
//!
//! | words    | content                                                  |
//! |----------|----------------------------------------------------------|
//! | `0..n`   | id of thread `t`'s [`ThreadEntry`] in thread `t`'s table  |
//! | `n`      | id of the in-flight vector in the in-flight table         |
//! | `n + 1`  | `next_send_seq`                                           |
//! | `n + 2`  | violation: 0 = none, else interned id + 1                 |
//! | `n + 3`  | incoming `(action, summary)`: 0 = none, else id + 1       |
//!
//! A thread's slot holds its receive history with its state: its receive
//! count and, when matchings are tracked, the messages those receives
//! consumed. A thread's receives append to the matching in order, so the
//! sorted matching of a node is the thread-major concatenation of its
//! threads' `received` lists and needs no table of its own.

use mcapi::canon::ActionSummary;
use mcapi::state::{Action, InFlight, SysState, ThreadState};
use mcapi::store::{Interner, Rows};
use mcapi::trace::Violation;
use mcapi::types::{Matching, MsgId, RecvKey};

/// One thread's interned slot: its local state, how many receives it has
/// completed (the next [`RecvKey`] index), and — when matchings are
/// tracked — the messages those receives consumed, in order.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ThreadEntry {
    state: ThreadState,
    recvs: u16,
    received: Vec<MsgId>,
}

impl ThreadEntry {
    fn new(state: ThreadState) -> ThreadEntry {
        ThreadEntry {
            state,
            recvs: 0,
            received: Vec::new(),
        }
    }
}

/// The visited set and frontier of one exploration; see the module docs
/// for the row layout. Rows are numbered in insertion order, which is the
/// BFS order, so the frontier is the suffix of rows not yet expanded.
pub(crate) struct Store {
    threads: Vec<Interner<ThreadEntry>>,
    in_flight: Interner<Vec<InFlight>>,
    violations: Interner<Violation>,
    lasts: Interner<(Action, ActionSummary)>,
    rows: Rows,
    track_matchings: bool,
    /// Scratch key, kept to reuse its buffers.
    thread_key: ThreadEntry,
}

impl Store {
    /// A store holding `initial` as row 0.
    pub(crate) fn new(initial: &SysState, track_matchings: bool) -> Store {
        let n = initial.threads.len();
        let mut store = Store {
            threads: (0..n).map(|_| Interner::default()).collect(),
            in_flight: Interner::default(),
            violations: Interner::default(),
            lasts: Interner::default(),
            rows: Rows::new(n + 4),
            track_matchings,
            thread_key: ThreadEntry::new(ThreadState {
                pc: 0,
                locals: Vec::new(),
                reqs: Vec::new(),
                sends_issued: 0,
            }),
        };
        let mut row: Vec<u32> = (0..n)
            .map(|t| store.threads[t].intern(&ThreadEntry::new(initial.threads[t].clone())))
            .collect();
        row.push(store.in_flight.intern(&initial.in_flight));
        row.extend([initial.next_send_seq, 0, 0]);
        store.insert(&row);
        store
    }

    /// Number of rows stored.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Copy row `id` into `out`.
    pub(crate) fn load(&self, id: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.rows.get(id as u32));
    }

    /// Add `row` unless an equal row is stored.
    pub(crate) fn insert(&mut self, row: &[u32]) {
        self.rows.insert(row);
    }

    fn thread_count(&self) -> usize {
        self.threads.len()
    }

    pub(crate) fn violation(&self, row: &[u32]) -> Option<&Violation> {
        match row[self.thread_count() + 2] {
            0 => None,
            v => Some(self.violations.get(v - 1)),
        }
    }

    /// The action that produced `row` (canonical mode only).
    pub(crate) fn last(&self, row: &[u32]) -> Option<(Action, ActionSummary)> {
        match row[self.thread_count() + 3] {
            0 => None,
            l => Some(*self.lasts.get(l - 1)),
        }
    }

    /// The sorted matching of `row`: its threads' receive lists in thread
    /// order.
    pub(crate) fn matching(&self, row: &[u32]) -> Matching {
        let mut m = Vec::new();
        for (t, table) in self.threads.iter().enumerate() {
            let received = &table.get(row[t]).received;
            m.extend(
                received
                    .iter()
                    .enumerate()
                    .map(|(i, &msg)| (RecvKey::new(t, i), msg)),
            );
        }
        m
    }

    /// Decode `row` (which has no violation) into `sys`, reusing its buffers.
    pub(crate) fn decode(&self, row: &[u32], sys: &mut SysState) {
        let n = self.thread_count();
        for (t, table) in self.threads.iter().enumerate() {
            sys.threads[t].clone_from(&table.get(row[t]).state);
        }
        sys.in_flight.clone_from(self.in_flight.get(row[n]));
        sys.next_send_seq = row[n + 1];
        sys.violation = None;
    }

    /// Write into `child` the row of `sys`, the state `action` just
    /// reached from the decoded row `parent` (see
    /// [`SysState::apply_mut`]). Only the stepping thread's slot, and the
    /// in-flight slot when the step sent or received, are re-interned;
    /// `sys` is restored to `parent` before returning. `last` is the
    /// canonical-mode `(action, summary)` stamp. Returns the successor's
    /// violation, if any.
    pub(crate) fn successor(
        &mut self,
        parent: &[u32],
        sys: &mut SysState,
        action: Action,
        last: Option<(Action, ActionSummary)>,
        child: &mut Vec<u32>,
    ) -> Option<Violation> {
        let n = self.thread_count();
        let t = action.thread();
        child.clear();
        child.extend_from_slice(parent);

        let parent_entry = self.threads[t].get(parent[t]);
        let key = &mut self.thread_key;
        key.recvs = parent_entry.recvs;
        key.received.clone_from(&parent_entry.received);
        if let Some(msg) = action.message() {
            key.recvs += 1;
            if self.track_matchings {
                key.received.push(msg);
            }
        }
        // The successor's thread state moves into the key; the parent's is
        // copied back from its table entry.
        std::mem::swap(&mut key.state, &mut sys.threads[t]);
        child[t] = self.threads[t].intern(&self.thread_key);
        sys.threads[t].clone_from(&self.threads[t].get(parent[t]).state);

        // A send adds one in-flight message and a receive removes one;
        // nothing else touches the vector.
        if sys.in_flight.len() != self.in_flight.get(parent[n]).len() {
            child[n] = self.in_flight.intern(&sys.in_flight);
            sys.in_flight.clone_from(self.in_flight.get(parent[n]));
        }
        child[n + 1] = std::mem::replace(&mut sys.next_send_seq, parent[n + 1]);
        let violation = sys.violation.take();
        child[n + 2] = violation
            .as_ref()
            .map_or(0, |v| self.violations.intern(v) + 1);
        child[n + 3] = last.map_or(0, |l| self.lasts.intern(&l) + 1);
        violation
    }
}
