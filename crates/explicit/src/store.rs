//! The exact interned state store behind [`crate::GraphExplorer`].
//!
//! A search node — system state, matching history, per-thread receive
//! counts and (in canonical mode) the incoming action — is stored as one
//! fixed-width row of `u32` in a single arena (after SPIN's collapse
//! compression). With `n` threads a row is `n + 4` words:
//!
//! | words    | content                                                  |
//! |----------|----------------------------------------------------------|
//! | `0..n`   | id of thread `t`'s [`ThreadEntry`] in thread `t`'s table  |
//! | `n`      | id of the in-flight vector in the in-flight table         |
//! | `n + 1`  | `next_send_seq`                                           |
//! | `n + 2`  | violation: 0 = none, else interned id + 1                 |
//! | `n + 3`  | incoming `(action, summary)`: 0 = none, else id + 1       |
//!
//! A thread's receives append to the matching in order, so the sorted
//! matching of a node is the thread-major concatenation of its threads'
//! `received` lists and needs no table of its own.
//!
//! Every lookup is exact: hashes only pick the probe sequence, and every
//! hit is confirmed by comparing the full row or table entry. There is no
//! bitstate hashing and no hash compaction — a collision that skipped a
//! state could turn a reachable violation into a wrong SAFE.

use mcapi::canon::ActionSummary;
use mcapi::state::{Action, InFlight, SysState, ThreadState};
use mcapi::trace::Violation;
use mcapi::types::{Matching, MsgId, RecvKey};
use std::hash::{Hash, Hasher};

/// FxHash (rustc's word-at-a-time multiply-rotate hash). Not
/// collision-resistant, which is fine here: every key comes from the
/// program's own state space and every hit is checked by full equality.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The high half of the Fx hash: it depends on every input bit, where the
/// low half of a multiply does not.
fn fingerprint(h: &FxHasher) -> u32 {
    (h.finish() >> 32) as u32
}

/// Open-addressing (linear probing) index from content to dense ids
/// `0..len`; the content itself lives with the caller, which answers
/// equality by id. Each slot packs the entry's 32-bit fingerprint above
/// `id + 1` (0 = empty), so growing never rehashes content and a probe
/// compares content only when the fingerprints agree.
#[derive(Default)]
struct IdIndex {
    slots: Vec<u64>,
    len: u32,
}

impl IdIndex {
    /// The id whose content `eq` accepts among entries with fingerprint
    /// `fp`, or a fresh id `len` (then `true`) that the caller must store.
    fn find_or_insert(&mut self, fp: u32, mut eq: impl FnMut(u32) -> bool) -> (u32, bool) {
        if (self.len as usize + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = fp as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                let id = self.len;
                self.len = id.checked_add(1).expect("store ids fit in u32");
                self.slots[i] = (fp as u64) << 32 | (id as u64 + 1);
                return (id, true);
            }
            if (slot >> 32) as u32 == fp && eq(slot as u32 - 1) {
                return (slot as u32 - 1, false);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let mask = cap - 1;
        let mut slots = vec![0u64; cap];
        for &s in self.slots.iter().filter(|&&s| s != 0) {
            let mut i = (s >> 32) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = s;
        }
        self.slots = slots;
    }
}

/// A hash-consing table: each distinct value is stored once and named by
/// its dense id.
struct Interner<T> {
    items: Vec<T>,
    index: IdIndex,
}

impl<T: Hash + Eq + Clone> Interner<T> {
    fn new() -> Self {
        Interner {
            items: Vec::new(),
            index: IdIndex::default(),
        }
    }

    fn intern(&mut self, item: &T) -> u32 {
        let mut h = FxHasher::default();
        item.hash(&mut h);
        let items = &self.items;
        let (id, fresh) = self
            .index
            .find_or_insert(fingerprint(&h), |id| items[id as usize] == *item);
        if fresh {
            self.items.push(item.clone());
        }
        id
    }

    fn get(&self, id: u32) -> &T {
        &self.items[id as usize]
    }
}

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

/// Copy `src` into `dst`, reusing `dst`'s buffers (derived `Clone` does not
/// override `clone_from`).
fn copy_thread(dst: &mut ThreadState, src: &ThreadState) {
    dst.pc = src.pc;
    dst.locals.clone_from(&src.locals);
    dst.reqs.clone_from(&src.reqs);
    dst.sends_issued = src.sends_issued;
}

/// The visited set and frontier of one exploration; see the module docs
/// for the row layout. Rows are numbered in insertion order, which is the
/// BFS order, so the frontier is the suffix of rows not yet expanded.
pub(crate) struct Store {
    threads: Vec<Interner<ThreadEntry>>,
    in_flight: Interner<Vec<InFlight>>,
    violations: Interner<Violation>,
    lasts: Interner<(Action, ActionSummary)>,
    width: usize,
    rows: Vec<u32>,
    index: IdIndex,
    track_matchings: bool,
    /// Scratch keys, kept to reuse their buffers.
    thread_key: ThreadEntry,
    flight_key: Vec<InFlight>,
}

impl Store {
    /// A store holding `initial` as row 0.
    pub(crate) fn new(initial: &SysState, track_matchings: bool) -> Store {
        let n = initial.threads.len();
        let mut store = Store {
            threads: (0..n).map(|_| Interner::new()).collect(),
            in_flight: Interner::new(),
            violations: Interner::new(),
            lasts: Interner::new(),
            width: n + 4,
            rows: Vec::new(),
            index: IdIndex::default(),
            track_matchings,
            thread_key: ThreadEntry::new(ThreadState {
                pc: 0,
                locals: Vec::new(),
                reqs: Vec::new(),
                sends_issued: 0,
            }),
            flight_key: Vec::new(),
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
        self.rows.len() / self.width
    }

    /// Copy row `id` into `out`.
    pub(crate) fn load(&self, id: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.rows[id * self.width..(id + 1) * self.width]);
    }

    /// Add `row` unless an equal row is stored.
    pub(crate) fn insert(&mut self, row: &[u32]) {
        let mut h = FxHasher::default();
        for &w in row {
            h.add(w as u64);
        }
        let (rows, width) = (&self.rows, self.width);
        let (_, fresh) = self.index.find_or_insert(fingerprint(&h), |id| {
            let at = id as usize * width;
            rows[at..at + width] == *row
        });
        if fresh {
            self.rows.extend_from_slice(row);
        }
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
            copy_thread(&mut sys.threads[t], &table.get(row[t]).state);
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
        copy_thread(&mut sys.threads[t], &self.threads[t].get(parent[t]).state);

        // A send adds one in-flight message and a receive removes one;
        // nothing else touches the vector.
        if sys.in_flight.len() != self.in_flight.get(parent[n]).len() {
            std::mem::swap(&mut self.flight_key, &mut sys.in_flight);
            child[n] = self.in_flight.intern(&self.flight_key);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries that share a fingerprint stay distinct: only the full
    /// comparison decides a hit.
    #[test]
    fn fingerprint_collisions_never_merge_entries() {
        let contents = ["a", "b", "c"];
        let mut index = IdIndex::default();
        let mut stored: Vec<&str> = Vec::new();
        for round in 0..2 {
            for c in contents {
                let (id, fresh) = index.find_or_insert(7, |id| stored[id as usize] == c);
                assert_eq!(fresh, round == 0, "{c}");
                if fresh {
                    stored.push(c);
                }
                assert_eq!(stored[id as usize], c);
            }
        }
        // Growth keeps every id reachable.
        for i in 0..1000u32 {
            let (id, fresh) = index.find_or_insert(i, |_| false);
            assert!(fresh);
            assert_eq!(id, 3 + i);
        }
        let (id, fresh) = index.find_or_insert(7, |id| id == 1);
        assert_eq!((id, fresh), (1, false));
    }
}
