//! The exact interned state store shared by every state-space search: the
//! explicit BFS (`explicit::GraphExplorer`), the directed schedule search
//! ([`crate::sched::execute_directed`]) and the precise match-pair DFS
//! (`symbolic::matchpairs`).
//!
//! A stored state is one fixed-width row of `u32` in a single arena
//! ([`Rows`], after SPIN's collapse compression) whose words are ids in
//! [`Interner`] tables. In the two depth-first searches the first `n + 1`
//! words are the [`StateSlots`] of a [`SysState`]: the id of each
//! thread's [`ThreadState`] in that thread's table, then the id of the
//! in-flight vector; each search appends its own key columns. (The BFS
//! interns each thread's state together with its receive history.) A
//! step changes only the stepping thread and, on a send or receive, the
//! in-flight vector ([`SysState::apply_mut`]), so a successor row is its
//! parent's row with at most two slots re-interned.
//!
//! Every lookup is exact: hashes only pick the probe sequence, and every
//! hit is confirmed by comparing the full row or table entry. There is no
//! bitstate hashing and no hash compaction — a collision that skipped a
//! state could turn a reachable violation into a wrong SAFE.

use crate::state::{InFlight, SysState, ThreadState};
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

    /// The high half of the hash: it depends on every input bit, where
    /// the low half of a multiply does not.
    fn fingerprint(&self) -> u32 {
        (self.hash >> 32) as u32
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
pub struct Interner<T> {
    items: Vec<T>,
    index: IdIndex,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            items: Vec::new(),
            index: IdIndex::default(),
        }
    }
}

impl<T: Hash + Eq + Clone> Interner<T> {
    pub fn intern(&mut self, item: &T) -> u32 {
        let mut h = FxHasher::default();
        item.hash(&mut h);
        let items = &self.items;
        let (id, fresh) = self
            .index
            .find_or_insert(h.fingerprint(), |id| items[id as usize] == *item);
        if fresh {
            self.items.push(item.clone());
        }
        id
    }

    pub fn get(&self, id: u32) -> &T {
        &self.items[id as usize]
    }
}

/// A set of fixed-width `u32` rows in one arena, numbered densely in
/// insertion order.
pub struct Rows {
    width: usize,
    words: Vec<u32>,
    index: IdIndex,
}

impl Rows {
    pub fn new(width: usize) -> Rows {
        Rows {
            width,
            words: Vec::new(),
            index: IdIndex::default(),
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.words.len() / self.width
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    pub fn get(&self, id: u32) -> &[u32] {
        let at = id as usize * self.width;
        &self.words[at..at + self.width]
    }

    /// The id of the row equal to `row`, adding it (then `true`) if none is
    /// stored.
    pub fn insert(&mut self, row: &[u32]) -> (u32, bool) {
        debug_assert_eq!(row.len(), self.width);
        let mut h = FxHasher::default();
        for &w in row {
            h.add(w as u64);
        }
        let (words, width) = (&self.words, self.width);
        let (id, fresh) = self.index.find_or_insert(h.fingerprint(), |id| {
            let at = id as usize * width;
            words[at..at + width] == *row
        });
        if fresh {
            self.words.extend_from_slice(row);
        }
        (id, fresh)
    }
}

/// Intern tables for the slots of a [`SysState`]: one per thread for its
/// [`ThreadState`] and one for the in-flight vector. A row's slot prefix
/// is `n` thread ids followed by the in-flight id.
pub struct StateSlots {
    threads: Vec<Interner<ThreadState>>,
    in_flight: Interner<Vec<InFlight>>,
}

impl StateSlots {
    /// Tables for `sys`'s threads, with `sys`'s slots written to `row`
    /// (cleared first).
    pub fn new(sys: &SysState, row: &mut Vec<u32>) -> StateSlots {
        let mut slots = StateSlots {
            threads: sys.threads.iter().map(|_| Interner::default()).collect(),
            in_flight: Interner::default(),
        };
        row.clear();
        for (table, ts) in slots.threads.iter_mut().zip(&sys.threads) {
            row.push(table.intern(ts));
        }
        row.push(slots.in_flight.intern(&sys.in_flight));
        slots
    }

    /// Number of slot words at the head of a row: `n + 1`.
    pub fn width(&self) -> usize {
        self.threads.len() + 1
    }

    /// Write `sys`'s threads and in-flight vector from the slots of `row`,
    /// reusing `sys`'s buffers. Other fields are left to the caller.
    pub fn decode(&self, row: &[u32], sys: &mut SysState) {
        for (t, table) in self.threads.iter().enumerate() {
            sys.threads[t].clone_from(table.get(row[t]));
        }
        sys.in_flight
            .clone_from(self.in_flight.get(row[self.threads.len()]));
    }

    /// Re-intern the slots of `row`, a copy of the row `sys` was stepped
    /// from, after thread `t` stepped: thread `t`'s slot, and the
    /// in-flight slot when the step sent or received (a send adds one
    /// in-flight message, a receive removes one, and nothing else touches
    /// the vector).
    pub fn step(&mut self, row: &mut [u32], t: usize, sys: &SysState) {
        let n = self.threads.len();
        row[t] = self.threads[t].intern(&sys.threads[t]);
        if sys.in_flight.len() != self.in_flight.get(row[n]).len() {
            row[n] = self.in_flight.intern(&sys.in_flight);
        }
    }

    /// Undo [`StateSlots::step`] on `sys`: restore thread `t` and the
    /// in-flight vector from the slots of `parent`.
    pub fn restore(&self, parent: &[u32], t: usize, sys: &mut SysState) {
        sys.threads[t].clone_from(self.threads[t].get(parent[t]));
        let flight = self.in_flight.get(parent[self.threads.len()]);
        if sys.in_flight.len() != flight.len() {
            sys.in_flight.clone_from(flight);
        }
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

    #[test]
    fn rows_are_numbered_in_insertion_order_and_compared_whole() {
        let mut rows = Rows::new(3);
        assert_eq!(rows.insert(&[1, 2, 3]), (0, true));
        assert_eq!(rows.insert(&[1, 2, 4]), (1, true));
        assert_eq!(rows.insert(&[1, 2, 3]), (0, false));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.get(1), &[1, 2, 4]);
    }
}
