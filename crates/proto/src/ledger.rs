//! The delivery ledger: which `(src, msg_id)` frames a driver has
//! already handed to some machine.
//!
//! Both drivers meter [`SpuriousRetry`](bristle_overlay::meter::MessageKind::SpuriousRetry)
//! the same way: a frame is recorded when a machine is about to process
//! it, and a later *transmission* of a recorded frame is retry-timer
//! waste. That is one `insert` per delivered frame and one `contains`
//! per sent frame, on every frame of a run — the hottest bookkeeping a
//! driver does. [`DeliveryLedger`] is that set, shared by the simulator
//! driver and the socket driver.
//!
//! **What is dense.** `msg_id` is a per-source counter, and a driver
//! already has a dense index for every source it hosts. Each indexed
//! source gets a bitmap of its ids: one bit per id, no hash. Ids only
//! climb, so the word holding a source's newest ids sits inline in that
//! source's row and the older words behind a pointer the hot path does
//! not follow: a fresh send and an in-order delivery are answered from
//! one 32-byte row, however long the run has been — no allocation until
//! a source's 64th id, and a working set of rows, not of bitmaps, so
//! what a frame costs does not depend on how much of the older words
//! the host's caches still hold.
//!
//! **What spills.** Sources and ids come off the wire, so neither can be
//! trusted to be small. A source the driver has no index for, and an id
//! 512 or more past the start of its source's newest word, go to a
//! hashed spill instead. Which of the two happens is decided by the
//! id the ledger is handed, never by a setting, so a forged frame with a
//! random 64-bit id costs one spill entry, not an allocation sized by
//! the attacker. The spill uses the standard library's keyed hasher —
//! its keys are exactly the ones an outsider chose.
//!
//! Membership is exact either way: `contains` answers what a
//! `HashSet<(Key, u64)>` would.

use std::collections::HashSet;

use bristle_overlay::key::Key;

/// How far past the start of its source's newest word an id may lie and
/// still extend the bitmap. Honest ids advance by one per send and only
/// the delivered ones are recorded, so this is the longest run of lost
/// frames a source can have before its later ids fall back to the spill
/// (correct, just hashed). It is also what bounds the bytes any single
/// recorded id can cost.
const NEAR_IDS: u64 = 512;

/// The older words grow by this many at a time, exactly: the slack a
/// doubling `Vec` would carry is per source, and there can be 10⁴ of
/// them.
const GROW_WORDS: usize = 4;

/// One indexed source's ids, 64 to a word.
#[derive(Debug, Default)]
struct Row {
    /// Word `older.len()`: the newest ids, where nearly every `insert`
    /// and `contains` lands.
    newest: u64,
    /// Words `0..older.len()`.
    older: Vec<u64>,
}

// Two rows to a cache line.
const _: () = assert!(std::mem::size_of::<Row>() <= 32);

impl Row {
    /// The word `id` falls in, if the row has reached it.
    fn word(&self, id: u64) -> Option<u64> {
        let at = id / 64;
        let reached = self.older.len() as u64;
        if at == reached {
            Some(self.newest)
        } else if at < reached {
            // In range of `usize`: below a `Vec` length.
            Some(self.older[at as usize])
        } else {
            None
        }
    }

    /// Retires words until `at` is the newest one.
    fn advance_to(&mut self, at: usize) {
        while self.older.len() < at {
            if self.older.len() == self.older.capacity() {
                self.older.reserve_exact(GROW_WORDS);
            }
            self.older.push(std::mem::take(&mut self.newest));
        }
    }
}

/// Exact `(source, msg_id)` membership; see the module docs.
#[derive(Debug, Default)]
pub struct DeliveryLedger {
    /// One row per source index the ledger has been shown.
    dense: Vec<Row>,
    /// Everything the rows do not hold.
    spill: HashSet<(Key, u64)>,
}

impl DeliveryLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records frame `id` of source `key`. `source` is the caller's
    /// dense index for `key` — `None` if it has none — and must name
    /// the same key every time it is passed.
    pub fn insert(&mut self, source: Option<usize>, key: Key, id: u64) {
        let Some(source) = source else {
            self.spill.insert((key, id));
            return;
        };
        if source >= self.dense.len() {
            self.dense.resize_with(source + 1, Row::default);
        }
        let row = &mut self.dense[source];
        if id >= (row.older.len() as u64 * 64).saturating_add(NEAR_IDS) {
            self.spill.insert((key, id));
            return;
        }
        // In range of `usize`: `id` is below a `Vec` length plus 512.
        let at = (id / 64) as usize;
        let bit = 1u64 << (id % 64);
        match row.older.get_mut(at) {
            Some(word) => *word |= bit,
            None => {
                row.advance_to(at);
                row.newest |= bit;
            }
        }
    }

    /// Whether frame `id` of source `key` was recorded (`source` as for
    /// [`Self::insert`]).
    pub fn contains(&self, source: Option<usize>, key: Key, id: u64) -> bool {
        let bit = source
            .and_then(|s| self.dense.get(s))
            .and_then(|row| row.word(id))
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0);
        // A source may have been recorded before it had an index, so a
        // bitmap miss still has to ask the spill — which is empty unless
        // somebody put hostile or far-out-of-order frames on the wire.
        bit || (!self.spill.is_empty() && self.spill.contains(&(key, id)))
    }

    /// Forgets every id of source `key`: its machine is gone, and a
    /// successor's frames are not retries of its.
    pub fn forget_source(&mut self, source: Option<usize>, key: Key) {
        if let Some(row) = source.and_then(|s| self.dense.get_mut(s)) {
            *row = Row::default();
        }
        if !self.spill.is_empty() {
            self.spill.retain(|&(k, _)| k != key);
        }
    }

    /// Heap bytes held, by capacity. The spill is charged as the
    /// swiss table it is: a power-of-two bucket count at 7/8 load, each
    /// bucket the entry plus one control byte.
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let buckets = match self.spill.capacity() {
            0 => 0,
            cap => (cap * 8).div_ceil(7).next_power_of_two(),
        };
        self.dense.capacity() * size_of::<Row>()
            + self.dense.iter().map(|r| r.older.capacity() * size_of::<u64>()).sum::<usize>()
            + buckets * (size_of::<(Key, u64)>() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::rng::Pcg64;

    /// Interleaved insert / contains / forget against the set both
    /// drivers used to keep, over ids chosen to sit on every boundary:
    /// 0, dense runs, the edge of the near window, `u64::MAX`, and
    /// sources with and without an index — including one that gains its
    /// index halfway through.
    #[test]
    fn ledger_matches_hashset_oracle() {
        for seed in [8u64, 27] {
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut ledger = DeliveryLedger::new();
            let mut oracle: HashSet<(Key, u64)> = HashSet::new();
            // Sources 0..6 are indexed, 6..8 never are, 8 is indexed
            // only in the second half.
            let keys: Vec<Key> = (0..9).map(|i| Key(1000 + 7 * i)).collect();
            let mut next_id = [0u64; 9];
            const STEPS: usize = 40_000;
            for step in 0..STEPS {
                let s = rng.range_inclusive(0, 8) as usize;
                let key = keys[s];
                let source = match s {
                    0..=5 => Some(s),
                    8 if step >= STEPS / 2 => Some(6),
                    _ => None,
                };
                let id = match rng.range_inclusive(0, 9) {
                    0 => 0,
                    1 => u64::MAX - rng.range_inclusive(0, 2),
                    2 => rng.next_u64(),
                    // Straddles the near window whatever the bitmap's length.
                    3 => next_id[s] + NEAR_IDS - 130 + rng.range_inclusive(0, 260),
                    4 => rng.range_inclusive(0, next_id[s] + 1),
                    _ => {
                        next_id[s] += 1;
                        next_id[s] - 1
                    }
                };
                match rng.range_inclusive(0, 499) {
                    0 => {
                        ledger.forget_source(source, key);
                        oracle.retain(|&(k, _)| k != key);
                        next_id[s] = 0;
                    }
                    1..=249 => {
                        ledger.insert(source, key, id);
                        oracle.insert((key, id));
                    }
                    _ => {}
                }
                assert_eq!(
                    ledger.contains(source, key, id),
                    oracle.contains(&(key, id)),
                    "seed {seed} step {step}: source {source:?} {key} id {id}"
                );
            }
            // Nothing recorded was lost, nothing else is claimed.
            for &(key, id) in &oracle {
                let s = keys.iter().position(|&k| k == key).expect("a test key");
                let source = match s {
                    0..=5 => Some(s),
                    8 => Some(6),
                    _ => None,
                };
                assert!(ledger.contains(source, key, id), "seed {seed}: lost {key} id {id}");
            }
            assert!(!oracle.is_empty());
        }
    }

    /// The memory bound the ledger exists for: a bit per honest id plus
    /// a constant per source, and a constant per forged id however
    /// large its value.
    #[test]
    fn ledger_memory_is_a_bit_per_id_and_constant_per_forged_id() {
        const SOURCES: usize = 100;
        const PER_SOURCE: u64 = 10_000;
        const FORGED: usize = 1_000;
        let mut rng = Pcg64::seed_from_u64(8);
        let mut ledger = DeliveryLedger::new();
        let key = |s: usize| Key(s as u64 * 0x9E37_79B9 + 1);
        for id in 0..PER_SOURCE {
            for s in 0..SOURCES {
                ledger.insert(Some(s), key(s), id);
            }
        }
        let mut forged = Vec::new();
        for i in 0..FORGED {
            // Far ids from sources the driver knows and ones it does not.
            let s = i % (2 * SOURCES);
            let source = (s < SOURCES).then_some(s);
            let id = rng.next_u64() | (1 << 40);
            ledger.insert(source, key(s), id);
            forged.push((source, key(s), id));
        }
        let ids = SOURCES as u64 * PER_SOURCE;
        let budget = ids as usize / 8 + 64 * SOURCES + 64 * FORGED;
        let held = ledger.heap_bytes();
        assert!(held <= budget, "ledger holds {held} B for {ids} ids, budget {budget} B");
        assert!(ledger.contains(Some(0), key(0), PER_SOURCE - 1));
        assert!(!ledger.contains(Some(0), key(0), PER_SOURCE));
        assert!(forged.iter().all(|&(source, k, id)| ledger.contains(source, k, id)));
        // Forgetting a source gives its bitmap back.
        ledger.forget_source(Some(0), key(0));
        assert!(ledger.heap_bytes() < held);
        assert!(!ledger.contains(Some(0), key(0), 0));
    }

    /// `u64::MAX` from an indexed source with an empty bitmap must not
    /// size anything by the id.
    #[test]
    fn hostile_ids_spill_instead_of_allocating() {
        let mut ledger = DeliveryLedger::new();
        ledger.insert(Some(3), Key(9), u64::MAX);
        ledger.insert(Some(3), Key(9), NEAR_IDS);
        ledger.insert(Some(3), Key(9), NEAR_IDS - 1);
        assert!(ledger.contains(Some(3), Key(9), u64::MAX));
        assert!(ledger.contains(Some(3), Key(9), NEAR_IDS));
        assert!(ledger.contains(Some(3), Key(9), NEAR_IDS - 1));
        assert!(!ledger.contains(Some(3), Key(9), u64::MAX - 1));
        assert_eq!(ledger.spill.len(), 2, "the two ids outside the near window");
        assert!(ledger.heap_bytes() < 1024);
    }
}
