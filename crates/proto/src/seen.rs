//! Receiver-side duplicate suppression: per source, a floor and the
//! sightings not yet below it, none held past two lifetimes.
//!
//! A machine must recognise the second copy of a frame — a
//! retransmission whose ack was lost, or a transport duplicate — for as
//! long as a second copy can still arrive. Two rules decide it:
//!
//! * **The floor.** The three kinds a sender retransmits carry the
//!   lowest id it still has an exchange open for
//!   ([`WireMessage::floor`]). Every exchange below it has closed: by an
//!   ack, which leaves the receiver only after the frame was processed,
//!   or by giving up, which happens only after every copy has landed or
//!   been lost. So an acked frame below its source's floor is a
//!   duplicate, and the sightings below it can go; an honest floor
//!   trails its sender's newest id by its open exchanges.
//! * **Two lifetimes.** Every copy of a frame arrives within one
//!   *lifetime* of the first (see [`lifetime`]), and a sighting is held
//!   for at least one lifetime and at most two. This is the only rule
//!   for the fire-and-forget kinds: no ack proves one was processed, and
//!   a later acked frame can overtake one, so no floor prunes or rejects
//!   one.
//!
//! A floor is held only while an acked sighting of its source is (an
//! honest raise always leaves the raising frame's own). Inside the
//! lifetime the verdicts are exactly a never-pruned set's, and what the
//! set holds is bounded by two lifetimes of traffic — also all that a
//! flood of forged unauthenticated frames can pin. DESIGN §11 has the
//! argument.
//!
//! **The contract past the horizon:** a frame replayed more than two
//! lifetimes after its first copy is accepted as new.
//!
//! **The contract on a hostile floor:** a floor nothing authenticates
//! (any under `VerifyPolicy::Off`) can be forged. A frame from `S` under
//! a high id with floor `u64::MAX` makes every acked frame `S` sends
//! this receiver a duplicate — acked, applied nowhere — until the forged
//! sighting ages out, at most two lifetimes later. Under verification
//! only a frame sealed by its own source raises a floor.
//!
//! [`WireMessage::floor`]: crate::wire::WireMessage::floor

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use bristle_core::time::SimTime;
use bristle_overlay::key::Key;

/// How long a frame's copies can keep arriving after the first, from the
/// ack ladder in force: `ladder` bounds the time from a sender's first
/// transmission to its giving up (every ack wait, the last included).
/// The drivers require an ack window to exceed the worst link latency,
/// so the last copy — and any transport duplicate of it — lands inside
/// one ladder of the first; the lifetime is twice that. A ladder of zero
/// gives no horizon to derive anything from, so nothing is ever
/// forgotten (`u64::MAX`) rather than everything at once; an overflowing
/// one saturates to the same.
pub(crate) fn lifetime(ladder: u64) -> u64 {
    match ladder.saturating_mul(2) {
        0 => u64::MAX,
        ticks => ticks,
    }
}

/// What a sighted frame says about its sender's exchanges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A fire-and-forget frame: held by the time rule alone.
    Posted,
    /// A frame of an acked exchange, with its floor if that floor is to
    /// be believed.
    Exchange(Option<u64>),
}

/// Per source, a floor and the sightings not yet below it; see the
/// module docs. Everything sits in one box, allocated at the first
/// sighting and dropped with the last record, so a machine that has
/// heard no guarded frame for two lifetimes owns no heap for it.
#[derive(Debug, Default)]
pub(crate) struct SeenSet {
    records: Option<Box<Records>>,
    /// When the current generation was opened.
    opened: SimTime,
}

#[derive(Debug)]
struct Records {
    sources: Sources,
    /// The current generation's number. Every rotation drops whatever
    /// is older than the one it closes, so two numbers are ever live and
    /// wrapping is harmless.
    generation: u8,
}

/// The records, one a source: a lone source's inline, the common case on
/// a machine one peer talks to, or a keyed table of two or more. A table
/// left with one goes back inline; the box goes with the last record.
#[derive(Debug)]
enum Sources {
    One(Key, Record),
    Many(HashMap<Key, Record, Keyed>),
}

/// The standard keyed hasher, its keys drawn once per process: sources
/// and ids come off the wire, so the keys stay secret, and a table keyed
/// by it carries no state of its own (16 B a table less than
/// `RandomState`).
#[derive(Debug, Clone, Copy, Default)]
struct Keyed;

impl BuildHasher for Keyed {
    type Hasher = DefaultHasher;

    fn build_hasher(&self) -> DefaultHasher {
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        KEYS.get_or_init(RandomState::new).build_hasher()
    }
}

/// One source's dedup state.
#[derive(Debug)]
struct Record {
    /// Every exchange of the source below this id has closed; 0 holds
    /// nothing below it.
    floor: u64,
    sightings: Sightings,
}

impl Record {
    /// A source heard from, nothing held yet.
    const EMPTY: Record = Record { floor: 0, sightings: Sightings::None };
}

// A record is a slot of its machine's table, one a source heard from.
const _: () = assert!(std::mem::size_of::<(Key, Record)>() == 32);

/// A source's sightings: one inline, the common case on a link its floor
/// keeps short, or a table of their own, boxed so a record stays 24 B.
/// A record left with `None` goes.
#[derive(Debug)]
enum Sightings {
    None,
    One(u64, Tag),
    Many(Box<Many>),
}

/// Two or more sightings of one source.
#[derive(Debug, Default)]
struct Many {
    by_id: HashMap<u64, Tag, Keyed>,
    /// How many are acked frames': while any is, the record keeps its
    /// floor.
    acked: usize,
}

impl Many {
    /// Adds a sighting not held.
    fn add(&mut self, msg_id: u64, tag: Tag) {
        self.by_id.insert(msg_id, tag);
        self.acked += usize::from(tag.exchange);
    }
}

/// What a sighting remembers beside its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tag {
    /// The generation it was made in.
    generation: u8,
    /// Whether its frame is an acked exchange's, which a floor prunes.
    exchange: bool,
}

impl SeenSet {
    /// Ages the generations to `now`: the current one closes once it has
    /// been open for `lifetime`, dropping the one before it, and every
    /// record goes (box included) when nothing rotated them for two.
    /// Called on every event a machine handles, so a machine that still
    /// hears anything lets go of its old sightings even when none of it
    /// is deduplicated.
    pub(crate) fn advance(&mut self, now: SimTime, lifetime: u64) {
        let age = now.0.saturating_sub(self.opened.0);
        if age < lifetime {
            return;
        }
        self.opened = now;
        let Some(records) = self.records.as_mut() else { return };
        if age / 2 < lifetime {
            let closing = records.generation;
            records.generation = closing.wrapping_add(1);
            let left = records.sources.retain(|r| {
                r.retain(|_, tag| tag.generation == closing);
                r.forget_a_floor_no_sighting_holds();
                !matches!(r.sightings, Sightings::None)
            });
            if left {
                return;
            }
        }
        self.records = None;
    }

    /// Records a sighting of frame `msg_id` from `src`; `true` if it is
    /// new: held in neither generation and, for an acked frame, not below
    /// the floor held for `src`. An acked frame's believed floor then
    /// raises that floor, and the acked sightings below it go.
    pub(crate) fn insert(&mut self, src: Key, msg_id: u64, kind: Kind) -> bool {
        let records = self.records.get_or_insert_with(|| {
            Box::new(Records { sources: Sources::One(src, Record::EMPTY), generation: 0 })
        });
        let tag = Tag { generation: records.generation, exchange: kind != Kind::Posted };
        let record = records.sources.record(src);
        let first = record.sight(msg_id, tag, kind);
        if matches!(record.sightings, Sightings::None) && !records.sources.remove(src) {
            self.records = None;
        }
        first
    }

    /// Whether frame `msg_id` from `src` is held in either generation.
    pub(crate) fn contains(&self, src: Key, msg_id: u64) -> bool {
        let record = self.records.as_ref().and_then(|r| r.sources.get(src));
        record.is_some_and(|r| r.holds(msg_id))
    }

    /// The floor held for `src`, 0 if none.
    pub(crate) fn floor_of(&self, src: Key) -> u64 {
        let record = self.records.as_ref().and_then(|r| r.sources.get(src));
        record.map_or(0, |r| r.floor)
    }

    /// Sightings held.
    pub(crate) fn len(&self) -> usize {
        self.records.as_ref().map_or(0, |r| r.sources.len())
    }
}

impl Sources {
    fn get(&self, src: Key) -> Option<&Record> {
        match self {
            Sources::One(key, record) => (*key == src).then_some(record),
            Sources::Many(by_source) => by_source.get(&src),
        }
    }

    /// `src`'s record, [empty](Record::EMPTY) if it had none; a second
    /// source moves the lone one into a table.
    fn record(&mut self, src: Key) -> &mut Record {
        if matches!(self, Sources::One(key, _) if *key != src) {
            let lone = std::mem::replace(self, Sources::Many(HashMap::default()));
            if let (Sources::One(key, record), Sources::Many(by_source)) = (lone, &mut *self) {
                by_source.insert(key, record);
            }
        }
        match self {
            Sources::One(_, record) => record,
            Sources::Many(by_source) => by_source.entry(src).or_insert(Record::EMPTY),
        }
    }

    /// Drops `src`'s record, which is held; whether any is left.
    fn remove(&mut self, src: Key) -> bool {
        let Sources::Many(by_source) = self else { return false };
        by_source.remove(&src);
        self.inline_a_lone_record();
        true
    }

    /// Keeps the records `keep` approves, each handed over to edit first;
    /// whether any is left.
    fn retain(&mut self, mut keep: impl FnMut(&mut Record) -> bool) -> bool {
        let left = match self {
            Sources::One(_, record) => keep(record),
            Sources::Many(by_source) => {
                by_source.retain(|_, record| keep(record));
                !by_source.is_empty()
            }
        };
        self.inline_a_lone_record();
        left
    }

    /// A table left with one record puts it back inline.
    fn inline_a_lone_record(&mut self) {
        let lone = match self {
            Sources::Many(by_source) if by_source.len() == 1 => by_source.drain().next(),
            _ => None,
        };
        if let Some((key, record)) = lone {
            *self = Sources::One(key, record);
        }
    }

    /// Sightings held.
    fn len(&self) -> usize {
        match self {
            Sources::One(_, record) => record.len(),
            Sources::Many(by_source) => by_source.values().map(Record::len).sum(),
        }
    }
}

impl Record {
    fn len(&self) -> usize {
        match &self.sightings {
            Sightings::None => 0,
            Sightings::One(..) => 1,
            Sightings::Many(many) => many.by_id.len(),
        }
    }

    fn holds(&self, msg_id: u64) -> bool {
        match &self.sightings {
            Sightings::None => false,
            Sightings::One(id, _) => *id == msg_id,
            Sightings::Many(many) => many.by_id.contains_key(&msg_id),
        }
    }

    /// Takes in a sighting of `kind` (see [`SeenSet::insert`]). The
    /// floor is raised before the sighting is added, so on a link whose
    /// floor keeps up the new sighting replaces the old one in place.
    fn sight(&mut self, msg_id: u64, tag: Tag, kind: Kind) -> bool {
        let below = |floor| tag.exchange && msg_id < floor;
        let first = !below(self.floor) && !self.holds(msg_id);
        let raised = match kind {
            Kind::Exchange(Some(floor)) if floor > self.floor => {
                self.floor = floor;
                self.retain(|id, tag| !tag.exchange || id >= floor);
                true
            }
            _ => false,
        };
        if first && !below(self.floor) {
            self.add(msg_id, tag);
        }
        if raised {
            self.forget_a_floor_no_sighting_holds();
        }
        first
    }

    /// Adds a sighting not held.
    fn add(&mut self, msg_id: u64, tag: Tag) {
        match &mut self.sightings {
            Sightings::None => self.sightings = Sightings::One(msg_id, tag),
            Sightings::One(id, held) => {
                let mut many = Box::<Many>::default();
                many.add(*id, *held);
                many.add(msg_id, tag);
                self.sightings = Sightings::Many(many);
            }
            Sightings::Many(many) => many.add(msg_id, tag),
        }
    }

    /// Keeps the sightings `keep` approves; a table left with one goes
    /// back inline.
    fn retain(&mut self, keep: impl Fn(u64, Tag) -> bool) {
        match &mut self.sightings {
            Sightings::None => {}
            Sightings::One(id, tag) => {
                if !keep(*id, *tag) {
                    self.sightings = Sightings::None;
                }
            }
            Sightings::Many(many) => {
                many.by_id.retain(|&id, &mut tag| keep(id, tag));
                many.acked = many.by_id.values().filter(|tag| tag.exchange).count();
                let mut left = many.by_id.iter().map(|(&id, &tag)| (id, tag));
                match (left.next(), left.next()) {
                    (None, _) => self.sightings = Sightings::None,
                    (Some((id, tag)), None) => self.sightings = Sightings::One(id, tag),
                    _ => {}
                }
            }
        }
    }

    /// A floor is held only while an acked sighting is: an honest raise
    /// keeps the raising frame's own, so only a floor above every acked
    /// sighting — a forged one, or one whose sightings aged out — goes.
    fn forget_a_floor_no_sighting_holds(&mut self) {
        let held = match &self.sightings {
            Sightings::None => false,
            Sightings::One(_, tag) => tag.exchange,
            Sightings::Many(many) => many.acked > 0,
        };
        if !held {
            self.floor = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::rng::Pcg64;
    use std::collections::HashSet;

    const L: u64 = 1_000;
    const POSTED: Kind = Kind::Posted;

    #[test]
    fn duplicates_are_caught_in_either_generation() {
        let mut seen = SeenSet::default();
        seen.advance(SimTime(10), L);
        assert!(seen.insert(Key(1), 7, POSTED));
        assert!(!seen.insert(Key(1), 7, POSTED));
        assert!(seen.insert(Key(2), 7, POSTED), "ids are per source");
        // One rotation later the sighting sits in the previous generation.
        seen.advance(SimTime(10 + L), L);
        assert!(!seen.insert(Key(1), 7, POSTED));
        assert_eq!(seen.len(), 2, "a duplicate is not re-recorded");
    }

    /// The contract, stated: exact for a lifetime, forgotten after two.
    #[test]
    fn a_frame_replayed_after_two_lifetimes_is_new() {
        let mut seen = SeenSet::default();
        seen.advance(SimTime(5_000), L);
        assert!(seen.insert(Key(1), 0, POSTED));
        seen.advance(SimTime(5_000 + L - 1), L);
        assert!(!seen.insert(Key(1), 0, POSTED), "still inside its lifetime");
        seen.advance(SimTime(5_000 + L), L);
        seen.advance(SimTime(5_000 + 2 * L), L);
        assert_eq!(seen.len(), 0);
        assert!(seen.insert(Key(1), 0, POSTED), "two lifetimes on, the frame is new");
    }

    #[test]
    fn a_long_silence_drops_both_generations_at_once() {
        let mut seen = SeenSet::default();
        seen.advance(SimTime(0), L);
        seen.insert(Key(1), 0, POSTED);
        seen.advance(SimTime(L), L);
        seen.insert(Key(1), 1, POSTED);
        assert_eq!(seen.len(), 2);
        seen.advance(SimTime(L + 2 * L), L);
        assert_eq!(seen.len(), 0);
        assert!(seen.records.is_none(), "memory returned, box and all");
    }

    #[test]
    fn degenerate_ladders_never_rotate_per_insert() {
        assert_eq!(lifetime(0), u64::MAX);
        assert_eq!(lifetime(u64::MAX / 2 + 1), u64::MAX);
        assert_eq!(lifetime(300_000), 600_000);
        let mut seen = SeenSet::default();
        for t in 0..100 {
            seen.advance(SimTime(t * 1_000_000), lifetime(0));
            seen.insert(Key(1), t, POSTED);
        }
        assert_eq!(seen.len(), 100);
        assert!(!seen.insert(Key(1), 0, POSTED));
    }

    /// A floor rejects the acked frames below it and prunes their
    /// sightings; a posted frame's sighting stays and is never rejected,
    /// and a floor nobody believes raises nothing.
    #[test]
    fn a_floor_prunes_and_rejects_only_acked_frames() {
        let mut seen = SeenSet::default();
        for id in 0..4 {
            assert!(seen.insert(Key(1), id, Kind::Exchange(None)));
        }
        assert!(seen.insert(Key(1), 4, POSTED));
        assert_eq!(seen.len(), 5);
        assert!(seen.insert(Key(1), 9, Kind::Exchange(Some(3))));
        assert_eq!(seen.len(), 3, "0, 1 and 2 were pruned; 3, the posted 4 and 9 stay");
        assert!(!seen.insert(Key(1), 1, Kind::Exchange(None)), "below the floor: a duplicate");
        assert!(seen.insert(Key(1), 1, POSTED), "a posted frame ignores the floor");
        assert!(!seen.insert(Key(1), 3, Kind::Exchange(None)), "still held");
        assert!(seen.insert(Key(1), 10, Kind::Exchange(Some(10))));
        assert_eq!(seen.len(), 3, "the posted 1 and 4, and 10");
        assert!(seen.insert(Key(2), 0, Kind::Exchange(None)), "floors are per source");
        assert!(seen.insert(Key(1), 11, Kind::Exchange(None)), "an unbelieved floor");
        assert!(seen.contains(Key(1), 10), "raised nothing");
    }

    /// A floor lives only while an acked sighting does: a forged high
    /// floor whose own sighting is pruned by it, or ages out, goes too.
    #[test]
    fn a_floor_goes_with_its_last_acked_sighting() {
        let mut seen = SeenSet::default();
        seen.insert(Key(1), 7, Kind::Exchange(Some(u64::MAX)));
        assert_eq!(seen.len(), 0, "the forgery pruned its own sighting");
        assert!(seen.insert(Key(1), 8, Kind::Exchange(None)), "and its floor with it");

        seen.insert(Key(1), u64::MAX, Kind::Exchange(Some(u64::MAX)));
        seen.insert(Key(1), 20, POSTED);
        assert!(!seen.insert(Key(1), 9, Kind::Exchange(None)), "silenced");
        seen.advance(SimTime(L), L);
        seen.advance(SimTime(2 * L), L);
        assert!(seen.insert(Key(1), 9, Kind::Exchange(None)), "two lifetimes on");
    }

    /// Every verdict a never-pruned set gives, as long as each frame's
    /// copies fall inside one lifetime of its first and each acked
    /// frame carries its sender's lowest id not yet acked — and a bounded
    /// population while doing it. A quarter of the frames are posted,
    /// which a floor must neither prune nor reject.
    #[test]
    fn matches_a_never_pruned_set_inside_the_lifetime() {
        for seed in [8u64, 27] {
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut seen = SeenSet::default();
            let mut oracle: HashSet<(Key, u64)> = HashSet::new();
            // (first sighting time, frame, kind) of frames that may still
            // repeat, and per source the ids not yet acked.
            let mut live: Vec<(u64, (Key, u64), Kind)> = Vec::new();
            let mut open: [Vec<u64>; 4] = Default::default();
            let mut next_id = [0u64; 4];
            let mut now = 0u64;
            let mut peak = 0usize;
            for _ in 0..50_000 {
                now += rng.range_inclusive(0, 40);
                seen.advance(SimTime(now), L);
                // Once no copy of a frame can arrive, its sender has
                // given up on it if no ack came.
                live.retain(|&(first, (src, id), _)| {
                    let landed = now - first >= L;
                    if landed {
                        open[(src.0 - 100) as usize].retain(|&o| o != id);
                    }
                    !landed
                });
                let (frame, kind) = if !live.is_empty() && rng.chance(0.4) {
                    let (_, frame, kind) = live[rng.index(live.len())];
                    (frame, kind)
                } else {
                    let s = rng.index(4);
                    let id = next_id[s];
                    next_id[s] += 1;
                    let kind = if rng.chance(0.25) {
                        POSTED
                    } else {
                        open[s].push(id);
                        Kind::Exchange(Some(open[s][0]))
                    };
                    let frame = (Key(100 + s as u64), id);
                    live.push((now, frame, kind));
                    (frame, kind)
                };
                let s = (frame.0 .0 - 100) as usize;
                // A retransmission's exchange is open, so no floor has
                // passed it: there the window answers exactly.
                if kind == POSTED || open[s].contains(&frame.1) {
                    let held = seen.contains(frame.0, frame.1);
                    assert_eq!(held, oracle.contains(&frame), "seed {seed} t={now} {frame:?}");
                }
                let first = seen.insert(frame.0, frame.1, kind);
                assert_eq!(first, oracle.insert(frame), "seed {seed} t={now} {frame:?}");
                // Most of the time the receiver's ack closes the exchange.
                if kind != POSTED && rng.chance(0.9) {
                    open[s].retain(|&id| id != frame.1);
                }
                peak = peak.max(seen.len());
            }
            // ~1 new frame per 33 ticks: two lifetimes hold ~60 of the
            // ~30 000 the oracle has kept.
            assert!(oracle.len() > 25_000);
            assert!(peak < 200, "seed {seed}: peak occupancy {peak}");
        }
    }
}
