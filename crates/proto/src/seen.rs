//! Receiver-side duplicate suppression, bounded by frame lifetime.
//!
//! A machine must recognise the second copy of a frame — a
//! retransmission whose ack was lost, or a transport duplicate — for as
//! long as a second copy can still arrive, and no longer. Every copy of
//! a frame leaves its sender inside one retry ladder and each crosses
//! one link, so all of them arrive within one *lifetime* of the first
//! (see [`lifetime`]). [`SeenSet`] therefore keeps two generations of
//! `(src, msg_id)` pairs: a sighting goes into `current`, membership
//! asks both, and once `current` has been open for a lifetime it
//! becomes `previous` and the old `previous` is dropped. An entry is
//! held for at least one lifetime and at most two, so inside the
//! lifetime the answer is exactly a never-pruned set's, and what the
//! set holds is bounded by the traffic of two lifetimes — which is also
//! all that a flood of forged unauthenticated frames can pin.
//!
//! **The contract past the horizon:** a frame replayed more than two
//! lifetimes after its first copy is accepted as new.

use std::collections::HashSet;

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

/// Two generations of `(src, msg_id)` sightings; see the module docs.
/// Both sit in one box, allocated at the first sighting and dropped by
/// the rotation that leaves both empty, so a machine that has heard no
/// guarded frame for two lifetimes owns no heap for them.
#[derive(Debug, Default)]
pub(crate) struct SeenSet {
    generations: Option<Box<Generations>>,
    /// When `current` was opened.
    opened: SimTime,
}

// Sources and ids come off the wire: the standard keyed hasher stays.
#[derive(Debug, Default)]
struct Generations {
    current: HashSet<(Key, u64)>,
    previous: HashSet<(Key, u64)>,
}

impl SeenSet {
    /// Ages the generations to `now`: `current` retires once it has been
    /// open for `lifetime`, and both are dropped (box included) when
    /// nothing rotated them for two. Called on every event a machine
    /// handles, so a machine that still hears anything lets go of its
    /// old sightings even when none of it is deduplicated.
    pub(crate) fn advance(&mut self, now: SimTime, lifetime: u64) {
        let age = now.0.saturating_sub(self.opened.0);
        if age < lifetime {
            return;
        }
        self.opened = now;
        let Some(gens) = self.generations.as_mut() else { return };
        let current = std::mem::take(&mut gens.current);
        gens.previous = if age / 2 < lifetime { current } else { HashSet::new() };
        if gens.previous.is_empty() {
            self.generations = None;
        }
    }

    /// Records a sighting of frame `msg_id` from `src`; `true` if it is
    /// the first in either generation.
    pub(crate) fn insert(&mut self, src: Key, msg_id: u64) -> bool {
        let frame = (src, msg_id);
        let gens = self.generations.get_or_insert_with(Default::default);
        !gens.previous.contains(&frame) && gens.current.insert(frame)
    }

    /// Whether frame `msg_id` from `src` is held in either generation.
    pub(crate) fn contains(&self, src: Key, msg_id: u64) -> bool {
        let frame = (src, msg_id);
        self.generations
            .as_ref()
            .is_some_and(|g| g.current.contains(&frame) || g.previous.contains(&frame))
    }

    /// Sightings held.
    pub(crate) fn len(&self) -> usize {
        self.generations.as_ref().map_or(0, |g| g.current.len() + g.previous.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::rng::Pcg64;

    const L: u64 = 1_000;

    #[test]
    fn duplicates_are_caught_in_either_generation() {
        let mut seen = SeenSet::default();
        seen.advance(SimTime(10), L);
        assert!(seen.insert(Key(1), 7));
        assert!(!seen.insert(Key(1), 7));
        assert!(seen.insert(Key(2), 7), "ids are per source");
        // One rotation later the sighting sits in `previous`.
        seen.advance(SimTime(10 + L), L);
        assert!(!seen.insert(Key(1), 7));
        assert_eq!(seen.len(), 2, "a duplicate is not re-recorded");
    }

    /// The contract, stated: exact for a lifetime, forgotten after two.
    #[test]
    fn a_frame_replayed_after_two_lifetimes_is_new() {
        let mut seen = SeenSet::default();
        seen.advance(SimTime(5_000), L);
        assert!(seen.insert(Key(1), 0));
        seen.advance(SimTime(5_000 + L - 1), L);
        assert!(!seen.insert(Key(1), 0), "still inside its lifetime");
        seen.advance(SimTime(5_000 + L), L);
        seen.advance(SimTime(5_000 + 2 * L), L);
        assert_eq!(seen.len(), 0);
        assert!(seen.insert(Key(1), 0), "two lifetimes on, the frame is new");
    }

    #[test]
    fn a_long_silence_drops_both_generations_at_once() {
        let mut seen = SeenSet::default();
        seen.advance(SimTime(0), L);
        seen.insert(Key(1), 0);
        seen.advance(SimTime(L), L);
        seen.insert(Key(1), 1);
        assert_eq!(seen.len(), 2);
        seen.advance(SimTime(L + 2 * L), L);
        assert_eq!(seen.len(), 0);
        assert!(seen.generations.is_none(), "memory returned, box and all");
    }

    #[test]
    fn degenerate_ladders_never_rotate_per_insert() {
        assert_eq!(lifetime(0), u64::MAX);
        assert_eq!(lifetime(u64::MAX / 2 + 1), u64::MAX);
        assert_eq!(lifetime(300_000), 600_000);
        let mut seen = SeenSet::default();
        for t in 0..100 {
            seen.advance(SimTime(t * 1_000_000), lifetime(0));
            seen.insert(Key(1), t);
        }
        assert_eq!(seen.len(), 100);
        assert!(!seen.insert(Key(1), 0));
    }

    /// Every verdict a never-pruned set gives, as long as each frame's
    /// copies fall inside one lifetime of its first — and a bounded
    /// population while doing it.
    #[test]
    fn matches_a_never_pruned_set_inside_the_lifetime() {
        for seed in [8u64, 27] {
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut seen = SeenSet::default();
            let mut oracle: HashSet<(Key, u64)> = HashSet::new();
            // (first sighting time, frame) of frames that may still repeat.
            let mut live: Vec<(u64, (Key, u64))> = Vec::new();
            let mut next_id = [0u64; 4];
            let mut now = 0u64;
            let mut peak = 0usize;
            for _ in 0..50_000 {
                now += rng.range_inclusive(0, 40);
                seen.advance(SimTime(now), L);
                live.retain(|&(first, _)| now - first < L);
                let frame = if !live.is_empty() && rng.chance(0.4) {
                    live[rng.range_inclusive(0, live.len() as u64 - 1) as usize].1
                } else {
                    let s = rng.range_inclusive(0, 3) as usize;
                    next_id[s] += 1;
                    let frame = (Key(100 + s as u64), next_id[s] - 1);
                    live.push((now, frame));
                    frame
                };
                assert_eq!(
                    seen.contains(frame.0, frame.1),
                    oracle.contains(&frame),
                    "seed {seed} t={now} {frame:?}"
                );
                assert_eq!(
                    seen.insert(frame.0, frame.1),
                    oracle.insert(frame),
                    "seed {seed} t={now} {frame:?}"
                );
                peak = peak.max(seen.len());
            }
            // ~1 new frame per 33 ticks: two lifetimes hold ~60 of the
            // ~30 000 the oracle has kept.
            assert!(oracle.len() > 25_000);
            assert!(peak < 200, "seed {seed}: peak occupancy {peak}");
        }
    }
}
