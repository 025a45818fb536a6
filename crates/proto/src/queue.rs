//! The future-event list both drivers keep: the simulator's holds
//! deliveries, moves, partitions and timers, the socket driver's timers.
//!
//! [`EventQueue`] is a **calendar (bucket) queue**: a wheel of
//! [`WHEEL_SLOTS`] one-tick buckets over `[base, base + WHEEL_SLOTS)`,
//! with a `BTreeMap` overflow beyond it. Scheduling into the window and
//! popping are O(1) amortized — no heap sift — and an occupancy bitmap
//! lets the scan for the next live bucket skip empty ticks a word at a
//! time. When the wheel empties, the window re-bases onto the earliest
//! overflow time and migrates that span's deques wholesale. A bucket is
//! exactly one tick and migration only fills an empty wheel, so every
//! bucket's push order is sequence order: pops follow `(time, seq)` as
//! a binary heap's do, and the simulator's differential test holds its
//! binary-heap reference model to the same pop sequences.

use std::collections::{BTreeMap, VecDeque};

use bristle_core::time::SimTime;

/// Width of the calendar wheel: how many consecutive ticks the O(1)
/// window covers. Events farther out wait in the overflow tree.
pub const WHEEL_SLOTS: usize = 1024;
const _: () = assert!(WHEEL_SLOTS.is_multiple_of(64), "the occupancy map is whole words");

/// A future-event list over event payloads of type `E`.
///
/// # Examples
///
/// ```
/// use bristle_core::time::SimTime;
/// use bristle_proto::queue::EventQueue;
///
/// let mut queue: EventQueue<&str> = EventQueue::new();
/// queue.schedule_at(SimTime(5), "later");
/// queue.schedule_at(SimTime(1), "sooner");
///
/// let mut seen = Vec::new();
/// while let Some((t, e)) = queue.pop() {
///     seen.push((t, e));
///     if e == "sooner" {
///         queue.schedule_in(1, "follow-up"); // relative to the popped time
///     }
/// }
/// assert_eq!(seen, [(SimTime(1), "sooner"), (SimTime(2), "follow-up"), (SimTime(5), "later")]);
/// ```
pub struct EventQueue<E> {
    /// Per-tick buckets for times in `[base, base + WHEEL_SLOTS)`;
    /// bucket `i` holds exactly the events at time `base + i`, in
    /// schedule (sequence) order.
    wheel: Vec<VecDeque<E>>,
    /// Time of bucket 0. Invariant: `base <= now` between calls — the
    /// window only re-bases inside [`Self::pop`], which immediately
    /// advances `now` to the new base.
    base: u64,
    /// Bit `i` is set iff bucket `i` is non-empty: set by a push or a
    /// migration into the bucket, cleared by the pop that empties it.
    occupied: [u64; WHEEL_SLOTS / 64],
    /// First wheel bucket that may be non-empty; buckets before it are
    /// empty. Scheduling into an earlier bucket rewinds it.
    cursor: usize,
    /// Events at times `>= base + WHEEL_SLOTS`, keyed by time; each
    /// deque is in sequence order.
    overflow: BTreeMap<u64, VecDeque<E>>,
    pending: usize,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        let mut wheel = Vec::with_capacity(WHEEL_SLOTS);
        wheel.resize_with(WHEEL_SLOTS, VecDeque::new);
        EventQueue {
            wheel,
            base: 0,
            occupied: [0; WHEEL_SLOTS / 64],
            cursor: 0,
            overflow: BTreeMap::new(),
            pending: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past ({at} < {})", self.now);
        self.pending += 1;
        let offset = at.0 - self.base; // at >= now >= base
        if offset < WHEEL_SLOTS as u64 {
            let slot = offset as usize;
            let bucket = &mut self.wheel[slot];
            if bucket.is_empty() {
                self.occupied[slot / 64] |= 1 << (slot % 64);
            }
            bucket.push_back(event);
            if slot < self.cursor {
                self.cursor = slot;
            }
        } else {
            self.overflow.entry(at.0).or_default().push_back(event);
        }
    }

    /// Schedules `event` `delay` ticks after the current time.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule_at(self.now.plus(delay), event);
    }

    /// Advances the cursor to the first non-empty bucket and returns it,
    /// or `None` (cursor past the wheel) when the wheel is empty. Buckets
    /// before the cursor are empty, so the cursor's own word needs no
    /// masking, and `trailing_zeros` skips the empty ticks inside a word.
    fn first_live_bucket(&mut self) -> Option<usize> {
        // A deep queue pops many events a tick: the cursor's own bucket
        // is usually still live, and pop is about to touch it anyway.
        if self.cursor < WHEEL_SLOTS && !self.wheel[self.cursor].is_empty() {
            return Some(self.cursor);
        }
        for word in self.cursor / 64..WHEEL_SLOTS / 64 {
            if self.occupied[word] != 0 {
                self.cursor = word * 64 + self.occupied[word].trailing_zeros() as usize;
                return Some(self.cursor);
            }
        }
        self.cursor = WHEEL_SLOTS;
        None
    }

    /// The time of the earliest pending event, without popping it or
    /// advancing the clock. (`&mut` only to memoize the bucket scan.)
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(slot) = self.first_live_bucket() {
            // Overflow times are all >= base + WHEEL_SLOTS, so a
            // non-empty wheel always holds the minimum.
            return Some(SimTime(self.base + slot as u64));
        }
        self.overflow.keys().next().map(|&t| SimTime(t))
    }

    /// Pops the earliest event, advancing the queue's clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some(slot) = self.first_live_bucket() {
                let t = SimTime(self.base + slot as u64);
                let bucket = &mut self.wheel[slot];
                let event = bucket.pop_front().expect("occupied bit on an empty bucket");
                if bucket.is_empty() {
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
                self.pending -= 1;
                self.now = t;
                return Some((t, event));
            }
            // Wheel drained: re-base the window on the earliest overflow
            // time and migrate its span in, deque by deque (no per-event
            // work). The next iteration pops at the new base, so the
            // `base <= now` invariant is restored before control returns.
            let &t0 = self.overflow.keys().next()?;
            self.base = t0;
            self.cursor = 0;
            let tail = self.overflow.split_off(&t0.saturating_add(WHEEL_SLOTS as u64));
            let migrate = std::mem::replace(&mut self.overflow, tail);
            for (t, dq) in migrate {
                let slot = (t - t0) as usize;
                debug_assert!(slot < WHEEL_SLOTS && self.wheel[slot].is_empty());
                self.wheel[slot] = dq;
                self.occupied[slot / 64] |= 1 << (slot % 64);
            }
        }
    }

    /// [`Self::pop`], if the earliest event is due at or before `limit`.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.peek_time().filter(|&t| t <= limit)?;
        self.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Every pending event, in no particular order (test support).
    #[doc(hidden)]
    pub fn pending_events(&self) -> impl Iterator<Item = &E> {
        self.wheel.iter().chain(self.overflow.values()).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), "b");
        q.schedule_at(SimTime(1), "a");
        q.schedule_at(SimTime(9), "c");
        assert_eq!(q.pop().unwrap(), (SimTime(1), "a"));
        assert_eq!(q.pop().unwrap(), (SimTime(5), "b"));
        assert_eq!(q.now(), SimTime(5));
        assert_eq!(q.pop().unwrap(), (SimTime(9), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(SimTime(3), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), "first");
        q.pop();
        q.schedule_in(5, "second");
        assert_eq!(q.pop().unwrap().0, SimTime(15));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn events_beyond_the_wheel_overflow_and_return() {
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        q.schedule_at(SimTime(far), "far");
        q.schedule_at(SimTime(2), "near");
        q.schedule_at(SimTime(far), "far2");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap(), (SimTime(2), "near"));
        assert_eq!(q.pop().unwrap(), (SimTime(far), "far"), "re-based onto the overflow");
        assert_eq!(q.pop().unwrap(), (SimTime(far), "far2"), "FIFO survives migration");
        assert!(q.is_empty());
        // The window followed the pops: scheduling just after `far` is
        // an O(1) wheel insert and still pops correctly.
        q.schedule_at(SimTime(far + 5), "tail");
        assert_eq!(q.pop().unwrap(), (SimTime(far + 5), "tail"));
    }

    #[test]
    fn fifo_across_wheel_and_overflow_boundary() {
        let mut q = EventQueue::new();
        let t = WHEEL_SLOTS as u64 + 100; // starts in overflow
        for i in 0..5 {
            q.schedule_at(SimTime(t), i);
        }
        // Drain a nearer event so the wheel re-bases onto `t`...
        q.schedule_at(SimTime(1), 100);
        assert_eq!(q.pop().unwrap().1, 100);
        // ...then schedule more at the same time, now inside the wheel.
        assert_eq!(q.pop().unwrap(), (SimTime(t), 0));
        for i in 5..8 {
            q.schedule_at(SimTime(t), i);
        }
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![1, 2, 3, 4, 5, 6, 7], "earlier seqs pop first");
    }

    #[test]
    fn peek_time_does_not_advance_the_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(42), ());
        assert_eq!(q.peek_time(), Some(SimTime(42)));
        assert_eq!(q.now(), SimTime::ZERO, "peek must not move now");
        assert_eq!(q.len(), 1, "peek must not pop");
        // Scheduling earlier than a previous peek's scan still works.
        q.schedule_at(SimTime(3), ());
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.pop().unwrap().0, SimTime(3));
        assert_eq!(q.pop().unwrap().0, SimTime(42));
        assert_eq!(q.peek_time(), None);
    }
}
