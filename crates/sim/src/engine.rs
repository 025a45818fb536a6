//! Discrete-event simulation engine.
//!
//! A minimal but complete scheduler over virtual time: events fire in
//! timestamp order (FIFO among equal timestamps), handlers may schedule
//! further events, and the run can be bounded by time and/or event
//! count. Dynamic scenarios (Table 1: movement, churn, failures, lease
//! expiry) are driven through this engine: [`run`] over the calendar
//! [`EventQueue`] of `bristle_proto::queue`, and [`BinaryHeapQueue`],
//! the reference model a differential test holds that queue to.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bristle_core::time::SimTime;
pub use bristle_proto::queue::{EventQueue, WHEEL_SLOTS};

/// A scheduled entry: time, tie-breaking sequence number, payload.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The original binary-heap future-event list, kept as the reference
/// model for the calendar queue: same API, same `(time, seq)` FIFO
/// contract, O(log n) per operation. The differential test in
/// `tests/queue_differential.rs` holds [`EventQueue`] to this
/// implementation's exact pop order; the `scale` bin uses it as the
/// events/sec baseline.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        BinaryHeapQueue { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO }
    }
}

impl<E> BinaryHeapQueue<E> {
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { time: at, seq, event }));
    }

    /// Schedules `event` `delay` ticks after the current time.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule_at(self.now.plus(delay), event);
    }

    /// The time of the earliest pending event, without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.time)
    }

    /// Pops the earliest event, advancing the queue's clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(s)| {
            self.now = s.time;
            (s.time, s.event)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Runs the queue until it empties, `horizon` passes, or `max_events`
/// fire. The handler receives the current time and event and may push
/// follow-ups through the queue it is handed. Returns events processed.
///
/// An event beyond the horizon **stays queued** (and the clock stays
/// put): a later `run` with a larger horizon picks it up exactly where
/// it was scheduled.
pub fn run<E>(
    queue: &mut EventQueue<E>,
    horizon: SimTime,
    max_events: u64,
    mut handler: impl FnMut(&mut EventQueue<E>, SimTime, E),
) -> u64 {
    let mut processed = 0u64;
    while processed < max_events {
        let Some((t, e)) = queue.pop_due(horizon) else { break };
        handler(queue, t, e);
        processed += 1;
    }
    processed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_honors_horizon() {
        let mut q = EventQueue::new();
        for t in [1u64, 2, 3, 50, 60] {
            q.schedule_at(SimTime(t), t);
        }
        let mut seen = Vec::new();
        let n = run(&mut q, SimTime(10), u64::MAX, |_, _, e| seen.push(e));
        assert_eq!(n, 3);
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn horizon_break_leaves_future_events_queued() {
        // Regression: the old loop popped the first past-horizon event
        // before checking, silently dropping it (and advancing the
        // clock). Both events must survive and fire on a later run.
        let mut q = EventQueue::new();
        for t in [1u64, 2, 3, 50, 60] {
            q.schedule_at(SimTime(t), t);
        }
        run(&mut q, SimTime(10), u64::MAX, |_, _, _| {});
        assert_eq!(q.len(), 2, "past-horizon events stay queued");
        assert_eq!(q.now(), SimTime(3), "clock stops at the last in-horizon event");
        let mut later = Vec::new();
        let n = run(&mut q, SimTime(100), u64::MAX, |_, t, e| later.push((t, e)));
        assert_eq!(n, 2);
        assert_eq!(later, vec![(SimTime(50), 50), (SimTime(60), 60)]);
    }

    #[test]
    fn run_honors_event_cap() {
        let mut q = EventQueue::new();
        for t in 0..100u64 {
            q.schedule_at(SimTime(t), ());
        }
        let n = run(&mut q, SimTime(1000), 7, |_, _, _| {});
        assert_eq!(n, 7);
        assert_eq!(q.len(), 93);
    }

    #[test]
    fn handler_can_reschedule() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(0), 0u32);
        let mut count = 0;
        run(&mut q, SimTime(100), u64::MAX, |q, _, gen| {
            count += 1;
            if gen < 5 {
                q.schedule_in(10, gen + 1);
            }
        });
        assert_eq!(count, 6, "chain of self-scheduled events");
    }
}
