//! Differential test: the calendar/bucket [`EventQueue`] against the
//! [`BinaryHeapQueue`] reference model.
//!
//! Both queues promise the same contract — pop in `(time, seq)` order,
//! FIFO among equal timestamps — so over any interleaving of schedules
//! and pops their outputs must be *identical*. Seeded random workloads
//! drive both through the same operation sequence and compare every
//! popped `(time, event)` pair (event ids are unique, so equality of
//! the pairs pins the seq order too).

use bristle_core::time::SimTime;
use bristle_netsim::rng::Pcg64;
use bristle_sim::engine::{BinaryHeapQueue, EventQueue, WHEEL_SLOTS};

/// Drives both queues through one seeded schedule/pop interleaving and
/// asserts identical pop streams. `max_delay` controls how far ahead of
/// `now` schedules land (spanning the wheel/overflow boundary when
/// larger than `WHEEL_SLOTS`).
fn differential_run(seed: u64, ops: usize, max_delay: u64) {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut bucket: EventQueue<u64> = EventQueue::new();
    let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut next_id = 0u64;
    let mut pops = 0u64;
    for step in 0..ops {
        // Bias toward schedules early, drain later, with same-time
        // bursts to exercise the FIFO tie-break.
        let scheduling = rng.below(100) < if step < ops / 2 { 65 } else { 35 };
        if scheduling {
            let delay = rng.below(max_delay + 1);
            let burst = 1 + rng.below(4);
            let at = SimTime(bucket.now().0 + delay);
            for _ in 0..burst {
                bucket.schedule_at(at, next_id);
                heap.schedule_at(at, next_id);
                next_id += 1;
            }
        } else {
            assert_eq!(
                bucket.peek_time(),
                heap.peek_time(),
                "peek diverged (seed {seed}, step {step})"
            );
            let b = bucket.pop();
            let h = heap.pop();
            assert_eq!(b, h, "pop diverged (seed {seed}, step {step}, pop {pops})");
            assert_eq!(bucket.len(), heap.len(), "len diverged (seed {seed}, step {step})");
            if b.is_some() {
                pops += 1;
            }
        }
    }
    // Drain both completely: the tails must agree too.
    loop {
        let b = bucket.pop();
        let h = heap.pop();
        assert_eq!(b, h, "drain diverged (seed {seed}, pop {pops})");
        if b.is_none() {
            break;
        }
        pops += 1;
    }
    assert!(bucket.is_empty() && heap.is_empty());
    assert!(pops > 0, "workload must actually pop something (seed {seed})");
}

#[test]
fn identical_pop_order_within_the_wheel() {
    for seed in 0..8 {
        differential_run(seed, 4000, (WHEEL_SLOTS as u64) / 2);
    }
}

#[test]
fn identical_pop_order_across_the_overflow_boundary() {
    for seed in 100..108 {
        differential_run(seed, 4000, (WHEEL_SLOTS as u64) * 3);
    }
}

#[test]
fn identical_pop_order_under_same_tick_storms() {
    // Everything lands within a couple of ticks of now: the tie-break
    // (seq FIFO) carries nearly the whole ordering.
    for seed in 200..208 {
        differential_run(seed, 4000, 2);
    }
}

#[test]
fn identical_pop_order_with_sparse_far_horizons() {
    // Mostly-empty wheel with rare far-future events: exercises repeated
    // re-basing over long empty spans.
    for seed in 300..304 {
        differential_run(seed, 1500, (WHEEL_SLOTS as u64) * 40);
    }
}

#[test]
fn identical_pop_order_with_sparse_ticks_across_occupancy_words() {
    // A few events per hundred ticks, so nearly every pop has to jump
    // over empty buckets: one every 61 ticks (coprime to 64, so the live
    // bit visits every position of a word) plus both edge bits of every
    // 64-bucket word, over four windows — three of them start in the
    // overflow and come in by re-basing.
    let w = WHEEL_SLOTS as u64;
    let mut times: Vec<u64> = (0..4 * w).step_by(61).collect();
    for word_start in (0..4 * w).step_by(64) {
        times.extend([word_start, word_start + 63]);
    }
    let mut bucket: EventQueue<u64> = EventQueue::new();
    let mut heap: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
    let mut next_id = 0u64;
    let mut schedule = |bucket: &mut EventQueue<u64>, heap: &mut BinaryHeapQueue<u64>, at: u64| {
        bucket.schedule_at(SimTime(at), next_id);
        heap.schedule_at(SimTime(at), next_id);
        next_id += 1;
    };
    for &t in &times {
        schedule(&mut bucket, &mut heap, t);
    }
    let originals = times.len() as u64;
    let mut pops = 0usize;
    loop {
        assert_eq!(bucket.peek_time(), heap.peek_time(), "peek diverged at pop {pops}");
        let (b, h) = (bucket.pop(), heap.pop());
        assert_eq!(b, h, "pop diverged at pop {pops}");
        let Some((now, id)) = b else { break };
        pops += 1;
        // Every third original event schedules follow-ups: into the bucket
        // just popped empty, into the next word, and past the window.
        if id < originals && id % 3 == 0 {
            for delay in [0, 64, w + 1] {
                schedule(&mut bucket, &mut heap, now.0 + delay);
            }
        }
        assert_eq!(bucket.len(), heap.len(), "len diverged at pop {pops}");
    }
    assert!(bucket.is_empty() && heap.is_empty());
    assert!(pops > times.len(), "follow-ups must have popped too");
}
