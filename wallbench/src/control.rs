//! The control: a fixed kernel that shares no code with the program
//! under test, timed beside every repetition of a run.
//!
//! This host's speed drifts — the same binary on the same inputs runs
//! anywhere from 1.0× to 1.4× its best time, for minutes at a stretch —
//! and nothing inside one run can tell a slow host from a slow program.
//! The control can: no change to the repository moves it, so when it ran
//! slower in one result file than in the other, the host changed between
//! them. `agree` discounts that shift before it calls a timing
//! `regressed`, and says `unresolved` where only the shift explains the
//! difference. The control never touches a reported metric.
//!
//! The kernel is half dependent loads over a table larger than the
//! cache (the overlay's table walks) and half dependent arithmetic (its
//! hashing), about 50 ms a run. The table is built afresh for every
//! sample: on this host one that has sat idle through a window reads a
//! quarter slower than a new one (65 ms against 82 ms, every time), so
//! a table kept across repetitions made the first sample incomparable
//! with the rest.

use std::time::Instant;

/// Table slots (`u32` each: 16 MiB, four times this host's L2).
const SLOTS: usize = 1 << 22;
/// Dependent loads per sample.
const CHASE_STEPS: usize = 250_000;
/// Dependent multiply-xorshift rounds per sample.
const ARITH_STEPS: usize = 16_000_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

pub struct Control {
    /// One random cycle through every slot.
    next: Vec<u32>,
}

impl Control {
    pub fn new() -> Control {
        // Sattolo's shuffle: a permutation that is a single cycle, so a
        // chase never settles into a short, cache-resident loop.
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..SLOTS).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        Control { next }
    }

    /// Runs the kernel once; milliseconds it took.
    pub fn sample_ms(&self) -> f64 {
        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        let mut x = u64::from(at) | 1;
        for _ in 0..ARITH_STEPS {
            x = xorshift(x);
        }
        std::hint::black_box(x);
        t.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_through_every_slot() {
        let c = Control::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, SLOTS);
    }
}
