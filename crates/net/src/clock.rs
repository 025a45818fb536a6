//! Wall-clock → [`SimTime`] adapter.
//!
//! The machines in `bristle-proto` never read a clock; every `poll`
//! takes `now` as an argument. The simulator hands them its micro-clock
//! directly. This adapter gives the socket driver the same currency:
//! real elapsed time quantized into ticks, plus a forward-only skew so
//! the driver can *fast-forward* to the next wake instead of sleeping
//! through it — a wake fires only what is due by the `now` it is handed,
//! and one whose deadlines were met fires nothing, so jumping a quiet
//! network ahead to the next wake is observationally equivalent to
//! waiting it out.

use std::time::{Duration, Instant};

use bristle_core::time::SimTime;

/// A monotone [`SimTime`] source backed by [`Instant`].
///
/// `now()` returns `origin + elapsed/tick + skew`: wall time quantized
/// to the tick length, displaced by every [`WallClock::advance_to`]
/// fast-forward so far. The result never moves backwards — quantized
/// elapsed time is monotone and skew only grows.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
    tick: Duration,
    /// Ticks added by fast-forwards (plus the starting offset).
    skew: u64,
}

impl WallClock {
    /// A clock reading `origin` now, counting one tick per `tick` of
    /// real time. A zero tick is rejected (it would divide by zero).
    pub fn new(origin: SimTime, tick: Duration) -> Self {
        assert!(!tick.is_zero(), "tick length must be positive");
        WallClock { start: Instant::now(), tick, skew: origin.0 }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        let elapsed = self.start.elapsed().as_nanos() / self.tick.as_nanos().max(1);
        SimTime(self.skew.saturating_add(elapsed as u64))
    }

    /// Fast-forwards so that `now()` reads at least `target`. A target
    /// already in the past is a no-op — the clock never runs backwards.
    pub fn advance_to(&mut self, target: SimTime) {
        let now = self.now();
        if target > now {
            self.skew += target.0 - now.0;
        }
    }

    /// The tick length (real time per virtual tick).
    pub fn tick(&self) -> Duration {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_origin_and_moves_forward() {
        let c = WallClock::new(SimTime(100), Duration::from_secs(3600));
        // With an hour-long tick, no wall time passes in a test.
        assert_eq!(c.now(), SimTime(100));
        let a = c.now();
        let b = c.now();
        assert!(b >= a, "monotone");
    }

    #[test]
    fn advance_to_fast_forwards() {
        let mut c = WallClock::new(SimTime::ZERO, Duration::from_secs(3600));
        c.advance_to(SimTime(20_000));
        assert!(c.now() >= SimTime(20_000));
    }

    #[test]
    fn advance_to_the_past_is_a_no_op() {
        let mut c = WallClock::new(SimTime(50), Duration::from_secs(3600));
        c.advance_to(SimTime(10));
        assert_eq!(c.now(), SimTime(50));
    }

    #[test]
    fn real_time_becomes_ticks() {
        let c = WallClock::new(SimTime::ZERO, Duration::from_micros(50));
        std::thread::sleep(Duration::from_millis(2));
        // 2 ms at 50 µs/tick is 40 ticks; scheduling slop only adds.
        assert!(c.now() >= SimTime(40), "elapsed wall time must register");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tick_rejected() {
        let _ = WallClock::new(SimTime::ZERO, Duration::ZERO);
    }
}
