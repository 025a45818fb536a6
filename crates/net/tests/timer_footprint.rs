//! What a pending retry timer costs the socket driver in heap bytes.
//!
//! A retry timer is never cancelled, and the ack wait is 20 000 ticks,
//! so a driver routing steadily holds arm rate × wait timers, most of
//! them stale. This binary holds one test because its counting
//! allocator sees every allocation the process makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

use bristle_core::time::SimTime;
use bristle_net::{SocketDriver, WallClock};
use bristle_overlay::key::Key;
use bristle_overlay::obs::Counter;
use bristle_proto::machine::{Output, ProtoMachine, RetryPolicy, Timer, TimerKind};
use bristle_proto::testenv::MockEnv;

/// Bytes the process holds on the heap. `Relaxed`: a statistic, it
/// publishes no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged, with the
// caller's own pointer and layout; the counter does not touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as it came.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller vouches for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// The default ack wait: how far ahead of `now` a retry timer lands.
const WAIT: u64 = 20_000;

/// Arms `timers` on `from` and returns the heap bytes each one still
/// holds after the arming `Output` is gone.
fn bytes_per_timer(d: &mut SocketDriver, env: &mut MockEnv, from: Key, timers: &[Timer]) -> f64 {
    let before = LIVE.load(Relaxed);
    let out = Output { timers: timers.to_vec(), ..Output::none() };
    d.dispatch(from, out, env).expect("bound node");
    (LIVE.load(Relaxed) - before) as f64 / timers.len() as f64
}

#[test]
fn a_pending_timer_costs_at_most_a_deque_slot() {
    let (a, b) = (Key(1), Key(2));
    let mut env = MockEnv::default().with_node(a, 1, 1).with_node(b, 2, 2);
    // An hour a tick: only fast-forwards move this clock.
    let mut d = SocketDriver::new(WallClock::new(SimTime::ZERO, Duration::from_secs(3600)));
    d.set_grace(Duration::ZERO);
    for key in [a, b] {
        let machine = ProtoMachine::new(key, RetryPolicy::default());
        d.bind_node(key, env.addrs[&key], machine).expect("loopback socket binds");
    }
    let now = d.now();
    let timer =
        |i: u64, at: u64| Timer { at: now.plus(at), kind: TimerKind::HopRetry { msg_id: i } };
    // Dense: `udp-route-256`'s window, 150 timers a tick one wait ahead.
    let dense: Vec<Timer> = (0..54_000).map(|i| timer(i, WAIT + i / 150)).collect();
    let dense_bytes = bytes_per_timer(&mut d, &mut env, a, &dense);
    // A (deadline, seq) tree entry is ≈ 93 B; a shared tick's deque slot
    // 52–56 B.
    assert!(dense_bytes <= 64.0, "{dense_bytes:.1} B per timer, 150 a tick");
    // Sparse: one timer a tick, beyond the dense span.
    let sparse: Vec<Timer> = (0..20_000).map(|i| timer(i, 2 * WAIT + i)).collect();
    d.dispatch(b, Output { timers: sparse, ..Output::none() }, &mut env).expect("bound node");

    assert_eq!(d.next_timer(), Some(now.plus(WAIT)));
    let fired = d.run_until_quiet(&mut env, 100_000).expect("stale timers converge");
    assert_eq!(fired, 74_000, "every timer fires exactly once");
    assert_eq!(d.next_timer(), None);
    // One skip per distinct deadline: 360 dense ticks, 20 000 sparse.
    assert_eq!(d.registry().counter(Counter::FastForwards), 360 + 20_000);
}
