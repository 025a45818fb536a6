//! What a machine at rest owns on the heap: nothing; what one that has
//! heard from a lone source owns: no table; and what a probe nobody
//! answered leaves behind once its peer is let go: nothing.
//!
//! A driver holds one machine per node for the whole run, most of them
//! idle at any moment, so every table a machine fills while it works —
//! its open exchanges, its dedup generations, its monitored peers —
//! must hand its memory back once it empties. This binary's counting
//! allocator sees every allocation the process makes; it counts per
//! thread, so what the test harness and the other test allocate beside
//! a test are not charged to its machines.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bristle_core::time::SimTime;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_proto::machine::{Event, Frame, ProtoMachine, RetryPolicy};
use bristle_proto::testenv::MockEnv;
use bristle_proto::wire::{Envelope, WireAddr, WireMessage};

thread_local! {
    /// Bytes this thread has allocated and not freed. Per thread, so the
    /// test harness's own thread, which allocates while the test runs,
    /// does not count; the test allocates and frees on its own thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Adds `bytes` to this thread's count, if the thread still has one.
fn count(bytes: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged, with the
// caller's own pointer and layout; the counter does not touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as it came.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller vouches for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

const A: Key = Key(10);
const B: Key = Key(20);
const M: Key = Key(30);
const MACHINES: u64 = 1_000;

fn policy() -> RetryPolicy {
    RetryPolicy { ack_timeout: 100, discovery_timeout: 1000, max_attempts: 3 }
}

/// `A` with a stationary peer `B`, its discovery entry point, and a
/// mobile peer `M` it holds a valid belief about.
fn world() -> MockEnv {
    let mut env =
        MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(M, 3, 9).mobile(M);
    env.mobile_hops.insert((A, B), B);
    env.mobile_hops.insert((A, M), M);
    env.entries.insert(A, B);
    env.believed.insert((A, M), env.addrs[&M]);
    env
}

/// `msg` from `src` to `A`, sent under `msg_id`.
fn to_a(env: &MockEnv, src: Key, msg_id: u64, msg: WireMessage) -> Event {
    let (to_addr, from_addr) = (env.addrs[&A], env.addrs[&src]);
    let env = Envelope { src, dst: A, msg_id, trace_id: 0, msg, auth: None };
    Event::Arrive(Frame { to_addr, from_addr, env })
}

/// The ack that closes the exchange `sent` opened, sent back from where
/// `sent` went to where it came from.
fn ack_of(sent: &Frame) -> Event {
    let acked = sent.env.msg_id;
    let msg = match sent.env.msg {
        WireMessage::RouteHop { .. } => WireMessage::HopAck { acked },
        WireMessage::Register { .. } => WireMessage::RegisterAck { acked },
        ref other => panic!("{other:?} opens no exchange"),
    };
    let env = Envelope { src: sent.env.dst, dst: A, msg_id: 0, trace_id: 0, msg, auth: None };
    Event::Arrive(Frame { to_addr: sent.from_addr, from_addr: sent.to_addr, env })
}

/// One machine's working life: every way an exchange closes, a frame
/// taken in once, and peers monitored and let go. Ends at tick 9 500
/// with nothing in flight.
fn work(m: &mut ProtoMachine, env: &mut MockEnv) {
    let t = SimTime;
    // A hop, acked.
    let (_, out) = m.start_route(t(0), env, B);
    m.poll(t(10), ack_of(&out.outgoing[0]), env);
    // A register whose ladder runs out, each deadline met by a wake.
    assert_eq!(m.start_register(t(100), env, M, 4).wake, Some(t(200)));
    for at in [200, 400, 800] {
        m.poll(t(at), Event::Wake, env);
    }
    // A discovery answered, then one timed out; each resumes its hop.
    for answered in [true, false] {
        env.believed.remove(&(A, M));
        let (_, out) = m.start_route(t(1000), env, M);
        let WireMessage::Discovery { session, .. } = out.outgoing[0].env.msg else {
            panic!("expected a discovery, got {:?}", out.outgoing[0].env.msg)
        };
        let out = if answered {
            let addr = Some(env.addrs[&M]);
            m.poll(
                t(1050),
                to_a(env, B, 0, WireMessage::DiscoveryReply { subject: M, session, addr }),
                env,
            )
        } else {
            m.poll(t(2000), Event::Wake, env);
            m.poll(t(4000), Event::Wake, env);
            m.poll(t(8000), Event::Wake, env)
        };
        m.poll(t(9000), ack_of(&out.outgoing[0]), env);
    }
    // An update taken in: applied once, its sighting held for dedup.
    let addr = WireAddr { host: 2, router: 5, epoch: 0 };
    m.poll(
        t(9500),
        to_a(env, B, 7, WireMessage::Update { subject: B, addr, seq: 1, floor: 7 }),
        env,
    );
    assert_eq!(m.seen_held(), 1);
    m.set_monitored(&[B, M]);
    m.set_monitored(&[]);
    assert_eq!(m.inflight(), 0);
}

/// Heap bytes held now beyond `before`.
fn held_since(before: isize) -> isize {
    LIVE.with(Cell::get) - before
}

#[test]
fn a_machine_at_rest_owns_no_heap() {
    let mut env = world();
    let slots = (MACHINES as usize * std::mem::size_of::<ProtoMachine>()) as isize;
    let before = LIVE.with(Cell::get);
    let mut machines: Vec<ProtoMachine> =
        (0..MACHINES).map(|_| ProtoMachine::new(A, policy())).collect();
    assert_eq!(held_since(before), slots, "a fresh machine owns nothing beyond its slot");

    for m in &mut machines {
        work(m, &mut env);
    }
    assert!(held_since(before) > slots, "the dedup sightings are still held");

    // Two dedup lifetimes on (the ladder 100 << 3, the lifetime twice
    // that), any event ages the generations out; a wake with nothing in
    // flight sends nothing, opens nothing and asks for no other.
    let later = SimTime(9500 + 2 * 2 * (100 << 3));
    for m in &mut machines {
        let out = m.poll(later, Event::Wake, &mut env);
        assert!(out.outgoing.is_empty() && out.wake.is_none());
        assert_eq!(m.seen_held(), 0);
    }
    // What the env logged is its own, not the machines'.
    (env.events, env.resolutions, env.updates, env.registered, env.committed) = Default::default();
    assert_eq!(held_since(before), slots, "bytes held beyond the slots");
    // Three timeouts ran each register's ladder out, three each
    // unanswered discovery's.
    assert_eq!(env.meter.count(MessageKind::Timeout), MACHINES * 6);
}

/// An `Update` about `src` from `src` to `A` under `msg_id`, its floor
/// `floor`.
fn update(env: &MockEnv, src: Key, msg_id: u64, floor: u64) -> Event {
    let addr = env.addrs[&src];
    to_a(env, src, msg_id, WireMessage::Update { subject: src, addr, seq: msg_id, floor })
}

/// Heap bytes held beyond `before` once the env has dropped what it
/// logged, which is its own, not the machine's.
fn machine_held_since(env: &mut MockEnv, before: isize) -> isize {
    (env.events, env.resolutions, env.updates, env.registered, env.committed) = Default::default();
    held_since(before)
}

/// A machine that has heard from one source keeps that source's record
/// inline in its dedup box, with no table: most machines hear a guarded
/// frame from one peer at a time. A second source grows a table; one
/// source left, by a rotation or by a floor, puts the record back
/// inline and frees the table.
#[test]
fn a_lone_dedup_source_holds_no_table() {
    const LONE: isize = 64;
    let mut env = world();
    let before = LIVE.with(Cell::get);
    let mut m = ProtoMachine::new(A, policy());
    let t = SimTime;
    // The dedup lifetime: twice the ladder, 100 << 3.
    let lifetime = 2 * (100 << 3);

    m.poll(t(0), update(&env, B, 7, 7), &mut env);
    assert_eq!(m.seen_held(), 1);
    let lone = machine_held_since(&mut env, before);
    assert!(0 < lone && lone <= LONE, "one source: {lone} B of dedup heap");

    m.poll(t(10), update(&env, M, 3, 3), &mut env);
    assert_eq!(m.seen_held(), 2);
    let table = machine_held_since(&mut env, before);
    assert!(table > lone + LONE, "a second source grows a table: {table} B");

    // One lifetime on `B` speaks again; one more, and the rotation drops
    // `M`'s sighting, leaving `B`'s newest alone.
    m.poll(t(lifetime), update(&env, B, 8, 8), &mut env);
    assert_eq!(machine_held_since(&mut env, before), table, "two sources, one table");
    m.poll(t(2 * lifetime), Event::Wake, &mut env);
    assert_eq!((m.seen_held(), m.has_processed(B, 8)), (1, true));
    assert_eq!(machine_held_since(&mut env, before), lone, "a rotation put it back inline");

    // `M` again, then a floor above its every sighting: the record goes.
    m.poll(t(2 * lifetime + 10), update(&env, M, 4, 4), &mut env);
    assert_eq!(machine_held_since(&mut env, before), table);
    m.poll(t(2 * lifetime + 20), update(&env, M, 5, u64::MAX), &mut env);
    assert_eq!((m.seen_held(), m.has_processed(M, 4)), (1, false));
    assert_eq!(machine_held_since(&mut env, before), lone, "a floor put it back inline");
    drop(m);
    assert_eq!(machine_held_since(&mut env, before), 0);
}

/// Heap bytes an adaptive machine of `A` holds once `act` is done with
/// it, beyond what it held when it was started.
fn adaptive_held_after(
    env: &mut MockEnv,
    act: impl FnOnce(&mut ProtoMachine, &mut MockEnv),
) -> isize {
    let mut m = ProtoMachine::new(A, policy());
    m.set_adaptive_rto(true);
    let before = LIVE.with(Cell::get);
    act(&mut m, env);
    machine_held_since(env, before)
}

/// A heartbeat probe lives in its peer's entry of the failure detector
/// and nowhere else, on adaptive timers too. A machine that sent a
/// probe nobody answered and then monitors nobody holds only what a
/// machine whose one exchange with the same peer closed holds: the
/// estimator its first wait drew from.
#[test]
fn an_unanswered_probe_leaves_nothing_once_its_peer_is_let_go() {
    let mut env = world();
    let probed = adaptive_held_after(&mut env, |m, env| {
        m.set_monitored(&[B]);
        let out = m.start_heartbeats(SimTime(0), env);
        assert!(matches!(out.outgoing[0].env.msg, WireMessage::Heartbeat { seq: 0, .. }));
        m.set_monitored(&[]);
    });
    let exchanged = adaptive_held_after(&mut env, |m, env| {
        let (_, out) = m.start_route(SimTime(0), env, B);
        m.poll(SimTime(10), ack_of(&out.outgoing[0]), env);
        assert_eq!(m.inflight(), 0);
    });
    assert!(exchanged > 0, "B's estimator");
    assert_eq!(probed, exchanged, "heap bytes beyond B's estimator");
}
