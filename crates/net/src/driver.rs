//! The poll loop: sans-I/O machines over nonblocking UDP sockets.
//!
//! One [`UdpSocket`] per node, bound to loopback; a datagram is exactly
//! one [`Frame::encode`]: a 32-byte address header (where the frame was
//! sent to, where its sender was) followed by the envelope's own bytes.
//! The driver owns the machines and their wakes but *not* the world
//! model — every call takes a `&mut dyn NodeEnv`, the same window the
//! simulator's driver hands its machines, which is what makes the two
//! backends meter-identical: the machines cannot tell which one is
//! driving them. Neither driver decides anything about addresses: a
//! frame goes to the socket of the host it names, and the machine
//! behind it rejects it if it was sent to an address that host no
//! longer holds, as it does in the simulator. Neither records which
//! frames were processed: a frame a wake sent is a spurious retry when
//! the destination's machine says it already processed it
//! ([`ProtoMachine::has_processed`]).
//!
//! **Which sockets a pump reads.** A nonblocking `recv_from` on an empty
//! socket is a syscall all the same, so reading every socket on every
//! pump makes an operation cost O(nodes) however few datagrams it
//! moves. The driver instead keeps a *mail ledger*: every datagram
//! [`SocketDriver::dispatch`] sends goes to a socket it bound, so each
//! is counted as *owed* to its node, and the node is queued (once).
//! [`SocketDriver::pump`] then follows one rule:
//!
//! * **Mail is owed** — a busy pump. It drains the nodes queued when it
//!   was called, and one more socket chosen by a rotating cursor. A
//!   queued node's drain ticks one owed datagram off per datagram it
//!   hands the node's machine, and stops when the node is owed nothing
//!   more or its socket would block; a node whose mail has not all
//!   arrived stays queued. Work is proportional to the datagrams read,
//!   not to the population: a socket whose owed mail has all been read
//!   is not asked once more only to answer `WouldBlock`. A datagram the
//!   drain drops (oversized, undecodable, misdirected) cannot be one the
//!   driver sent, so it ticks nothing off, and owed mail behind it is
//!   read in the same drain. The cursor is for mail the driver did not
//!   send itself — a hostile datagram, a second process: it reads its
//!   socket until `WouldBlock`, and every socket is visited within
//!   `nodes` busy pumps, so none is starved however long the driver
//!   stays busy.
//! * **Nothing is owed** — the pump sweeps every socket, in bind order,
//!   each until `WouldBlock`. This is the only way foreign mail is found
//!   promptly, and it costs nothing that matters: a driver with nothing
//!   owed is waiting.
//!
//! Nodes a pump queues (a hop's reaction is a send to the next hop) are
//! read by the *next* pump, not the running one, so a pump is bounded
//! by the mail owed when it began.
//!
//! Time is the [`WallClock`] adapter's virtual ticks. A machine keeps
//! its own deadlines and reports the earliest ([`Output::wake`]); the
//! driver queues a wake for it in the calendar [`EventQueue`] unless
//! the last one it queued is still ahead and no later
//! ([`Output::wake_to_queue`]), so the queue holds a wake or two per
//! node, not one timer per send. The loop pumps sockets first and fires
//! due wakes second (an ack sitting in a kernel buffer always clears
//! its session before the deadline can fire it), sleeps at most until
//! the next wake, and — after a real-time grace window confirms the
//! network is quiet — fast-forwards the clock to it instead of waiting
//! it out. *Quiet* means a whole grace window of pumps read nothing.
//! With nothing owed those pumps are sweeps, so quiet is what it always
//! was: no socket had anything. With mail still owed they are busy
//! pumps, and the window expiring means the owed datagrams are not
//! coming (the kernel dropped them, say, on a full receive buffer):
//! they are *written off* — counted in [`Counter::WrittenOff`], the
//! ledger cleared — before the clock skips, so a lost datagram costs
//! one grace window, never a hang. A wake whose deadlines were met in
//! the meantime fires nothing in its machine, exactly as in the
//! simulator.
//!
//! The datagram boundary is hardened: a datagram longer than
//! [`MAX_FRAME`] or one that fails [`Frame::decode`] is dropped and
//! metered ([`MessageKind::MalformedFrame`]), never parsed further,
//! never panicking the loop; the machine refuses a decoded frame whose
//! sender address names no router.
//!
//! Everything the boundary counts is a [`Counter`] in the driver's
//! [`Registry`], the series list the simulator's driver keeps too:
//! [`SocketDriver::registry`] answers as
//! `MessagingBristleSystem::registry` does.

use std::collections::{HashMap, VecDeque};
use std::io::{Error, ErrorKind, Result};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bristle_core::time::SimTime;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::{Counter, Gauge, Registry};
use bristle_proto::machine::{Completion, Event, NodeEnv, Output, ProtoMachine};
use bristle_proto::queue::EventQueue;
use bristle_proto::wire::{Frame, WireAddr};

use crate::clock::WallClock;

/// Largest datagram payload the driver accepts or emits. The largest
/// honest frame, a sealed `Update`, is 122 bytes: the 32-byte header,
/// then a 90-byte envelope (a 32-byte envelope header, the tag, the
/// subject, address, sequence number and floor in 40, the sealed
/// trailer in 17). The cap keeps a hostile jumbo datagram from ever
/// reaching the codec.
pub const MAX_FRAME: usize = 256;

/// The five boundary counters the wall-clock benchmark reads, as
/// [`SocketDriver::stats`] reads them from the registry.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    // owed: ROADMAP 8(a)
    pub datagrams_sent: u64,
    pub dropped_oversized: u64,
    pub dropped_garbage: u64,
    pub stale_blackholed: u64,
    pub fast_forwards: u64,
}

/// One node: its identity, its socket and where it listens, its
/// machine, its line in the mail ledger.
struct NetNode {
    key: Key,
    socket: UdpSocket,
    endpoint: SocketAddr,
    machine: ProtoMachine,
    /// Datagrams the driver sent to this socket and has not read back.
    owed: u32,
    /// Whether the node is in [`SocketDriver::queue`] (or being drained
    /// by the running pump, which decides afterwards whether it stays).
    queued: bool,
    /// The last wake queued for its machine ([`Output::wake_to_queue`]).
    wake: SimTime,
}

/// Runs a set of [`ProtoMachine`]s over nonblocking UDP sockets.
pub struct SocketDriver {
    clock: WallClock,
    nodes: Vec<NetNode>,
    by_key: HashMap<Key, usize>,
    /// Host → index into `nodes`: where a [`WireAddr`] is delivered.
    /// Router and epoch are not read; whether an address is stale is
    /// the receiving machine's check. A move changes a host's router and
    /// epoch, never its socket, so the index is not told of one.
    by_host: HashMap<u32, usize>,
    /// Nodes the next pump reads, each at most once
    /// ([`NetNode::queued`]). Between pumps: exactly the nodes with
    /// mail owed. Empty means the next pump sweeps.
    queue: VecDeque<usize>,
    /// The node the last busy pump probed for mail nobody owed it.
    cursor: usize,
    /// Queued wakes, each a node's index, popped in (deadline, arm
    /// order).
    wakes: EventQueue<usize>,
    /// Completions surfaced by the machines, for the caller to drain.
    pub completions: Vec<Completion>,
    /// Real-time window the loop waits for in-flight datagrams before
    /// declaring the network quiet and fast-forwarding.
    grace: Duration,
    /// The boundary's counters; [`Self::registry`] adds the gauges.
    obs: Registry,
}

impl SocketDriver {
    /// A driver with no nodes, reading time from `clock`.
    pub fn new(clock: WallClock) -> Self {
        SocketDriver {
            clock,
            nodes: Vec::new(),
            by_key: HashMap::new(),
            by_host: HashMap::new(),
            queue: VecDeque::new(),
            cursor: 0,
            wakes: EventQueue::new(),
            completions: Vec::new(),
            grace: Duration::from_millis(5),
            obs: Registry::default(),
        }
    }

    /// Overrides the quiet-network grace window (default 5 ms — orders
    /// of magnitude above a loopback round trip).
    pub fn set_grace(&mut self, grace: Duration) {
        self.grace = grace;
    }

    /// Binds a loopback socket for `key`, whose overlay address is
    /// `addr`, and installs `machine` behind it. Returns the endpoint.
    /// A host bound again is delivered to its latest node.
    pub fn bind_node(
        &mut self,
        key: Key,
        addr: WireAddr,
        machine: ProtoMachine,
    ) -> Result<SocketAddr> {
        if self.by_key.contains_key(&key) {
            return Err(Error::new(ErrorKind::AddrInUse, format!("{key} already bound")));
        }
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        let endpoint = socket.local_addr()?;
        self.by_key.insert(key, self.nodes.len());
        self.by_host.insert(addr.host, self.nodes.len());
        let wake = SimTime::ZERO;
        self.nodes.push(NetNode { key, socket, endpoint, machine, owed: 0, queued: false, wake });
        Ok(endpoint)
    }

    /// A snapshot of the driver's series, its gauges read now: `seen` is
    /// every bound machine's [`ProtoMachine::seen_held`].
    pub fn registry(&self) -> Registry {
        let mut snapshot = self.obs.clone();
        let seen = self.nodes.iter().map(|n| n.machine.seen_held() as u64).sum();
        snapshot.set(Gauge::Seen, seen);
        snapshot
    }

    #[doc(hidden)]
    pub fn stats(&self) -> NetStats {
        // owed: ROADMAP 8(a)
        let c = |counter| self.obs.counter(counter);
        NetStats {
            datagrams_sent: c(Counter::FramesSent),
            dropped_oversized: c(Counter::DroppedOversized),
            dropped_garbage: c(Counter::DroppedGarbage),
            stale_blackholed: c(Counter::StaleBlackholed),
            fast_forwards: c(Counter::FastForwards),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The machine bound for `key`, for starting operations on it. The
    /// returned [`Output`] of any `start_*` call must be handed back
    /// through [`Self::dispatch`].
    pub fn machine_mut(&mut self, key: Key) -> Option<&mut ProtoMachine> {
        self.by_key.get(&key).map(|&i| &mut self.nodes[i].machine)
    }

    /// Earliest queued wake, if any.
    pub fn next_wake(&mut self) -> Option<SimTime> {
        self.wakes.peek_time()
    }

    /// How many wakes are queued: about one a bound node, since one is
    /// queued only where the last one queued does not cover it.
    pub fn pending_wakes(&self) -> usize {
        self.wakes.len()
    }

    /// Turns one machine's [`Output`] into datagrams and a queued wake,
    /// mirroring the simulator driver's dispatch step: one encoded frame
    /// per send, to the socket of the host its `to_addr` names, stale or
    /// not. Every send is entered in the mail ledger, so a later pump
    /// reads the destination's socket; a send to a host bound nowhere
    /// here is black-holed and counted in [`Counter::StaleBlackholed`].
    /// A wake is queued unless the node's last one is still ahead and no
    /// later: that one reports the later deadline again when it fires.
    /// Deadlines land at `now + wait`, and the clock never trails a
    /// fired wake, so none is in the past.
    pub fn dispatch(&mut self, from: Key, out: Output, env: &mut dyn NodeEnv) -> Result<()> {
        let Some(&from_idx) = self.by_key.get(&from) else {
            return Err(Error::new(ErrorKind::NotFound, format!("{from} is not bound")));
        };
        if let Some(at) = out.wake_to_queue(&mut self.nodes[from_idx].wake, self.clock.now()) {
            self.wakes.schedule_at(at, from_idx);
        }
        for frame in out.outgoing {
            let Some(&to_idx) = self.by_host.get(&frame.to_addr.host) else {
                self.obs.add(Counter::StaleBlackholed, 1);
                continue;
            };
            let bytes = frame.encode();
            if bytes.len() > MAX_FRAME {
                self.obs.add(Counter::DroppedOversized, 1);
                env.bump(MessageKind::MalformedFrame);
                continue;
            }
            self.nodes[from_idx].socket.send_to(&bytes, self.nodes[to_idx].endpoint)?;
            self.obs.add(Counter::FramesSent, 1);
            self.nodes[to_idx].owed += 1;
            self.enqueue(to_idx);
        }
        self.completions.extend(out.completions);
        Ok(())
    }

    /// Puts `idx` on the next pump's reading list, unless it is there.
    fn enqueue(&mut self, idx: usize) {
        if !self.nodes[idx].queued {
            self.nodes[idx].queued = true;
            self.queue.push_back(idx);
        }
    }

    /// Reads the sockets that can have mail: decodes, delivers to the
    /// hosting machine, dispatches the reactions. With mail owed that is
    /// the queued nodes plus one socket picked by the rotating cursor;
    /// with nothing owed it is every socket (see the module docs).
    /// Oversized or undecodable datagrams are dropped and metered; they
    /// never reach a machine. Returns how many datagrams were read.
    pub fn pump(&mut self, env: &mut dyn NodeEnv) -> Result<usize> {
        if self.queue.is_empty() {
            self.obs.add(Counter::Sweeps, 1);
            for idx in 0..self.nodes.len() {
                self.enqueue(idx);
            }
        } else {
            self.cursor = (self.cursor + 1) % self.nodes.len();
            self.enqueue(self.cursor);
        }
        let mut handled = 0usize;
        // Only the nodes queued by now: those the reactions queue wait
        // for the next pump, which bounds this one.
        for _ in 0..self.queue.len() {
            let Some(idx) = self.queue.pop_front() else { break };
            let drained = self.drain(idx, env);
            if self.nodes[idx].owed > 0 {
                self.queue.push_back(idx);
            } else {
                self.nodes[idx].queued = false;
            }
            handled += drained?;
        }
        Ok(handled)
    }

    /// Reads node `idx`'s socket, ticking one owed datagram off the
    /// ledger per datagram its machine is handed, until it would block —
    /// or, for a node that was owed mail, until it is owed none. Returns
    /// how many were read, dropped ones included.
    fn drain(&mut self, idx: usize, env: &mut dyn NodeEnv) -> Result<usize> {
        let mut buf = [0u8; MAX_FRAME + 1];
        let mut handled = 0usize;
        let owed = self.nodes[idx].owed > 0;
        loop {
            if owed && self.nodes[idx].owed == 0 {
                return Ok(handled);
            }
            self.obs.add(Counter::RecvCalls, 1);
            let n = match self.nodes[idx].socket.recv_from(&mut buf) {
                Ok((n, _)) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(handled),
                Err(e) => return Err(e),
            };
            handled += 1;
            self.obs.add(Counter::DatagramsReceived, 1);
            if n > MAX_FRAME {
                self.obs.add(Counter::DroppedOversized, 1);
                env.bump(MessageKind::MalformedFrame);
                continue;
            }
            let frame = match Frame::decode(&buf[..n]) {
                Ok(frame) => frame,
                Err(_) => {
                    self.obs.add(Counter::DroppedGarbage, 1);
                    env.bump(MessageKind::MalformedFrame);
                    continue;
                }
            };
            if frame.env.dst != self.nodes[idx].key {
                // Decodes, but claims a destination this socket
                // does not host: misdirected or spoofed.
                self.obs.add(Counter::DroppedGarbage, 1);
                env.bump(MessageKind::MalformedFrame);
                continue;
            }
            // Only mail fit for the machine can be mail the driver sent,
            // so only it pays off the ledger: a foreign datagram read
            // first does not end a drain the owed one is behind.
            let node = &mut self.nodes[idx];
            node.owed = node.owed.saturating_sub(1);
            let now = self.clock.now();
            let out = self.nodes[idx].machine.poll(now, Event::Arrive(frame), env);
            let key = self.nodes[idx].key;
            self.dispatch(key, out, env)?;
        }
    }

    /// Gives up on every datagram still owed: the grace window they had
    /// to arrive in has expired.
    fn write_off(&mut self) {
        for idx in self.queue.drain(..) {
            let node = &mut self.nodes[idx];
            self.obs.add(Counter::WrittenOff, u64::from(node.owed));
            node.owed = 0;
            node.queued = false;
        }
    }

    /// Fires every wake whose time has come. Returns how many fired
    /// (those whose machines found nothing due included).
    pub fn fire_due(&mut self, env: &mut dyn NodeEnv) -> Result<usize> {
        let mut fired = 0usize;
        loop {
            let now = self.clock.now();
            let Some((_, idx)) = self.wakes.pop_due(now) else { break };
            let out = self.nodes[idx].machine.poll(now, Event::Wake, env);
            self.meter_spurious(&out, env);
            let key = self.nodes[idx].key;
            self.dispatch(key, out, env)?;
            fired += 1;
        }
        Ok(fired)
    }

    /// Bumps [`MessageKind::SpuriousRetry`] for each frame of `out`, which
    /// a wake just sent, that its destination's machine already processed
    /// — exactly as the simulator's driver meters it. Only a wake
    /// retransmits, and a frame it sends fresh was never processed.
    fn meter_spurious(&self, out: &Output, env: &mut dyn NodeEnv) {
        for o in &out.outgoing {
            let processed =
                |&i: &usize| self.nodes[i].machine.has_processed(o.env.src, o.env.msg_id);
            if self.by_key.get(&o.env.dst).is_some_and(processed) {
                env.bump(MessageKind::SpuriousRetry);
            }
        }
    }

    /// Pumps and fires until the network is quiet *and* no wakes remain,
    /// fast-forwarding the clock over dead air: when a full grace window
    /// of real time passes with no datagram arriving and nothing due,
    /// mail still owed is written off and the clock jumps to the next
    /// wake (the machines cannot observe the skip — they only ever see
    /// `now` as an argument). Returns the number of datagrams plus wakes
    /// processed, or `TimedOut` once
    /// `max_events` is exceeded — the same runaway-retry backstop the
    /// simulator's event budget gives.
    pub fn run_until_quiet(&mut self, env: &mut dyn NodeEnv, max_events: u64) -> Result<u64> {
        self.run_until(env, max_events, |_| false)
    }

    /// Like [`Self::run_until_quiet`], but also stops — leaving the
    /// remaining state intact — as soon as a surfaced completion
    /// matches `found` (the completion stays in
    /// [`Self::completions`] for the caller to consume). `found` sees
    /// each completion once: those already surfaced on entry, then each
    /// new one as the loop surfaces it.
    pub fn run_until(
        &mut self,
        env: &mut dyn NodeEnv,
        max_events: u64,
        mut found: impl FnMut(&Completion) -> bool,
    ) -> Result<u64> {
        let mut events = 0u64;
        // How much of `completions` has been put to `found` already.
        let mut checked = 0usize;
        loop {
            let fresh = checked;
            checked = self.completions.len();
            if self.completions[fresh..].iter().any(&mut found) {
                return Ok(events);
            }
            let mut n = self.pump(env)? + self.fire_due(env)?;
            if n == 0 {
                // Quiet right now; in-flight bytes get a real-time grace
                // window before the clock is allowed to skip ahead.
                n = self.pump_for(env, self.grace)?;
            }
            if n > 0 {
                events += n as u64;
                if events > max_events {
                    return Err(Error::new(
                        ErrorKind::TimedOut,
                        "event budget exhausted: retry loop not converging",
                    ));
                }
                continue;
            }
            self.write_off();
            match self.next_wake() {
                Some(at) => {
                    self.clock.advance_to(at);
                    self.obs.add(Counter::FastForwards, 1);
                }
                None => return Ok(events),
            }
        }
    }

    /// Polls the sockets for up to `window` of real time, returning at
    /// the first datagram (handled, with its reactions dispatched).
    fn pump_for(&mut self, env: &mut dyn NodeEnv, window: Duration) -> Result<usize> {
        let deadline = Instant::now() + window;
        loop {
            let n = self.pump(env)?;
            if n > 0 || Instant::now() >= deadline {
                return Ok(n);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use bristle_overlay::obs::{ObsEvent, ObsEventKind};
    use bristle_proto::machine::RetryPolicy;
    use bristle_proto::testenv::MockEnv;
    use bristle_proto::wire::{Envelope, WireAuth, WireMessage};

    use Counter::{
        DatagramsReceived, DroppedGarbage, DroppedOversized, FastForwards, FramesSent, RecvCalls,
        StaleBlackholed, Sweeps, WrittenOff,
    };

    const A: Key = Key(10);
    const B: Key = Key(20);

    fn policy() -> RetryPolicy {
        RetryPolicy { ack_timeout: 100, discovery_timeout: 1000, max_attempts: 3 }
    }

    /// A driver whose grace window keeps tests quick: 1 ms virtual
    /// ticks and a 2 ms quiet window (still ≫ a loopback round trip).
    fn fast_driver() -> SocketDriver {
        let mut d = SocketDriver::new(WallClock::new(SimTime::ZERO, Duration::from_millis(1)));
        d.set_grace(Duration::from_millis(2));
        d
    }

    /// Every counter by name, for failure messages.
    fn counts(r: &Registry) -> Vec<(&'static str, u64)> {
        Counter::ALL.iter().map(|&c| (c.name(), r.counter(c))).collect()
    }

    #[test]
    fn route_over_loopback_sockets_delivers() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut d = fast_driver();
        d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        d.bind_node(B, env.addrs[&B], ProtoMachine::new(B, policy())).unwrap();
        let now = d.now();
        let (route_id, out) = d.machine_mut(A).unwrap().start_route(now, &mut env, B);
        d.dispatch(A, out, &mut env).unwrap();
        d.run_until(&mut env, 10_000, |c| {
            matches!(c, Completion::Delivered { origin, route_id: r } if *origin == A && *r == route_id)
        })
        .unwrap();
        assert!(d
            .completions
            .iter()
            .any(|c| matches!(c, Completion::Delivered { origin, .. } if *origin == A)));
        // One metered hop, acked before its deadline could fire.
        assert_eq!(env.meter.count(MessageKind::RouteHop), 1);
        assert_eq!(env.meter.count(MessageKind::SpuriousRetry), 0);
        let r = d.registry();
        assert!(r.counter(FramesSent) >= 2, "hop plus ack, got {}", r.counter(FramesSent));
        assert_eq!(r.counter(DroppedOversized) + r.counter(DroppedGarbage), 0);
    }

    /// Re-attaches `key` under the next epoch: its old address goes stale.
    fn moved(env: &mut MockEnv, key: Key) {
        let old = env.addrs[&key];
        env.addrs.insert(key, WireAddr { epoch: old.epoch + 1, ..old });
    }

    /// The frames the machines rejected as sent to an address their node
    /// no longer holds: `(node, claimed sender, msg_id)`.
    fn stale_rejects(env: &MockEnv) -> Vec<(Key, Key, u64)> {
        let rejected = |e: &ObsEvent| match e.kind {
            ObsEventKind::StaleReject { from, msg_id, .. } => Some((e.node, from, msg_id)),
            _ => None,
        };
        env.events.iter().filter_map(rejected).collect()
    }

    #[test]
    fn hostile_datagrams_are_dropped_and_metered() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.unroutable.insert(4_000_000);
        let mut d = fast_driver();
        let ep = d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        let attacker = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        // Undecodable bytes, an oversized datagram, a bare envelope with
        // no address header, a well-formed frame for a node this socket
        // does not host, and a hop whose sender address names a router
        // nobody can route to, which would draw an ack toward it.
        attacker.send_to(&[0xFF; 40], ep).unwrap();
        attacker.send_to(&[0u8; 300], ep).unwrap();
        let envelope = |dst, msg| Envelope { src: B, dst, msg_id: 7, trace_id: 0, msg, auth: None };
        let (to_addr, from_addr) = (env.addrs[&A], env.addrs[&B]);
        let bare = envelope(A, WireMessage::HopAck { acked: 1 });
        attacker.send_to(&bare.encode(), ep).unwrap();
        let misdirected =
            Frame { to_addr, from_addr, env: envelope(B, WireMessage::HopAck { acked: 1 }) };
        attacker.send_to(&misdirected.encode(), ep).unwrap();
        let hop = WireMessage::RouteHop { origin: B, route_id: 0, target: A, floor: 0 };
        let from_addr = WireAddr { router: 4_000_000, ..from_addr };
        let unanswerable = Frame { to_addr, from_addr, env: envelope(A, hop) };
        attacker.send_to(&unanswerable.encode(), ep).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.registry().counter(DatagramsReceived) < 5 && Instant::now() < deadline {
            d.pump(&mut env).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let r = d.registry();
        assert_eq!(r.counter(DatagramsReceived), 5);
        assert_eq!(r.counter(DroppedOversized), 1);
        assert_eq!(r.counter(DroppedGarbage), 3);
        // The last one decodes and is refused by the machine, before any
        // state is touched or anything sent.
        assert_eq!(env.meter.count(MessageKind::MalformedFrame), 5);
        assert_eq!(d.registry().gauge(Gauge::Seen), 0);
        // Nothing sent, nothing done.
        assert_eq!(r.counter(FramesSent), 0);
        assert!(d.completions.is_empty() && env.events.is_empty());
    }

    /// The largest frame an honest machine sends, a sealed `Update`, is
    /// 122 bytes, well inside the cap: its floor is the 8 bytes a sealed
    /// `Publish` (114) does not carry, and the next largest, a sealed
    /// `Register`, is 102.
    #[test]
    fn the_largest_honest_frame_fits_the_cap() {
        let addr = WireAddr { host: 2, router: 5, epoch: 9 };
        let auth = Some(WireAuth { pubkey: 1, tag: 2 });
        let size = |msg| {
            let env = Envelope { src: A, dst: B, msg_id: 4, trace_id: 5, msg, auth };
            Frame { to_addr: addr, from_addr: addr, env }.encode().len()
        };
        let update = size(WireMessage::Update { subject: A, addr, seq: 3, floor: 4 });
        assert_eq!(update, 122);
        assert_eq!(size(WireMessage::Publish { subject: A, addr, seq: 3 }), 114);
        assert_eq!(size(WireMessage::Register { target: A, capacity: 1, floor: 4 }), 102);
        assert!(update <= MAX_FRAME);
    }

    /// A hop sent to B at an address B leaves before it arrives reaches
    /// B's socket all the same — no driver check stops it — and B's
    /// machine rejects it, and each retransmission after it: no ack, no
    /// dedup entry, one rejection a copy.
    #[test]
    fn a_frame_to_a_stale_address_is_carried_and_its_destination_rejects_it() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut d = fast_driver();
        d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        d.bind_node(B, env.addrs[&B], ProtoMachine::new(B, policy())).unwrap();
        let now = d.now();
        let (route_id, out) = d.machine_mut(A).unwrap().start_route(now, &mut env, B);
        let hop = out.outgoing[0].env.msg_id;
        d.dispatch(A, out, &mut env).unwrap();
        moved(&mut env, B);
        d.run_until_quiet(&mut env, 10_000).unwrap();
        assert_eq!(stale_rejects(&env), vec![(B, A, hop); 3], "every copy, at B");
        let r = d.registry();
        assert_eq!((r.counter(FramesSent), r.counter(StaleBlackholed)), (3, 0), "all carried");
        assert_eq!(r.gauge(Gauge::Seen), 0, "no dedup entry");
        let failed = Completion::RouteFailed { origin: A, route_id, at: A };
        assert_eq!(d.completions, vec![failed]);
    }

    /// A `Register` whose ack meets a stale address: B processes it and
    /// acks it to where A sent it from, but A has moved, and A's machine
    /// rejects the ack. The retransmission leaves from A's new address;
    /// B had processed the frame, so it is spurious (read from B's dedup
    /// window as the simulator's driver reads it), and its ack, sent
    /// back there, closes the exchange.
    #[test]
    fn retransmissions_the_destination_processed_are_spurious() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        let mut d = fast_driver();
        d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        d.bind_node(B, env.addrs[&B], ProtoMachine::new(B, policy())).unwrap();
        let now = d.now();
        let out = d.machine_mut(A).unwrap().start_register(now, &mut env, B, 1);
        d.dispatch(A, out, &mut env).unwrap();
        moved(&mut env, A);
        d.run_until_quiet(&mut env, 10_000).unwrap();
        assert_eq!(env.registered, vec![(B, A, 1)], "applied once");
        assert_eq!(d.completions, vec![Completion::Registered { target: B }]);
        assert_eq!(stale_rejects(&env).len(), 1, "the first ack, at A");
        // Initial send plus one retransmission, which was spurious.
        assert_eq!(env.meter.count(MessageKind::Register), 2);
        assert_eq!(env.meter.count(MessageKind::SpuriousRetry), 1);
    }

    /// One wake that finds two `Register`s due resends both frames, and
    /// each resend is spurious: both targets processed the first copy,
    /// and both acks met A's stale address. One wake is queued for the
    /// two.
    #[test]
    fn one_wake_meters_each_resent_frame_its_destination_processed() {
        const C: Key = Key(30);
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5).with_node(C, 3, 9);
        let mut d = fast_driver();
        for key in [A, B, C] {
            d.bind_node(key, env.addrs[&key], ProtoMachine::new(key, policy())).unwrap();
        }
        let now = d.now();
        let machine = d.machine_mut(A).unwrap();
        let mut out = machine.start_register(now, &mut env, B, 1);
        let to_c = machine.start_register(now, &mut env, C, 1);
        out.outgoing.extend(to_c.outgoing);
        assert_eq!(out.wake, to_c.wake, "armed at one tick, due at one tick");
        d.dispatch(A, out, &mut env).unwrap();
        assert_eq!(d.pending_wakes(), 1);
        moved(&mut env, A);
        d.run_until_quiet(&mut env, 10_000).unwrap();
        assert_eq!(env.registered, vec![(B, A, 1), (C, A, 1)], "each applied once");
        assert_eq!(stale_rejects(&env).len(), 2, "both first acks, at A");
        // Two first sends, then one retransmission of each, both to a
        // target that had processed the frame.
        assert_eq!(env.meter.count(MessageKind::Register), 2 + 2);
        assert_eq!(env.meter.count(MessageKind::SpuriousRetry), 2);
        assert_eq!(d.pending_wakes(), 0);
    }

    #[test]
    fn retry_ladder_runs_on_fast_forward_not_wall_time() {
        let mut env = MockEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        // A non-mobile next hop: exhaustion fails the route outright
        // (no stationary-layer rediscovery to fall back to).
        env.mobile_hops.insert((A, B), B);
        let mut d = fast_driver();
        d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        // B is bound nowhere: every hop to it is black-holed at send, and
        // no ack ever comes.
        let now = d.now();
        let (route_id, out) = d.machine_mut(A).unwrap().start_route(now, &mut env, B);
        d.dispatch(A, out, &mut env).unwrap();
        let started = Instant::now();
        d.run_until_quiet(&mut env, 10_000).unwrap();
        // Three 100-tick timeouts with backoff would be minutes of real
        // time at 1 ms/tick without fast-forward.
        assert!(started.elapsed() < Duration::from_secs(30), "must not sleep out the timers");
        assert!(d
            .completions
            .iter()
            .any(|c| matches!(c, Completion::RouteFailed { origin, route_id: r, .. } if *origin == A && *r == route_id)));
        assert_eq!(env.meter.count(MessageKind::Timeout), 3);
        // Initial send plus two retransmissions, all metered, none sent.
        assert_eq!(env.meter.count(MessageKind::RouteHop), 3);
        let r = d.registry();
        assert_eq!((r.counter(StaleBlackholed), r.counter(FramesSent)), (3, 0));
        assert!(r.counter(FastForwards) >= 3, "quiet waits must fast-forward");
    }

    /// Keys `1..=n`, node `i` hosted on router `i`, all bound to one
    /// driver (node `i` at index `i - 1`). Returns the endpoints too.
    fn population(n: u32) -> (MockEnv, SocketDriver, Vec<SocketAddr>) {
        let mut env = MockEnv::default();
        let mut d = fast_driver();
        let mut endpoints = Vec::new();
        for i in 1..=n {
            let key = Key(u64::from(i));
            env = env.with_node(key, i, i);
            let ep = d.bind_node(key, env.addrs[&key], ProtoMachine::new(key, policy())).unwrap();
            endpoints.push(ep);
        }
        (env, d, endpoints)
    }

    /// Teaches `env` the mobile-layer path `path[0] → … → path.last()`.
    fn lay_path(env: &mut MockEnv, path: &[Key]) {
        let target = *path.last().unwrap();
        for hop in path.windows(2) {
            env.mobile_hops.insert((hop[0], target), hop[1]);
        }
    }

    /// Routes `src → target` and runs until the terminus reports it,
    /// draining the completions as a caller would.
    fn route(d: &mut SocketDriver, env: &mut MockEnv, src: Key, target: Key) {
        let now = d.now();
        let (route_id, out) = d.machine_mut(src).unwrap().start_route(now, env, target);
        d.dispatch(src, out, env).unwrap();
        d.run_until(env, 10_000, |c| {
            matches!(c, Completion::Delivered { origin, route_id: r } if *origin == src && *r == route_id)
        })
        .unwrap();
        assert!(d.completions.iter().any(|c| matches!(c, Completion::Delivered { .. })));
        d.completions.clear();
    }

    /// Enters a datagram in the ledger that nobody sent.
    fn forge_owed(d: &mut SocketDriver, idx: usize) {
        d.nodes[idx].owed += 1;
        d.enqueue(idx);
    }

    fn ledger_is_clear(d: &SocketDriver) -> bool {
        d.queue.is_empty() && d.nodes.iter().all(|n| n.owed == 0 && !n.queued)
    }

    /// The same forty three-hop routes over `n` sockets: the registry
    /// after the routes, and after the quiet point that follows them.
    fn routed_counts(n: u32) -> (Registry, Registry) {
        let (mut env, mut d, _) = population(n);
        let there = [Key(1), Key(10), Key(20), Key(30)];
        let back = [Key(30), Key(20), Key(10), Key(1)];
        lay_path(&mut env, &there);
        lay_path(&mut env, &back);
        for _ in 0..20 {
            route(&mut d, &mut env, Key(1), Key(30));
            route(&mut d, &mut env, Key(30), Key(1));
        }
        let busy = d.registry();
        d.run_until_quiet(&mut env, 10_000).unwrap();
        assert!(ledger_is_clear(&d));
        assert_eq!(env.meter.count(MessageKind::RouteHop), 40 * 3);
        (busy, d.registry())
    }

    #[test]
    fn pump_recv_calls_are_flat_in_population() {
        let runs = [(32, routed_counts(32)), (256, routed_counts(256))];
        for (nodes, (busy, quiet)) in &runs {
            let (b, q) = (|c| busy.counter(c), |c| quiet.counter(c));
            let (busy, quiet) = (counts(busy), counts(quiet));
            // While routes are in flight something is always owed (the
            // last hop's ack, at least), so no pump sweeps. A datagram
            // costs its own read, and a drain ends when its owed mail is
            // read, not on a `WouldBlock`; what is left is one cursor
            // probe a pump and the reads of mail still in flight, which
            // on loopback come to under one a datagram (about 1.45×).
            assert_eq!(b(Sweeps), 0, "{nodes} nodes: {busy:?}");
            assert_eq!(b(WrittenOff), 0, "{nodes} nodes: {busy:?}");
            assert!(b(RecvCalls) < 2 * b(DatagramsReceived), "{nodes} nodes: {busy:?}");
            // Only the sweeps of the quiet point pay per node.
            assert!(q(Sweeps) > 0);
            assert!(
                q(RecvCalls) <= 3 * q(DatagramsReceived) + q(Sweeps) * nodes,
                "{nodes} nodes: {quiet:?}"
            );
            assert_eq!(q(DatagramsReceived), q(FramesSent));
        }
        let [(_, (_, small)), (_, (_, large))] = &runs;
        assert_eq!(small.counter(DatagramsReceived), large.counter(DatagramsReceived));
    }

    #[test]
    fn rotating_probe_finds_foreign_mail_while_busy() {
        let (mut env, mut d, endpoints) = population(8);
        // Mail that never comes keeps every pump busy: no sweep will
        // ever look at node 5, only the cursor can.
        forge_owed(&mut d, 0);
        let attacker = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        attacker.send_to(&[0xFF; 40], endpoints[5]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.nodes[5].socket.peek_from(&mut [0u8; 1]).is_err() {
            assert!(Instant::now() < deadline, "loopback never delivered");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut pumps = 0;
        while d.registry().counter(DroppedGarbage) == 0 && pumps < d.nodes.len() + 1 {
            d.pump(&mut env).unwrap();
            pumps += 1;
        }
        let r = d.registry();
        assert_eq!(r.counter(DroppedGarbage), 1, "not found in {pumps} busy pumps");
        assert_eq!(env.meter.count(MessageKind::MalformedFrame), 1);
        assert_eq!(r.counter(Sweeps), 0);
        // Each of those pumps read two sockets, not eight.
        assert!(r.counter(RecvCalls) <= 2 * pumps as u64 + 1, "{:?}", counts(&r));
    }

    /// A drain of owed mail stops once the node is owed nothing, but a
    /// foreign datagram read first ticks nothing off: the owed one
    /// behind it is read in the same drain, on a busy driver.
    #[test]
    fn foreign_mail_ahead_of_owed_mail_does_not_hide_it() {
        let (mut env, mut d, endpoints) = population(8);
        lay_path(&mut env, &[Key(3), Key(4)]);
        forge_owed(&mut d, 0);
        let attacker = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        attacker.send_to(&[0xFF; 40], endpoints[3]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.nodes[3].socket.peek_from(&mut [0u8; 1]).is_err() {
            assert!(Instant::now() < deadline, "loopback never delivered");
            std::thread::sleep(Duration::from_millis(1));
        }
        let now = d.now();
        let (route_id, out) = d.machine_mut(Key(3)).unwrap().start_route(now, &mut env, Key(4));
        d.dispatch(Key(3), out, &mut env).unwrap();
        assert_eq!(d.nodes[3].owed, 1, "the hop is owed to node 4");
        std::thread::sleep(Duration::from_millis(20));
        let delivered = |d: &SocketDriver| {
            d.completions.iter().any(|c| {
                matches!(c, Completion::Delivered { origin, route_id: r } if *origin == Key(3) && *r == route_id)
            })
        };
        d.pump(&mut env).unwrap();
        let r = d.registry();
        let s = counts(&r);
        assert_eq!(r.counter(DroppedGarbage), 1, "the foreign datagram is read: {s:?}");
        assert!(delivered(&d), "the owed hop is read in the same pump: {s:?}");
        assert_eq!(d.nodes[3].owed, 0);
        assert_eq!(r.counter(Sweeps), 0);
    }

    #[test]
    fn quiet_point_leaves_nothing_owed() {
        let (mut env, mut d, _) = population(4);
        lay_path(&mut env, &[Key(1), Key(2), Key(3), Key(4)]);
        let now = d.now();
        let (_, out) = d.machine_mut(Key(1)).unwrap().start_route(now, &mut env, Key(4));
        d.dispatch(Key(1), out, &mut env).unwrap();
        assert!(!ledger_is_clear(&d), "the first hop is owed to node 2");
        d.run_until_quiet(&mut env, 10_000).unwrap();
        assert!(ledger_is_clear(&d));
        assert_eq!(env.meter.count(MessageKind::RouteHop), 3);
        let r = d.registry();
        assert_eq!(r.counter(DatagramsReceived), r.counter(FramesSent));
        assert_eq!(r.counter(WrittenOff), 0);
        assert_eq!(env.meter.count(MessageKind::Timeout), 0, "every ack beat its timer");
    }

    /// The registry counts what the sockets carried: after routes and
    /// the quiet point, every frame sent was read (acks included), and
    /// `seen` is read from the machines when the snapshot is taken.
    #[test]
    fn the_registry_counts_every_frame_and_reads_seen_from_the_machines() {
        let (mut env, mut d, _) = population(8);
        lay_path(&mut env, &[Key(1), Key(3), Key(5), Key(8)]);
        lay_path(&mut env, &[Key(8), Key(6), Key(1)]);
        let before = d.registry();
        for _ in 0..3 {
            route(&mut d, &mut env, Key(1), Key(8));
            route(&mut d, &mut env, Key(8), Key(1));
        }
        d.run_until_quiet(&mut env, 10_000).unwrap();
        let r = d.registry();
        let hops = env.meter.count(MessageKind::RouteHop);
        assert_eq!(hops, 3 * (3 + 2));
        // Every hop is acked, and no meter kind counts an ack.
        assert_eq!(r.counter(FramesSent), 2 * hops, "{:?}", counts(&r));
        assert_eq!(r.counter(DatagramsReceived), r.counter(FramesSent), "{:?}", counts(&r));
        let held: u64 = d.nodes.iter().map(|n| n.machine.seen_held() as u64).sum();
        assert!(held > 0, "the hops left dedup entries");
        assert_eq!(r.gauge(Gauge::Seen), held);
        assert_eq!(before.gauge(Gauge::Seen), 0, "an earlier snapshot keeps its reading");
    }

    #[test]
    fn owed_mail_that_never_arrives_is_written_off() {
        let (mut env, mut d, _) = population(2);
        forge_owed(&mut d, 1);
        let started = Instant::now();
        assert_eq!(d.run_until_quiet(&mut env, 10_000).unwrap(), 0);
        assert!(started.elapsed() < Duration::from_secs(5), "one grace window, not a hang");
        assert!(ledger_is_clear(&d));
        let r = d.registry();
        assert_eq!(r.counter(WrittenOff), 1);
        assert_eq!(r.counter(Sweeps), 0, "mail was owed throughout");
        // With the ledger clear the next pump is a sweep again.
        d.pump(&mut env).unwrap();
        assert_eq!(d.registry().counter(Sweeps), 1);
    }

    #[test]
    fn run_until_checks_each_completion_once() {
        let (mut env, mut d, _) = population(2);
        lay_path(&mut env, &[Key(1), Key(2)]);
        // A caller that never drains: 2 000 stale completions.
        d.completions.resize(2_000, Completion::UpdateAcked { child: Key(2) });
        let now = d.now();
        let (_, out) = d.machine_mut(Key(1)).unwrap().start_route(now, &mut env, Key(2));
        d.dispatch(Key(1), out, &mut env).unwrap();
        // Every completion is put to `found` once, however many times
        // the loop goes round.
        let mut asked = 0usize;
        d.run_until(&mut env, 10_000, |_| {
            asked += 1;
            false
        })
        .unwrap();
        assert!(d.completions.len() > 2_000, "the route completed");
        assert_eq!(asked, d.completions.len());
        assert!(d.registry().counter(FastForwards) > 0, "the loop did go round");
    }

    #[test]
    fn datagrams_read_in_the_grace_window_all_count() {
        let mut env = MockEnv::default().with_node(A, 1, 1);
        let mut d = fast_driver();
        d.set_grace(Duration::from_millis(300));
        let ep = d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        // Nothing owed, no timers: the loop goes straight into its grace
        // window, and a burst lands while it sleeps between two pumps.
        // (The count below holds wherever the burst lands; the delay
        // only aims it at the path that used to count a burst as one.)
        let burst = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let attacker = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
            for _ in 0..3 {
                attacker.send_to(&[0xFF; 40], ep).unwrap();
            }
        });
        let events = d.run_until_quiet(&mut env, 10_000).unwrap();
        burst.join().unwrap();
        assert_eq!(d.registry().counter(DroppedGarbage), 3);
        assert_eq!(events, 3, "the event budget must see every datagram");
    }
}
