//! Isolated per-layer cells: one public function timed in a loop, on
//! inputs captured from (or shaped like) the workload that reports it.

use std::path::Path;
use std::time::Instant;

use bristle_core::system::BristleSystem;
use bristle_core::time::SimTime;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::key::Key;
use bristle_overlay::meter::{MessageKind, Meter};
use bristle_proto::machine::{Event, NodeEnv, ProtoMachine, RetryPolicy, TimerKind};
use bristle_proto::transport::{FaultConfig, SimTransport, Transport};
use bristle_proto::wire::{Envelope, WireMessage};
use bristle_sim::scale::queue_bench;
use bristle_store::{MemBackend, StateStore, WalBackend, WalRecord};

use crate::harness::{dir_bytes, time_per_call};
use crate::metrics::Values;

/// How many sent frames a traced loop keeps for the codec cells.
pub const FRAME_SAMPLE: usize = 4_096;

/// Retransmission-class events in `meter`: timeouts, re-issued
/// discoveries and spurious retries.
pub fn retransmits(meter: &Meter) -> u64 {
    meter.count(MessageKind::Timeout)
        + meter.count(MessageKind::DiscoveryRetry)
        + meter.count(MessageKind::SpuriousRetry)
}

/// Hold-model cost per event of the calendar queue and of the binary-heap
/// reference at the workload's observed queue depth (same run, so their
/// ratio is machine-independent).
pub fn queue_hold(l: &mut Values, depth: usize, seed: u64) {
    let b = queue_bench(depth.max(1), 400_000, seed);
    l.set("sim.queue_hold_ns", 1e9 / b.bucket_events_per_sec);
    l.set("sim.heap_hold_ns", 1e9 / b.heap_events_per_sec);
}

/// A lease grant that always changes state (a repeated expiry would be a
/// no-op the backends skip).
fn lease(i: usize) -> WalRecord {
    WalRecord::LeaseGrant { subject: (i % 64) as u64, expires: 1_000 + i as u64 }
}

/// `MemBackend::apply` of a lease grant — what every message-path lease
/// costs a node with the default store.
pub fn mem_apply_ns() -> f64 {
    let mut b = MemBackend::new();
    time_per_call(200_000, |i| b.apply(&lease(i)))
}

/// The `store.wal_*` cells, on a fresh WAL under `dir` and on the
/// directory tree `written` that the workload's own WALs left behind.
pub fn wal(l: &mut Values, dir: &Path, written: &Path) {
    let mut b = WalBackend::open(dir.join("cell"), 0).expect("scratch WAL opens");
    // Load it with a store's worth of leases first: `apply` clones the
    // folded state, so its cost depends on the state's size.
    for i in 0..64 {
        b.apply(&lease(i));
    }
    l.set("store.wal_append_ns", time_per_call(20_000, |i| b.apply(&lease(64 + i))));
    let t = Instant::now();
    const SNAPSHOTS: u32 = 8;
    for _ in 0..SNAPSHOTS {
        b.snapshot().expect("snapshot writes");
    }
    l.set("store.wal_snapshot_ms", t.elapsed().as_secs_f64() * 1e3 / f64::from(SNAPSHOTS));
    drop(b);

    // Restart cost: re-open every directory the workload wrote.
    let bytes = dir_bytes(written);
    let t = Instant::now();
    let mut opened = 0usize;
    if let Ok(entries) = std::fs::read_dir(written) {
        for e in entries.flatten() {
            if e.path().join("wal.log").exists() {
                std::hint::black_box(WalBackend::open(e.path(), 0).expect("WAL re-opens"));
                opened += 1;
            }
        }
    }
    if opened > 0 {
        l.set(
            "store.wal_replay_mib_s",
            bytes as f64 / (1024.0 * 1024.0) / t.elapsed().as_secs_f64(),
        );
    }
}

/// `Envelope::{encode, decode}` over `frames`.
pub fn codec(l: &mut Values, frames: &[Envelope]) {
    if frames.is_empty() {
        return;
    }
    const ROUNDS: usize = 50;
    let mut bytes = 0usize;
    let encode = time_per_call(frames.len() * ROUNDS, |i| {
        bytes += std::hint::black_box(frames[i % frames.len()].encode()).len();
    });
    let encoded: Vec<Vec<u8>> = frames.iter().map(Envelope::encode).collect();
    let decode = time_per_call(encoded.len() * ROUNDS, |i| {
        std::hint::black_box(Envelope::decode(&encoded[i % encoded.len()]).expect("own frame"));
    });
    l.set("proto.encode_ns", encode);
    l.set("proto.decode_ns", decode);
    l.set("proto.frame_bytes_mean", bytes as f64 / (frames.len() * ROUNDS) as f64);
}

/// `ProtoMachine::poll` of a timer whose session is gone — what almost
/// every timer is by the time it fires (timers are never cancelled).
pub fn stale_timer_poll_ns(env: &mut dyn NodeEnv) -> f64 {
    let mut m = ProtoMachine::new(Key(1), RetryPolicy::default());
    time_per_call(200_000, |i| {
        let kind = TimerKind::HopRetry { msg_id: i as u64 };
        std::hint::black_box(m.poll(SimTime(i as u64), Event::Timer(kind), env));
    })
}

/// `SimTransport::send` of heartbeat probes between random node pairs of
/// `sys`, on a transport configured as the workload's.
pub fn transport_send_ns(sys: &BristleSystem, faults: FaultConfig, seed: u64) -> f64 {
    let keys: Vec<Key> = sys.mobile.keys().collect();
    let mut rng = Pcg64::new(seed, 0xce11);
    let sends: Vec<(RouterId, RouterId, Envelope)> = (0..1_024)
        .map(|i| {
            let (src, dst) = (*rng.choose(&keys), *rng.choose(&keys));
            let env = Envelope {
                src,
                dst,
                msg_id: i,
                trace_id: 0,
                msg: WireMessage::Heartbeat { seq: i, incarnation: 0 },
                auth: None,
            };
            (sys.router_of(src).expect("live"), sys.router_of(dst).expect("live"), env)
        })
        .collect();
    let mut transport = SimTransport::new(sys.distances_arc(), faults, seed);
    time_per_call(200_000, |i| {
        let (from, to, env) = &sends[i % sends.len()];
        std::hint::black_box(transport.send(SimTime(i as u64), *from, *to, env.clone()));
    })
}
