//! The five workloads. Each `run` hands its set-up and untraced window
//! to [`crate::harness::measure`] and, when asked, adds its traced pass
//! and per-layer cells.

use std::time::Instant;

use bristle_core::system::{BristleBuilder, BristleSystem};
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};

use crate::harness::{Ctx, Outcome};

pub mod handoff;
pub mod liveness;
pub mod lookup;
pub mod msgroute;
pub mod simloop;
pub mod udp;

/// One workload's static description.
pub struct Spec {
    pub name: &'static str,
    /// Timed ops bought per second of `--seconds`, shared among the
    /// repetitions of a run. Every workload runs a fixed op count: memory
    /// grows with every message sent (append-only transport trace,
    /// `delivered` and `seen` sets) and speed changes with it, so two
    /// builds are only comparable at the same op count. The rates are the
    /// first throughputs measured on this repository (2-core box),
    /// rounded, so a run measures for about `--seconds` seconds in all.
    pub ops_per_second: f64,
    pub why: &'static str,
    pub run: fn(&Ctx) -> Outcome,
}

pub const ALL: &[Spec] = &[
    Spec {
        name: "lookup-5e4",
        ops_per_second: 21_000.0,
        why: "read path, function calls only: route_mobile over random pairs at N=50 000, tables far beyond cache; overlay, netsim and core::mobile do all the work",
        run: lookup::run,
    },
    Spec {
        name: "msgroute-1e4",
        ops_per_second: 700.0,
        why: "message path in the simulator: bursts of 32 concurrent routes at N=10 000 on a perfect transport; proto sessions and the sim driver loop do the work, no codec, sockets or WAL",
        run: msgroute::run,
    },
    Spec {
        name: "handoff-1e3",
        ops_per_second: 9_000.0,
        why: "write side: move, LDT update dissemination and a route to the mover at 5 % loss, WAL-backed stores; a read-path gain that costs updates shows here",
        run: handoff::run,
    },
    Spec {
        name: "liveness-1e3",
        ops_per_second: 65.0,
        why: "heartbeat rounds at N=1 000 and 2 % loss: proto::failure and a deep event queue dominate; routes and the codec are bypassed",
        run: liveness::run,
    },
    Spec {
        name: "udp-route-256",
        ops_per_second: 7_500.0,
        why: "routes over 256 loopback UDP sockets: the only workload that runs the codec, syscalls and the socket loop; tables are cache-resident, so a table-layout gain predicts no change",
        run: udp::run,
    },
];

/// Seed of every system the workloads build. The deployment under test
/// is fixed; `--seed` generates its *inputs* — the op list and the
/// transport's loss draws. (Building the system from `--seed` as well
/// moves `path_cost_per_op` by 12 % and `ops_per_s` by 20 % between
/// seeds: another topology is another system, not another input.)
pub const SYSTEM_SEED: u64 = 8;

/// Worker threads for the table build (set-up only; every timed window
/// is single-threaded).
pub const BUILD_WORKERS: usize = 2;

/// A settled system of `nodes` nodes, 20 % of them mobile, on the small
/// transit-stub topology.
pub fn build(nodes: usize) -> BristleSystem {
    let mobile = nodes / 5;
    BristleBuilder::new(SYSTEM_SEED)
        .stationary_nodes(nodes - mobile)
        .mobile_nodes(mobile)
        .topology(TransitStubConfig::small())
        .build_workers(BUILD_WORKERS)
        .build()
        .expect("system builds")
}

/// Seconds to generate the physical topology alone, as `build` does.
pub fn topology_cell() -> f64 {
    let mut rng = Pcg64::seed_from_u64(SYSTEM_SEED).split(1);
    let t = Instant::now();
    std::hint::black_box(TransitStubTopology::generate(&TransitStubConfig::small(), &mut rng));
    t.elapsed().as_secs_f64()
}

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}
