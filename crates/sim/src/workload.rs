//! Route-sampling workloads and their aggregation.
//!
//! The paper's §4.1 experiment: "There are 10,000 sample routes between
//! two randomly picked stationary nodes generated, and the average
//! application-level hops and the path costs for these routes are
//! averaged." This module generates those samples and aggregates route
//! reports into the metrics the figures plot.

use std::sync::Arc;

use bristle_core::config::BristleConfig;
use bristle_core::naming::Mobility;
use bristle_core::system::{BristleBuilder, BristleSystem};
use bristle_netsim::attach::{AttachmentMap, HostId};
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::graph::{Graph, RouterId};
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::TransitStubConfig;
use bristle_overlay::config::RingConfig;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::Registry;
use bristle_overlay::ring::RingDht;

use crate::messaging::MessagingBristleSystem;
use crate::metrics::Samples;

/// Aggregated route metrics over a batch of sampled routes.
#[derive(Debug, Clone, Default)]
pub struct RouteAggregate {
    /// Application-level hops (forwarding + discovery + wasted attempts).
    pub hops: Samples,
    /// Physical path cost per route.
    pub path_cost: Samples,
    /// `_discovery` operations per route.
    pub discoveries: Samples,
    /// Routes attempted.
    pub routes: usize,
}

impl RouteAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean application-level hops (Fig. 7a's y-axis).
    pub fn mean_hops(&self) -> f64 {
        self.hops.mean()
    }

    /// Mean physical path cost.
    pub fn mean_cost(&self) -> f64 {
        self.path_cost.mean()
    }

    /// Mean discoveries per route.
    pub fn mean_discoveries(&self) -> f64 {
        self.discoveries.mean()
    }
}

/// `done / attempted`, or `empty` when nothing was attempted — the one
/// body behind every outcome's `*_rate()` accessor.
pub fn rate(done: u64, attempted: u64, empty: f64) -> f64 {
    if attempted == 0 {
        empty
    } else {
        done as f64 / attempted as f64
    }
}

/// Routes delivered out of routes attempted over one batch of pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delivery {
    /// Routes that reached their target's owner.
    pub delivered: usize,
    /// Routes attempted (pairs with both endpoints present).
    pub attempted: usize,
}

impl Delivery {
    /// Fraction delivered; an empty batch lost nothing, so it rates 1.0.
    pub fn rate(&self) -> f64 {
        rate(self.delivered as u64, self.attempted as u64, 1.0)
    }
}

/// Delivery over the same fixed pairs before a scenario's disruption and
/// again after its recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BeforeAfter {
    /// Measured on the undisturbed system.
    pub pre: Delivery,
    /// Measured over the same pairs once recovery has run.
    pub post: Delivery,
}

impl BeforeAfter {
    /// Fraction of pre-disruption routes delivered.
    pub fn pre_rate(&self) -> f64 {
        self.pre.rate()
    }

    /// Fraction of post-recovery routes delivered.
    pub fn post_rate(&self) -> f64 {
        self.post.rate()
    }

    /// Whether post-recovery delivery is within `slack` of the
    /// pre-disruption level (the acceptance criteria use `slack = 0.01`).
    pub fn recovered(&self, slack: f64) -> bool {
        self.post_rate() + slack >= self.pre_rate()
    }
}

/// What a message-path run emitted, read once at its end.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    /// Per-kind meter `(kind, count, cost)`.
    pub tallies: Vec<(MessageKind, u64, u64)>,
    /// A snapshot of the driver's series
    /// ([`MessagingBristleSystem::registry`]); `None` for a run with no
    /// message driver.
    pub registry: Option<Registry>,
}

impl Telemetry {
    /// The meter and the series of `msys` as they stand.
    pub fn of(msys: &MessagingBristleSystem) -> Self {
        Telemetry { tallies: msys.sys.meter.tallies(), registry: Some(msys.registry()) }
    }
}

/// Samples `count` ordered pairs of distinct stationary nodes.
///
/// # Panics
/// Panics when fewer than two stationary nodes exist.
pub fn sample_stationary_pairs(sys: &mut BristleSystem, count: usize) -> Vec<(Key, Key)> {
    let keys = sys.stationary_keys().to_vec();
    assert!(keys.len() >= 2, "need two stationary nodes to sample routes");
    let rng = sys.rng();
    (0..count)
        .map(|_| {
            let a = keys[rng.index(keys.len())];
            let mut b = keys[rng.index(keys.len())];
            while b == a {
                b = keys[rng.index(keys.len())];
            }
            (a, b)
        })
        .collect()
}

/// Samples `count` ordered pairs of distinct nodes of any mobility.
pub fn sample_any_pairs(sys: &mut BristleSystem, count: usize) -> Vec<(Key, Key)> {
    let keys: Vec<Key> = sys.mobile.keys().collect();
    assert!(keys.len() >= 2, "need two nodes to sample routes");
    let rng = sys.rng();
    (0..count)
        .map(|_| {
            let a = keys[rng.index(keys.len())];
            let mut b = keys[rng.index(keys.len())];
            while b == a {
                b = keys[rng.index(keys.len())];
            }
            (a, b)
        })
        .collect()
}

/// Routes every pair through the mobile layer (paper Fig. 2 semantics)
/// and aggregates hops, path cost, and discovery counts.
pub fn measure_routes(sys: &mut BristleSystem, pairs: &[(Key, Key)]) -> RouteAggregate {
    let mut agg = RouteAggregate::new();
    for &(src, dst) in pairs {
        let rep = sys.route_mobile(src, dst).expect("sampled nodes exist");
        agg.hops.push(rep.total_hops() as f64);
        agg.path_cost.push(rep.path_cost as f64);
        agg.discoveries.push(rep.discoveries as f64);
        agg.routes += 1;
    }
    agg
}

/// The stationary node holding the most location records (ties break
/// toward the smaller key for determinism).
pub(crate) fn busiest_primary(sys: &BristleSystem) -> Key {
    let mut best = (0usize, Key(u64::MAX));
    for &s in sys.stationary_keys() {
        let n = sys.stationary.node(s).map(|node| node.store.len()).unwrap_or(0);
        if n > best.0 || (n == best.0 && s < best.1) {
            best = (n, s);
        }
    }
    best.1
}

/// The system every message scenario starts from: `stationary + mobile`
/// nodes on the tiny transit-stub topology under `config`.
pub(crate) fn tiny_system(
    seed: u64,
    stationary: usize,
    mobile: usize,
    config: BristleConfig,
) -> BristleSystem {
    BristleBuilder::new(seed)
        .stationary_nodes(stationary)
        .mobile_nodes(mobile)
        .topology(TransitStubConfig::tiny())
        .config(config)
        .build()
        .expect("system builds")
}

/// Every node that has not silently crashed, ascending — the order
/// [`RingDht::keys`] walks the mobile ring in.
pub(crate) fn live_endpoints(msys: &MessagingBristleSystem) -> Vec<Key> {
    msys.sys.mobile.keys().filter(|&k| !msys.is_failed(k)).collect()
}

/// The live nodes of one mobility class, ascending.
pub(crate) fn live_of(msys: &MessagingBristleSystem, class: Mobility) -> Vec<Key> {
    let mut v = live_endpoints(msys);
    v.retain(|&k| msys.sys.node_info(k).is_ok_and(|info| info.mobility == class));
    v
}

/// The distance oracle of a network without locality: two routers, one
/// unit edge.
pub(crate) fn flat_distances() -> DistanceCache {
    let mut g = Graph::with_vertices(2);
    g.add_edge(RouterId(0), RouterId(1), 1);
    DistanceCache::new(Arc::new(g), 4)
}

/// A ring under `cfg` of `n` nodes with fresh random keys, each on a new
/// host at one of `routers`, and its members in insertion order — not
/// yet wired: the caller picks the stream that wires it. Placement costs
/// one draw per node where there is a choice and none on a single router.
pub(crate) fn random_ring(
    n: usize,
    cfg: RingConfig,
    routers: &[RouterId],
    rng: &mut Pcg64,
) -> (RingDht<Vec<u8>>, AttachmentMap, Vec<(Key, HostId)>) {
    let mut dht = RingDht::new(cfg);
    let mut attachments = AttachmentMap::new();
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        let router = match routers {
            [only] => *only,
            several => *rng.choose(several),
        };
        let host = attachments.attach_new(router);
        let key = loop {
            let k = Key::random(rng);
            if dht.insert(k, host, 1).is_ok() {
                break k;
            }
        };
        members.push((key, host));
    }
    (dht, attachments, members)
}

/// Draws `count` ordered pairs of distinct endpoints, neither of them
/// `avoid` — fixed once, then measured identically before and after the
/// scenario's disruption.
pub(crate) fn fixed_pairs(
    msys: &MessagingBristleSystem,
    rng: &mut Pcg64,
    count: usize,
    avoid: Option<Key>,
) -> Vec<(Key, Key)> {
    let endpoints = live_endpoints(msys);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count && endpoints.len() >= 2 {
        let src = endpoints[rng.index(endpoints.len())];
        let target = endpoints[rng.index(endpoints.len())];
        if src != target && Some(src) != avoid && Some(target) != avoid {
            pairs.push((src, target));
        }
    }
    pairs
}

/// Crashes `victim` silently and runs heartbeat rounds until suspicion
/// hardens into a verdict and the funeral heals the overlay around the
/// corpse; after `rounds` without one the funeral is forced. Returns the
/// rounds used and whether it was forced.
pub(crate) fn crash_and_bury(
    msys: &mut MessagingBristleSystem,
    victim: Key,
    rounds: usize,
) -> (usize, bool) {
    msys.fail_silently(victim);
    for r in 0..rounds {
        let newly = msys.heartbeat_round();
        msys.sys.tick(1);
        if newly.contains(&victim) {
            msys.confirm_and_heal(victim).expect("victim is known");
            return (r + 1, false);
        }
    }
    msys.confirm_and_heal(victim).expect("victim is known");
    (rounds, true)
}

/// Measures message-passing delivery over `pairs`, skipping pairs with a
/// missing endpoint.
pub(crate) fn measure_pairs(msys: &mut MessagingBristleSystem, pairs: &[(Key, Key)]) -> Delivery {
    let mut out = Delivery::default();
    for &(src, target) in pairs {
        if msys.is_failed(src)
            || msys.is_failed(target)
            || msys.sys.node_info(src).is_err()
            || msys.sys.node_info(target).is_err()
        {
            continue;
        }
        out.attempted += 1;
        if msys.route(src, target).is_ok() {
            out.delivered += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_core::config::BristleConfig;
    use bristle_core::system::BristleBuilder;
    use bristle_netsim::transit_stub::TransitStubConfig;
    use bristle_proto::transport::FaultConfig;

    fn system(seed: u64) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(30)
            .mobile_nodes(15)
            .topology(TransitStubConfig::tiny())
            .config(BristleConfig::recommended())
            .build()
            .unwrap()
    }

    #[test]
    fn rate_divides_and_keeps_the_empty_case() {
        assert_eq!(rate(1, 4, 1.0), 0.25);
        assert_eq!(rate(0, 0, 1.0), 1.0);
        assert_eq!(rate(0, 0, 0.0), 0.0);
    }

    #[test]
    fn recovered_compares_post_plus_slack_against_pre() {
        let of = |delivered| Delivery { delivered, attempted: 4 };
        let run = |post| BeforeAfter { pre: of(3), post: of(post) };
        assert!(!run(1).recovered(0.25), "0.25 + 0.25 is below 0.75");
        assert!(run(2).recovered(0.25), "0.5 + 0.25 meets 0.75");
        assert!(run(3).recovered(0.25), "0.75 + 0.25 is above 0.75");
        // Nothing attempted is nothing lost: both rates are 1.0.
        let empty = BeforeAfter::default();
        assert_eq!((empty.pre_rate(), empty.post_rate()), (1.0, 1.0));
        assert!(empty.recovered(0.0));
    }

    #[test]
    fn telemetry_is_the_meter_and_the_registry() {
        let mut msys = MessagingBristleSystem::new(system(4), FaultConfig::perfect(), 4);
        let (src, target) = (msys.sys.stationary_keys()[0], msys.sys.mobile_keys()[0]);
        msys.route(src, target).expect("a perfect transport delivers");
        let got = Telemetry::of(&msys);
        assert_eq!(got.tallies, msys.sys.meter.tallies());
        assert_eq!(got.registry, Some(msys.registry()));
        let route = got.registry.map(|r| r.histogram(bristle_overlay::obs::Hist::Route).count());
        assert_eq!(route, Some(1), "the route left a sample");
    }

    #[test]
    fn stationary_pairs_are_stationary_and_distinct() {
        let mut sys = system(1);
        let pairs = sample_stationary_pairs(&mut sys, 100);
        assert_eq!(pairs.len(), 100);
        for (a, b) in pairs {
            assert_ne!(a, b);
            assert!(!sys.is_mobile(a));
            assert!(!sys.is_mobile(b));
        }
    }

    #[test]
    fn any_pairs_cover_mobility_classes() {
        let mut sys = system(2);
        let pairs = sample_any_pairs(&mut sys, 300);
        assert!(pairs.iter().any(|&(a, _)| sys.is_mobile(a)), "mobile sources appear");
        assert!(pairs.iter().any(|&(a, _)| !sys.is_mobile(a)), "stationary sources appear");
    }

    #[test]
    fn measure_routes_aggregates() {
        let mut sys = system(3);
        let pairs = sample_stationary_pairs(&mut sys, 50);
        let agg = measure_routes(&mut sys, &pairs);
        assert_eq!(agg.routes, 50);
        assert_eq!(agg.hops.len(), 50);
        assert!(agg.mean_hops() > 0.0);
        assert!(agg.mean_cost() > 0.0);
        assert!(agg.mean_discoveries() >= 0.0);
    }

    #[test]
    fn route_sampling_is_deterministic_per_seed() {
        let mut a = system(7);
        let mut b = system(7);
        assert_eq!(sample_stationary_pairs(&mut a, 20), sample_stationary_pairs(&mut b, 20));
    }
}
