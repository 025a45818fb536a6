//! The Type B baseline: an HS-P2P deployed over Mobile IP (paper Table 1).
//!
//! Mobile IP gives the overlay a transparent view — overlay keys and
//! "home addresses" never change — but at the network layer every packet
//! to a mobile node takes the **triangular route** through its home
//! agent: sender → home agent → care-of address. Home agents are also
//! single points of failure: when one dies, its mobile node is
//! unreachable until the agent recovers, no matter how healthy the
//! overlay is. Both properties are what Table 1's "Poor"
//! reliability/performance entries for Type B summarize, and both are
//! modelled here quantitatively.

use std::collections::HashMap;
use std::sync::Arc;

use bristle_netsim::attach::{AttachmentMap, HostId};
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
use bristle_overlay::config::RingConfig;
use bristle_overlay::key::Key;
use bristle_overlay::meter::{MessageKind, Meter};
use bristle_overlay::ring::{RingDht, RingError};

use crate::workload::random_ring;

/// Outcome of routing one message in a Type B system.
#[derive(Debug, Clone)]
pub struct TypeBRoute {
    /// Overlay hops taken.
    pub hops: usize,
    /// Total physical cost actually paid (with triangular detours).
    pub path_cost: u64,
    /// Physical cost an oracle with direct addresses would have paid.
    pub direct_cost: u64,
    /// Whether the message arrived (false when a home agent on the path
    /// is down).
    pub delivered: bool,
}

impl TypeBRoute {
    /// The triangular-routing stretch factor (≥ 1; 1 when no mobile hops).
    pub fn stretch(&self) -> f64 {
        if self.direct_cost == 0 {
            1.0
        } else {
            self.path_cost as f64 / self.direct_cost as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct MobileState {
    home_agent: RouterId,
    agent_alive: bool,
}

/// A Type B HS-P2P deployment (overlay over Mobile IP).
pub struct TypeBSystem {
    /// The overlay; from its perspective nobody ever moves.
    pub dht: RingDht<Vec<u8>>,
    /// Host attachments (care-of addresses).
    pub attachments: AttachmentMap,
    /// Message accounting.
    pub meter: Meter,
    dcache: Arc<DistanceCache>,
    stub_routers: Vec<RouterId>,
    rng: Pcg64,
    mobiles: HashMap<Key, MobileState>,
    hosts: HashMap<Key, HostId>,
}

impl TypeBSystem {
    /// Builds a Type B system. Every mobile node is assigned a home agent
    /// at a random stub router (its "home network").
    pub fn build(
        seed: u64,
        n_stationary: usize,
        n_mobile: usize,
        topology: &TransitStubConfig,
    ) -> Self {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut topo_rng = rng.split(1);
        let topo = TransitStubTopology::generate(topology, &mut topo_rng);
        let stub_routers = topo.stub_routers().to_vec();
        let dcache = Arc::new(DistanceCache::new(Arc::new(topo.into_graph()), 4096));
        let (mut dht, attachments, members) =
            random_ring(n_stationary + n_mobile, RingConfig::tornado(), &stub_routers, &mut rng);
        let mut wire_rng = rng.split(2);
        dht.build_all_tables(&attachments, &dcache, &mut wire_rng, 1);
        // The home agent sits at the node's *initial* network.
        let mobiles = members[n_stationary..]
            .iter()
            .map(|&(k, host)| {
                (k, MobileState { home_agent: attachments.router(host), agent_alive: true })
            })
            .collect();
        let hosts = members.into_iter().collect();
        TypeBSystem {
            dht,
            attachments,
            meter: Meter::new(),
            dcache,
            stub_routers,
            rng,
            mobiles,
            hosts,
        }
    }

    /// Keys of the mobile nodes.
    pub fn mobile_keys(&self) -> Vec<Key> {
        let mut v: Vec<Key> = self.mobiles.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Keys of the stationary nodes.
    pub fn stationary_keys(&self) -> Vec<Key> {
        let mut v: Vec<Key> = self.dht.keys().filter(|k| !self.mobiles.contains_key(k)).collect();
        v.sort_unstable();
        v
    }

    /// The distance oracle.
    pub fn distances(&self) -> &DistanceCache {
        &self.dcache
    }

    /// Moves a mobile node to a random new care-of address and registers
    /// it with the home agent (one binding-update message). The overlay
    /// never hears about it. Returns the registration cost.
    pub fn move_node(&mut self, key: Key) -> Result<u64, RingError> {
        let state = *self.mobiles.get(&key).ok_or(RingError::UnknownNode(key))?;
        let host = self.hosts[&key];
        let mut move_rng = self.rng.split(3);
        let att = self.attachments.move_host_random(host, &self.stub_routers, &mut move_rng);
        let cost = self.dcache.distance(att.router, state.home_agent);
        self.meter.record(MessageKind::Update, cost);
        Ok(cost)
    }

    /// Kills (or revives) a node's home agent.
    pub fn set_agent_alive(&mut self, key: Key, alive: bool) {
        if let Some(s) = self.mobiles.get_mut(&key) {
            s.agent_alive = alive;
        }
    }

    /// Cost of physically delivering one packet to `key` from `from_router`,
    /// or `None` when the node is unreachable (agent down).
    fn delivery_cost(&self, from_router: RouterId, key: Key) -> Option<u64> {
        let actual = self.attachments.router(self.hosts[&key]);
        match self.mobiles.get(&key) {
            None => Some(self.dcache.distance(from_router, actual)),
            Some(state) => {
                if !state.agent_alive {
                    return None;
                }
                // Triangular: sender → home agent → care-of address.
                Some(
                    self.dcache.distance(from_router, state.home_agent)
                        + self.dcache.distance(state.home_agent, actual),
                )
            }
        }
    }

    /// Routes a message from `src` toward `target` through the overlay,
    /// paying Mobile IP's triangular cost on every hop to a mobile node.
    pub fn route(&mut self, src: Key, target: Key) -> Result<TypeBRoute, RingError> {
        let mut cur = src;
        let mut hops = 0usize;
        let mut path_cost = 0u64;
        let mut direct_cost = 0u64;
        let mut delivered = true;
        for next in self.dht.walk(self.dht.slot_of(src)?, target) {
            let next = self.dht.at(next).key;
            let cur_router = self.attachments.router(self.hosts[&cur]);
            let next_router = self.attachments.router(self.hosts[&next]);
            let direct = self.dcache.distance(cur_router, next_router);
            match self.delivery_cost(cur_router, next) {
                Some(cost) => {
                    self.meter.record(MessageKind::RouteHop, cost);
                    path_cost += cost;
                    direct_cost += direct;
                    hops += 1;
                    cur = next;
                }
                None => {
                    delivered = false;
                    break;
                }
            }
        }
        Ok(TypeBRoute { hops, path_cost, direct_cost, delivered })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(seed: u64) -> TypeBSystem {
        TypeBSystem::build(seed, 30, 15, &TransitStubConfig::tiny())
    }

    #[test]
    fn build_assigns_home_agents() {
        let sys = system(1);
        assert_eq!(sys.mobile_keys().len(), 15);
        assert_eq!(sys.stationary_keys().len(), 30);
        assert_eq!(sys.dht.len(), 45);
    }

    #[test]
    fn overlay_identity_survives_moves() {
        let mut sys = system(2);
        let m = sys.mobile_keys()[0];
        sys.move_node(m).unwrap();
        sys.move_node(m).unwrap();
        assert!(sys.dht.contains(m), "Mobile IP keeps overlay identity");
    }

    #[test]
    fn stationary_only_routes_have_no_stretch() {
        let mut sys = TypeBSystem::build(4, 30, 0, &TransitStubConfig::tiny());
        let keys = sys.stationary_keys();
        for (&a, &b) in keys.iter().zip(&keys[1..]) {
            let r = sys.route(a, b).unwrap();
            assert!(r.delivered);
            assert_eq!(r.path_cost, r.direct_cost, "no mobiles → no triangles");
        }
    }

    #[test]
    fn dead_agent_makes_node_unreachable() {
        let mut sys = system(5);
        let m = sys.mobile_keys()[0];
        let src = sys.stationary_keys()[0];
        sys.set_agent_alive(m, false);
        // Routes that must hop *through or into* m fail; route directly to
        // m's key (owner is m itself).
        let r = sys.route(src, m).unwrap();
        if sys.dht.owner(m).unwrap() == m {
            assert!(!r.delivered, "agent down → unreachable");
        }
        sys.set_agent_alive(m, true);
        let r = sys.route(src, m).unwrap();
        assert!(r.delivered);
    }

    #[test]
    fn move_charges_binding_update() {
        let mut sys = system(6);
        let m = sys.mobile_keys()[0];
        let before = sys.meter.count(MessageKind::Update);
        sys.move_node(m).unwrap();
        assert_eq!(sys.meter.count(MessageKind::Update), before + 1);
    }
}
