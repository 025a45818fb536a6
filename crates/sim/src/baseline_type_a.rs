//! The Type A baseline: a plain HS-P2P over bare IP (paper Table 1).
//!
//! Type A handles mobility by "treat\[ing\] that node as leaving the HS-P2P
//! and then joining as a new peer in the new location", relying on
//! periodic state refresh to purge the stale identity. The consequences
//! the paper calls out — and this model reproduces — are:
//!
//! * **no end-to-end semantics**: the node's overlay identity changes on
//!   every move, so correspondents holding the old key lose the session;
//! * **data unavailability**: records the mover stored for the overlay
//!   die with its old identity until re-published/refreshed;
//! * **maintenance overhead**: every move costs a full join (2·O(log N)
//!   messages) plus its share of refresh traffic.

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

/// A logical device participating in the Type A overlay. Its overlay key
/// changes on every move; the `BodyId` is stable (it is "the laptop").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyId(pub u32);

#[derive(Debug, Clone, Copy)]
struct Body {
    host: HostId,
    current_key: Key,
    mobile: bool,
}

/// A Type A HS-P2P deployment.
pub struct TypeASystem {
    /// The single overlay; all state-pairs point at "current" addresses
    /// that silently die when a node moves.
    pub dht: RingDht<Vec<u8>>,
    /// Host attachments.
    pub attachments: AttachmentMap,
    /// Message accounting.
    pub meter: Meter,
    dcache: Arc<DistanceCache>,
    stub_routers: Vec<RouterId>,
    rng: Pcg64,
    bodies: Vec<Body>,
    replicas: usize,
}

impl TypeASystem {
    /// Builds a Type A system with the given populations.
    pub fn build(
        seed: u64,
        n_stationary: usize,
        n_mobile: usize,
        topology: &TransitStubConfig,
        replicas: usize,
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
        let bodies = members
            .iter()
            .enumerate()
            .map(|(i, &(current_key, host))| Body { host, current_key, mobile: i >= n_stationary })
            .collect();
        TypeASystem {
            dht,
            attachments,
            meter: Meter::new(),
            dcache,
            stub_routers,
            rng,
            bodies,
            replicas: replicas.max(1),
        }
    }

    fn fresh_key(&mut self) -> Key {
        loop {
            let k = Key::random(&mut self.rng);
            if !self.dht.contains(k) {
                return k;
            }
        }
    }

    /// Number of logical devices.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether the system has no devices.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// Ids of the mobile devices.
    pub fn mobile_bodies(&self) -> Vec<BodyId> {
        self.bodies
            .iter()
            .enumerate()
            .filter(|(_, b)| b.mobile)
            .map(|(i, _)| BodyId(i as u32))
            .collect()
    }

    /// Ids of the stationary devices.
    pub fn stationary_bodies(&self) -> Vec<BodyId> {
        self.bodies
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.mobile)
            .map(|(i, _)| BodyId(i as u32))
            .collect()
    }

    /// The device's *current* overlay key — correspondents holding an old
    /// one are simply out of luck.
    pub fn current_key(&self, body: BodyId) -> Key {
        self.bodies[body.0 as usize].current_key
    }

    /// The shortest-path distance oracle.
    pub fn distances(&self) -> &DistanceCache {
        &self.dcache
    }

    /// Moves a device: it leaves (losing its stored records and its
    /// identity) and rejoins under a fresh key at the new attachment.
    /// Returns `(old key, new key, join messages)`.
    pub fn move_body(&mut self, body: BodyId) -> Result<(Key, Key, u64), RingError> {
        let b = self.bodies[body.0 as usize];
        assert!(b.mobile, "stationary bodies do not move");
        let old_key = b.current_key;
        // Leave: abrupt from the overlay's perspective — the node's new
        // incarnation does not answer for the old key.
        self.dht.fail_node(old_key)?;
        let mut move_rng = self.rng.split(3);
        self.attachments.move_host_random(b.host, &self.stub_routers, &mut move_rng);
        // Rejoin as a brand-new peer.
        let new_key = self.fresh_key();
        self.dht.insert(new_key, b.host, 1)?;
        let mut wire_rng = self.rng.split(4);
        self.dht.rebuild(&[new_key], &self.attachments, &self.dcache, &mut wire_rng)?;
        // Join cost: the paper's 2·O(log N) — one exchange per table row.
        let join_msgs = 2 * self.dht.node(new_key)?.state_size() as u64;
        self.meter.bump(MessageKind::Join, join_msgs);
        self.bodies[body.0 as usize].current_key = new_key;
        Ok((old_key, new_key, join_msgs))
    }

    /// Publishes a record from `src_body` under `data_key`.
    pub fn publish(
        &mut self,
        src_body: BodyId,
        data_key: Key,
        value: Vec<u8>,
    ) -> Result<(), RingError> {
        let src = self.current_key(src_body);
        self.dht.publish(
            src,
            data_key,
            value,
            self.replicas,
            &self.attachments,
            &self.dcache,
            &mut self.meter,
        )?;
        Ok(())
    }

    /// Looks a record up from `src_body`. Returns `(found, hops)`.
    pub fn lookup(&mut self, src_body: BodyId, data_key: Key) -> Result<(bool, usize), RingError> {
        let src = self.current_key(src_body);
        let out = self.dht.lookup(
            src,
            data_key,
            self.replicas,
            &self.attachments,
            &self.dcache,
            &mut self.meter,
        )?;
        Ok((out.value.is_some(), out.hops))
    }

    /// One periodic maintenance round: refresh all tables and move records
    /// to their current replica sets (a record has one version, so its
    /// first holder wins). Returns copies installed.
    pub fn refresh(&mut self) -> Result<usize, RingError> {
        let mut rng = self.rng.split(5);
        self.dht.refresh_cycle(&self.attachments, &self.dcache, &mut rng, &mut self.meter);
        let placed = self.dht.place_replicas(
            self.replicas,
            |_| true,
            |first, _| first,
            &self.attachments,
            &self.dcache,
            &mut self.meter,
        )?;
        Ok(placed.installed.len())
    }

    /// Average routing-state rows per node (Table 1 scalability metric).
    pub fn avg_state_per_node(&self) -> f64 {
        self.dht.total_state() as f64 / self.dht.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(seed: u64) -> TypeASystem {
        TypeASystem::build(seed, 30, 15, &TransitStubConfig::tiny(), 2)
    }

    #[test]
    fn build_populates_overlay() {
        let sys = system(1);
        assert_eq!(sys.len(), 45);
        assert_eq!(sys.dht.len(), 45);
        assert_eq!(sys.mobile_bodies().len(), 15);
        assert_eq!(sys.stationary_bodies().len(), 30);
    }

    #[test]
    fn move_changes_identity() {
        let mut sys = system(2);
        let body = sys.mobile_bodies()[0];
        let before = sys.current_key(body);
        let (old, new, msgs) = sys.move_body(body).unwrap();
        assert_eq!(old, before);
        assert_ne!(new, old, "Type A cannot keep its key");
        assert!(!sys.dht.contains(old));
        assert!(sys.dht.contains(new));
        assert!(msgs > 0);
    }

    #[test]
    fn correspondent_loses_session_after_move() {
        // The end-to-end-semantics failure: a correspondent that captured
        // the peer's key before a move can no longer reach *that peer* —
        // the key now resolves to a different owner (or nothing of the
        // peer's).
        let mut sys = system(3);
        let body = sys.mobile_bodies()[0];
        let old_key = sys.current_key(body);
        sys.move_body(body).unwrap();
        assert!(!sys.dht.contains(old_key), "the captured identity is dead");
    }

    #[test]
    fn movers_records_become_unavailable() {
        let mut sys = system(4);
        let body = sys.mobile_bodies()[0];
        let reader = sys.stationary_bodies()[0];
        // Find a data key whose full replica set lives on the mover.
        let mover_key = sys.current_key(body);
        let data_key = Key(mover_key.0.wrapping_sub(1)); // owned by the mover
                                                         // Force single-replica to isolate the effect.
        sys.replicas = 1;
        sys.publish(reader, data_key, vec![1]).unwrap();
        let (found, _) = sys.lookup(reader, data_key).unwrap();
        assert!(found);
        sys.move_body(body).unwrap();
        let (found_after, _) = sys.lookup(reader, data_key).unwrap();
        assert!(!found_after, "records die with the old identity");
    }

    #[test]
    fn refresh_heals_routing_damage() {
        let mut sys = system(5);
        for body in sys.mobile_bodies() {
            sys.move_body(body).unwrap();
        }
        assert!(!sys.dht.health().is_healthy(), "moves leave dangling state");
        sys.refresh().unwrap();
        assert!(sys.dht.health().is_healthy());
    }

    #[test]
    fn state_per_node_is_logarithmic() {
        let sys = system(6);
        let avg = sys.avg_state_per_node();
        assert!(avg > 4.0 && avg < 64.0, "{avg}");
    }
}
