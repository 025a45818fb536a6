//! Mobile-layer routing with address resolution (paper Figure 2) and the
//! `_discovery` operation (§2.3.2).
//!
//! Forwarding in the mobile layer follows the paper's `_route` pseudocode:
//! pick the state-pair `p` closest to the destination key; if `p.addr` is
//! null or invalid, resolve it through the stationary layer
//! (`_discovery`), then forward. The simulator distinguishes what a node
//! *believes* (cached address + unexpired lease) from what is *true*
//! (attachment epoch still matching): a confidently-held stale address
//! costs a wasted delivery attempt before the discovery kicks in.

use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::ring::Slot;

use crate::error::{BristleError, Result};
use crate::system::BristleSystem;

/// Outcome of a `_discovery` for one subject.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryReport {
    /// The resolved address, if any replica held a record.
    pub resolved: Option<NetAddr>,
    /// Application-level hops spent (injection + stationary route + reply).
    pub hops: usize,
    /// Physical path cost spent.
    pub path_cost: u64,
}

/// Outcome of routing one message through the mobile layer.
#[derive(Debug, Clone)]
pub struct MobileRouteReport {
    /// The node that owns the target key (delivery point).
    pub terminus: Key,
    /// Plain forwarding hops in the mobile layer.
    pub forward_hops: usize,
    /// Hops spent inside `_discovery` operations.
    pub discovery_hops: usize,
    /// Number of `_discovery` operations performed.
    pub discoveries: usize,
    /// Discoveries that found no usable record.
    pub failed_discoveries: usize,
    /// Delivery attempts to confidently-held but stale addresses.
    pub stale_attempts: usize,
    /// Total physical path cost (forwarding + discoveries + waste).
    pub path_cost: u64,
    /// Physical cost of the forwarding hops alone — what an oracle with
    /// perfectly fresh addresses would have paid for the same route.
    pub forward_cost: u64,
}

impl MobileRouteReport {
    /// Total application-level hops, the paper's Fig. 7(a) metric:
    /// forwarding plus discovery traffic.
    pub fn total_hops(&self) -> usize {
        self.forward_hops + self.discovery_hops + self.stale_attempts
    }

    /// Mobility-induced delivery overhead: total paid cost over the cost
    /// of the forwarding hops alone (1.0 when no resolution was needed).
    pub fn mobility_overhead(&self) -> f64 {
        if self.forward_cost == 0 {
            1.0
        } else {
            self.path_cost as f64 / self.forward_cost as f64
        }
    }
}

impl BristleSystem {
    /// Resolves `subject`'s network address through the stationary layer:
    /// inject at `from`'s stationary entry point, route to the record
    /// owner (probing replicas if needed), and reply to `from`.
    ///
    /// On success the resolver grants `from` a lease on `subject` and
    /// patches `from`'s cached state-pair — the paper's "Z replies the
    /// resolved network address to X, which then updates its local
    /// state-pair from `<k, null>` to `<k, a>`".
    pub fn discover(&mut self, from: Key, subject: Key) -> Result<DiscoveryReport> {
        let from = self.mobile.slot_of(from).map_err(|_| BristleError::UnknownNode(from))?;
        self.discover_from(from, subject)
    }

    /// Both rings' membership epochs. A slot is good until its ring's next
    /// insert, which moves the epoch, so a walk that holds slots while it
    /// mutates the system checks this reading has not moved.
    fn ring_epochs(&self) -> (u64, u64) {
        (self.mobile.epoch(), self.stationary.epoch())
    }

    /// [`BristleSystem::discover`] for an asker already resolved to its
    /// mobile-layer slab position `from`. Each node the discovery touches
    /// is resolved once — the entry point by one key probe, everyone
    /// after it by the forwarding decision or replica step that reached
    /// it — and its router is read off the slot's host.
    fn discover_from(&mut self, from: Slot, subject: Key) -> Result<DiscoveryReport> {
        let epochs = self.ring_epochs();
        let asker = self.mobile.at(from);
        let (from_key, from_router) = (asker.key, self.attachments.router(asker.host));
        let entry_key = self.entry_stationary_at(asker)?;
        let entry = self.stationary.slot_of(entry_key)?;
        let entry_router = self.attachments.router(self.stationary.at(entry).host);
        let mut hops = 0usize;
        let mut path_cost = 0u64;

        // Injection hop (skipped when `from` is itself the entry point).
        if entry_key != from_key {
            let cost = self.distances().distance(from_router, entry_router);
            self.meter.record(MessageKind::DiscoveryHop, cost);
            hops += 1;
            path_cost += cost;
        }

        // Route within the stationary layer to the record's owner.
        let (mut terminus, mut prev_router) = (entry, entry_router);
        for next in self.stationary.walk(entry, subject) {
            debug_assert_eq!(self.ring_epochs(), epochs, "a ring changed under a discovery");
            let router = self.attachments.router(self.stationary.at(next).host);
            let cost = self.distances().distance(prev_router, router);
            self.meter.record(MessageKind::DiscoveryHop, cost);
            hops += 1;
            path_cost += cost;
            (terminus, prev_router) = (next, router);
        }

        // Read the record at the owner, probing successor replicas if the
        // owner has no copy (it may have just joined, or the publisher's
        // copy died with a failed node).
        let mut resolved = None;
        // Who replies: the terminus, unless a later replica has the copy.
        let mut reply_router = prev_router;
        for replica in self.stationary.replica_slots(subject, self.config().location_replicas) {
            debug_assert_eq!(self.ring_epochs(), epochs, "a ring changed under a discovery");
            let node = self.stationary.at(replica);
            let router = self.attachments.router(node.host);
            if replica != terminus {
                let cost = self.distances().distance(prev_router, router);
                self.meter.record(MessageKind::DiscoveryHop, cost);
                hops += 1;
                path_cost += cost;
                prev_router = router;
            }
            if let Some(record) = node.store.get(&subject) {
                resolved = Some(record.addr);
                reply_router = router;
                // A record served by anyone but the route terminus means
                // the primary lost its copy (death, or a just-joined
                // owner): the replica chain absorbed the failure.
                if replica != terminus {
                    self.meter.bump(MessageKind::ReplicaFailover, 1);
                }
                break;
            }
        }

        // Reply hop back to the asker.
        let cost = self.distances().distance(reply_router, from_router);
        self.meter.record(MessageKind::DiscoveryHop, cost);
        hops += 1;
        path_cost += cost;

        if let Some(addr) = resolved {
            self.grant_lease(from_key, subject);
            debug_assert_eq!(self.ring_epochs(), epochs, "a ring changed under a discovery");
            self.cache_addr_at(from, subject, addr);
        }
        Ok(DiscoveryReport { resolved, hops, path_cost })
    }

    /// Routes a message from `src` toward `target` in the mobile layer,
    /// resolving mobile next-hops through the stationary layer whenever
    /// the cached state is null, unleased, or stale (paper Fig. 2).
    pub fn route_mobile(&mut self, src: Key, target: Key) -> Result<MobileRouteReport> {
        let mut cur = self.mobile.slot_of(src).map_err(|_| BristleError::UnknownNode(src))?;
        let mut report = MobileRouteReport {
            terminus: src,
            forward_hops: 0,
            discovery_hops: 0,
            discoveries: 0,
            failed_discoveries: 0,
            stale_attempts: 0,
            path_cost: 0,
            forward_cost: 0,
        };
        // The walk carries slab positions: each node on the route is
        // resolved once, by the forwarding decision that picked it. Nothing
        // between hops may insert into a ring (it would move the slots).
        let epochs = self.ring_epochs();
        while let Some(next) = self.mobile.next_hop_from(cur, target) {
            let (here, there) = (self.mobile.at(cur), self.mobile.at(next));
            let (cur_key, next_key, next_host) = (here.key, there.key, there.host);
            let cur_router = self.attachments.router(here.host);
            if !self.is_stationary_host(next_host) {
                // The lease first: without one the row's learned address
                // is not read at all.
                let leased = self.leases.is_fresh(cur_key, next_key, self.clock.now());
                let believed =
                    if leased { here.entry(next_key).and_then(|p| p.addr) } else { None };
                match believed {
                    Some(addr) if addr.is_valid(&self.attachments) => {
                        // Cached, leased, and actually current: forward directly.
                    }
                    other => {
                        if let Some(stale) = other {
                            // Confidently wrong: one wasted delivery attempt
                            // to the old attachment point.
                            let cost = self.distances().distance(cur_router, stale.router());
                            self.meter.record(MessageKind::RouteHop, cost);
                            report.stale_attempts += 1;
                            report.path_cost += cost;
                        }
                        let disc = self.discover_from(cur, next_key)?;
                        report.discoveries += 1;
                        report.discovery_hops += disc.hops;
                        report.path_cost += disc.path_cost;
                        if disc.resolved.is_none() {
                            report.failed_discoveries += 1;
                        }
                    }
                }
            }
            // Forward to the next node's true current attachment (after a
            // successful discovery the cached address equals it; if the
            // discovery failed we still charge the true cost, modelling an
            // eventual retry converging out of band).
            let next_router = self.attachments.router(next_host);
            let cost = self.distances().distance(cur_router, next_router);
            self.meter.record(MessageKind::RouteHop, cost);
            report.forward_hops += 1;
            report.path_cost += cost;
            report.forward_cost += cost;
            debug_assert_eq!(self.ring_epochs(), epochs, "a ring changed under a route");
            cur = next;
        }
        report.terminus = self.mobile.at(cur).key;
        Ok(report)
    }

    /// Stores application data under `data_key` in the mobile-layer
    /// HS-P2P: routes to the owner (Fig. 2 semantics) and stores there.
    pub fn store_data(
        &mut self,
        src: Key,
        data_key: Key,
        payload: Vec<u8>,
    ) -> Result<MobileRouteReport> {
        let report = self.route_mobile(src, data_key)?;
        self.mobile.node_mut(report.terminus)?.store.insert(data_key, payload);
        Ok(report)
    }

    /// Fetches application data stored under `data_key`, returning the
    /// payload (if present at the owner) and the route report.
    pub fn fetch_data(
        &mut self,
        src: Key,
        data_key: Key,
    ) -> Result<(Option<Vec<u8>>, MobileRouteReport)> {
        let report = self.route_mobile(src, data_key)?;
        let payload = self.mobile.node(report.terminus)?.store.get(&data_key).cloned();
        Ok((payload, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BristleConfig;
    use crate::system::BristleBuilder;
    use bristle_netsim::transit_stub::TransitStubConfig;

    fn system(n_stat: usize, n_mob: usize, seed: u64, cfg: BristleConfig) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(n_stat)
            .mobile_nodes(n_mob)
            .topology(TransitStubConfig::tiny())
            .config(cfg)
            .build()
            .unwrap()
    }

    #[test]
    fn discovery_resolves_published_location() {
        let mut sys = system(40, 10, 1, BristleConfig::recommended());
        let asker = sys.stationary_keys()[0];
        let subject = sys.mobile_keys()[0];
        let before = sys.meter.count(MessageKind::DiscoveryHop);
        let rep = sys.discover(asker, subject).unwrap();
        // Every hop the report counts is metered.
        assert_eq!(sys.meter.count(MessageKind::DiscoveryHop) - before, rep.hops as u64);
        let addr = rep.resolved.expect("published at build time");
        assert!(addr.is_valid(&sys.attachments));
        assert!(rep.hops >= 1);
        assert!(sys.leases.is_fresh(asker, subject, sys.clock.now()));
    }

    #[test]
    fn discovery_reflects_movement() {
        let mut sys = system(40, 10, 2, BristleConfig::recommended());
        let asker = sys.stationary_keys()[1];
        let subject = sys.mobile_keys()[0];
        let report = sys.move_node(subject, None).unwrap();
        let rep = sys.discover(asker, subject).unwrap();
        assert_eq!(rep.resolved.unwrap().router(), report.new_router);
    }

    #[test]
    fn route_reaches_owner_in_mobile_layer() {
        let mut sys = system(40, 20, 3, BristleConfig::recommended());
        let src = sys.stationary_keys()[0];
        let target = sys.mobile_keys()[3];
        let rep = sys.route_mobile(src, target).unwrap();
        assert_eq!(rep.terminus, sys.mobile.owner(target).unwrap());
        assert!(rep.forward_hops > 0 || src == rep.terminus);
    }

    #[test]
    fn stale_cache_triggers_discovery_after_move() {
        // Zero-lease config: every mobile hop must discover.
        let mut sys = system(30, 30, 4, BristleConfig::paper_scrambled());
        // Move every mobile node so cached addresses go stale for real.
        for m in sys.mobile_keys().to_vec() {
            sys.move_node(m, None).unwrap();
        }
        let src = sys.stationary_keys()[0];
        let mut any_discovery = false;
        for i in 0..10 {
            let target = sys.mobile_keys()[i];
            let rep = sys.route_mobile(src, target).unwrap();
            if rep.discoveries > 0 {
                any_discovery = true;
                assert!(rep.discovery_hops >= rep.discoveries);
            }
        }
        assert!(any_discovery, "routes to mobile keys must resolve addresses");
    }

    #[test]
    fn fresh_lease_avoids_discovery() {
        let mut sys = system(30, 10, 5, BristleConfig::recommended());
        let src = sys.stationary_keys()[0];
        let target = sys.mobile_keys()[0];
        // First route may discover; the second must reuse leases.
        sys.route_mobile(src, target).unwrap();
        let rep2 = sys.route_mobile(src, target).unwrap();
        assert_eq!(rep2.discoveries, 0, "leases should suppress rediscovery");
    }

    #[test]
    fn moved_node_with_live_lease_costs_a_stale_attempt() {
        let mut sys = system(30, 10, 6, BristleConfig::recommended());
        let src = sys.stationary_keys()[0];
        let target = sys.mobile_keys()[0];
        // Prime caches along the path.
        sys.route_mobile(src, target).unwrap();
        // Move the target but *suppress* its LDT advertisement by moving
        // the host directly (simulating a lost update).
        let host = sys.node_info(target).unwrap().host;
        let new_router = sys.stub_routers()[0];
        sys.attachments.move_host(host, new_router);
        let rep = sys.route_mobile(src, target).unwrap();
        // The hop *into* the target (if the route ends there with a primed
        // lease) pays a wasted attempt then rediscovers.
        if rep.terminus == target && rep.discoveries > 0 {
            assert!(rep.stale_attempts > 0);
        }
    }

    #[test]
    fn store_and_fetch_roundtrip() {
        let mut sys = system(30, 10, 7, BristleConfig::recommended());
        let src = sys.stationary_keys()[0];
        let reader = sys.mobile_keys()[2];
        let data_key = Key(0x1234_5678_9abc_def0);
        sys.store_data(src, data_key, b"bristle".to_vec()).unwrap();
        let (payload, rep) = sys.fetch_data(reader, data_key).unwrap();
        assert_eq!(payload.as_deref(), Some(&b"bristle"[..]));
        assert_eq!(rep.terminus, sys.mobile.owner(data_key).unwrap());
    }

    #[test]
    fn data_survives_owner_movement() {
        // The paper's end-to-end-semantics claim: moving a node does not
        // orphan the data it owns, because its overlay identity (and thus
        // ownership) is retained.
        let mut sys = system(20, 20, 8, BristleConfig::recommended());
        let src = sys.stationary_keys()[0];
        // Pick a data key owned by a mobile node.
        let data_key = {
            let mut k = None;
            for i in 0..256u64 {
                // Sweep the whole ring so some candidate lands in the
                // mobile key band regardless of the naming scheme.
                let cand = Key(i.wrapping_mul(u64::MAX / 256 + 1));
                if sys.is_mobile(sys.mobile.owner(cand).unwrap()) {
                    k = Some(cand);
                    break;
                }
            }
            k.expect("some key owned by a mobile node")
        };
        sys.store_data(src, data_key, vec![42]).unwrap();
        let owner = sys.mobile.owner(data_key).unwrap();
        sys.move_node(owner, None).unwrap();
        let (payload, _) = sys.fetch_data(src, data_key).unwrap();
        assert_eq!(payload, Some(vec![42]), "Type-A systems would lose this");
    }

    #[test]
    fn route_from_unknown_source_errors() {
        let mut sys = system(10, 0, 9, BristleConfig::recommended());
        let err = sys.route_mobile(Key(0xdead), Key(1)).unwrap_err();
        assert_eq!(err, BristleError::UnknownNode(Key(0xdead)));
        assert_eq!(sys.discover(Key(0xdead), Key(1)).unwrap_err(), err);
    }

    #[test]
    fn total_hops_accounts_all_traffic() {
        let mut sys = system(30, 30, 10, BristleConfig::paper_clustered());
        for m in sys.mobile_keys().to_vec() {
            sys.move_node(m, None).unwrap();
        }
        let src = sys.stationary_keys()[0];
        let dst = sys.stationary_keys()[7];
        let rep = sys.route_mobile(src, dst).unwrap();
        assert_eq!(rep.total_hops(), rep.forward_hops + rep.discovery_hops + rep.stale_attempts);
    }
}
