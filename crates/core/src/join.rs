//! Bristle node join and leave (paper §2.3.3, Figure 5).
//!
//! A joining node `i` routes a join message toward its own key; every
//! node `k` the message visits (a) adopts `i` into its state if `i`'s key
//! improves on an existing entry, and (b) offers `k` and `state[k]` back
//! to `i`, which adopts entries that are closer in key space *and*
//! physically nearer than what it already has (the network-proximity
//! check `distance(r, i) < distance(q, i)`).
//!
//! Registration bookkeeping follows §2.3.1's invariant — whoever ends up
//! holding a mobile node's state-pair registers to that node. (Fig. 5's
//! inline comments state the direction ambiguously; §2.3.1's definition
//! "X registers itself to nodes whose state-pairs are replicated in X" is
//! the consistent one and is what we implement.)
//!
//! This join costs the paper's 2 × O(log N) messages and produces the
//! same steady state the omniscient `rewire()` builds; the deliberately
//! redundant test `join_matches_omniscient_wiring` checks that.

use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;

use crate::error::Result;
use crate::naming::Mobility;
use crate::system::BristleSystem;

/// What a join accomplished.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// The key assigned to the new node.
    pub key: Key,
    /// Join-protocol messages sent (the paper's 2 × O(log N)).
    pub messages: u64,
}

impl BristleSystem {
    /// Admits a brand-new node of the given mobility class through the
    /// Figure 5 join protocol, bootstrapping via a random existing node.
    pub fn join_node(&mut self, mobility: Mobility) -> Result<JoinReport> {
        // Pick a bootstrap node before admitting, so the route is sampled
        // over the pre-join population.
        let bootstrap = {
            let keys: Vec<Key> = self.mobile.keys().collect();
            if keys.is_empty() {
                None
            } else {
                let idx = self.rng().index(keys.len());
                Some(keys[idx])
            }
        };
        let key = self.admit(mobility)?;

        let mut visited = Vec::new();
        let mut messages = 0u64;
        if let Some(boot) = bootstrap {
            // The join message travels toward the newcomer's key.
            let dcache = self.distances_arc();
            let route = self.mobile.route_as(
                boot,
                key,
                MessageKind::Join,
                &self.attachments,
                &dcache,
                &mut self.meter,
            )?;
            messages += route.hop_count() as u64;
            visited.push(boot);
            visited.extend(route.hops.iter().copied().filter(|&h| h != key));

            // (a) Visited nodes adopt the newcomer where it improves their
            // tables; (b) the newcomer assembles its own table from what
            // it saw. Rebuilding against the live map realizes exactly the
            // closer-key + closer-distance rule of Fig. 5.
            let mut rng = self.rng().split(5);
            let mut rebuilt = visited.clone();
            rebuilt.push(key);
            self.mobile.rebuild(&rebuilt, &self.attachments, &dcache, &mut rng)?;
            // One state exchange per visit.
            messages += visited.len() as u64;
            self.meter.bump(MessageKind::Join, visited.len() as u64);
            if mobility == Mobility::Stationary {
                self.stationary.rebuild(&[key], &self.attachments, &dcache, &mut rng)?;
                // Stationary neighbors of the newcomer adopt it too.
                let neighbors = self.stationary.node(key)?.keys().to_vec();
                self.stationary.rebuild(&neighbors, &self.attachments, &dcache, &mut rng)?;
            }
        }

        // Registration sync along §2.3.1: the newcomer registers to the
        // mobile nodes it now holds; nodes that adopted the newcomer
        // register to it (if it is mobile).
        let my_cap = self.node_info(key)?.capacity;
        let my_entries = self.mobile.node(key)?.keys().to_vec();
        for subject in my_entries {
            if self.is_mobile(subject) {
                self.add_registrant(key, my_cap, subject);
                self.meter.bump(MessageKind::Register, 1);
                messages += 1;
            }
        }
        if mobility == Mobility::Mobile {
            for &holder in &visited {
                if self.mobile.node(holder)?.knows(key) {
                    let cap = self.node_info(holder)?.capacity;
                    self.add_registrant(holder, cap, key);
                    self.meter.bump(MessageKind::Register, 1);
                    messages += 1;
                }
            }
            self.publish_location(key)?;
        }
        Ok(JoinReport { key, messages })
    }

    /// Graceful leave: unpublishes the node's location, dissolves its
    /// registrations and leases, hands its stored records to successors,
    /// and removes it from both layers.
    pub fn leave_node(&mut self, key: Key) -> Result<()> {
        let info = *self.node_info(key)?;
        if info.mobility == Mobility::Mobile {
            self.withdraw_location(key)?;
        }
        self.dissolve(key);
        let dcache = self.distances_arc();
        self.mobile.leave_gracefully(key, &self.attachments, &dcache, &mut self.meter)?;
        if info.mobility == Mobility::Stationary {
            self.hand_off_shard(key)?;
        }
        self.forget(key);
        self.stores.forget(key);
        Ok(())
    }

    /// Abrupt failure: the node vanishes without notice. Its stored
    /// records, registrations and published locations linger until
    /// refresh cycles clean them up — exactly the damage reliability
    /// experiments measure.
    pub fn fail_node(&mut self, key: Key) -> Result<()> {
        let info = *self.node_info(key)?;
        // Crash semantics: the node's durable store holds its rows as of
        // the instant of death and stops changing (idempotent;
        // `confirm_dead` also freezes).
        self.freeze_store(key);
        self.mobile.fail_node(key)?;
        if info.mobility == Mobility::Stationary {
            self.stationary.fail_node(key)?;
        }
        self.forget(key);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BristleConfig;
    use crate::system::BristleBuilder;
    use bristle_netsim::transit_stub::TransitStubConfig;

    fn system(n_stat: usize, n_mob: usize, seed: u64) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(n_stat)
            .mobile_nodes(n_mob)
            .topology(TransitStubConfig::tiny())
            .config(BristleConfig::recommended())
            .build()
            .unwrap()
    }

    #[test]
    fn join_admits_routable_node() {
        let mut sys = system(30, 10, 1);
        let report = sys.join_node(Mobility::Mobile).unwrap();
        assert!(sys.is_mobile(report.key));
        assert_eq!(sys.len(), 41);
        // The newcomer can route and be routed to.
        let src = sys.stationary_keys()[0];
        let rep = sys.route_mobile(src, report.key).unwrap();
        assert_eq!(rep.terminus, sys.mobile.owner(report.key).unwrap());
        let back = sys.route_mobile(report.key, src).unwrap();
        assert_eq!(back.terminus, sys.mobile.owner(src).unwrap());
    }

    #[test]
    fn join_message_cost_is_logarithmic() {
        let mut sys = system(120, 40, 2);
        let mut total = 0u64;
        for _ in 0..10 {
            total += sys.join_node(Mobility::Mobile).unwrap().messages;
        }
        let avg = total as f64 / 10.0;
        // 2 × O(log N) with log4(170) ≈ 3.7 and ~O(log N) registrations:
        // anything beyond ~12× log2 N would indicate quadratic behavior.
        let bound = 12.0 * (sys.len() as f64).log2();
        assert!(avg < bound, "avg join messages {avg} vs bound {bound}");
        assert!(avg >= 2.0, "join must send something");
    }

    #[test]
    fn joined_mobile_node_publishes_location() {
        let mut sys = system(30, 5, 3);
        let report = sys.join_node(Mobility::Mobile).unwrap();
        let asker = sys.stationary_keys()[0];
        let disc = sys.discover(asker, report.key).unwrap();
        assert!(disc.resolved.is_some(), "location must be discoverable right after join");
    }

    #[test]
    fn joined_stationary_node_serves_stationary_layer() {
        let mut sys = system(30, 5, 4);
        let report = sys.join_node(Mobility::Stationary).unwrap();
        assert!(sys.stationary.contains(report.key));
        assert_eq!(sys.stationary.len(), 31);
        assert!(sys.naming().permits(report.key, Mobility::Stationary));
    }

    #[test]
    fn join_matches_omniscient_wiring() {
        // After a protocol join, a full rewire must not change the
        // newcomer's reachability (tables may differ in proximity picks,
        // but routing outcomes agree).
        let mut sys = system(40, 10, 5);
        let report = sys.join_node(Mobility::Mobile).unwrap();
        let src = sys.stationary_keys()[1];
        let before = sys.route_mobile(src, report.key).unwrap().terminus;
        sys.rewire();
        let after = sys.route_mobile(src, report.key).unwrap().terminus;
        assert_eq!(before, after);
    }

    #[test]
    fn leave_cleans_every_trace() {
        let mut sys = system(30, 10, 6);
        let victim = sys.mobile_keys()[0];
        sys.leave_node(victim).unwrap();
        assert!(!sys.mobile.contains(victim));
        assert!(sys.node_info(victim).is_err());
        assert!(sys.registry.registrants_of(victim).is_empty());
        assert_eq!(sys.mobile_keys().len(), 9);
        // Its published location is gone: discovery fails.
        let asker = sys.stationary_keys()[0];
        let disc = sys.discover(asker, victim).unwrap();
        assert!(disc.resolved.is_none());
    }

    #[test]
    fn a_departed_nodes_store_stays_forgotten() {
        // Regression: `leave_node` left the leaver's *held* leases in the
        // table, so the next purge mirrored a `LeaseRevoke` to the key
        // `stores.forget` had just removed and `StoreHub::apply`
        // re-created a backend for it.
        let mut sys = system(30, 10, 10);
        let m = sys.mobile_keys()[0];
        sys.move_node(m, None).unwrap();
        let leaver = sys.registry.registrants_of(m)[0].key;
        assert!(sys.leases.is_fresh(leaver, m, sys.clock.now()), "the leaver holds a lease");
        sys.leave_node(leaver).unwrap();
        assert!(sys.stores.state(leaver).is_none(), "forgotten at the leave");
        let ttl = sys.config().lease_ttl;
        sys.tick(ttl + 1);
        assert!(sys.stores.state(leaver).is_none(), "and not re-created by the purge");
    }

    #[test]
    fn stationary_leave_shrinks_both_layers() {
        let mut sys = system(30, 10, 7);
        let victim = sys.stationary_keys()[5];
        sys.leave_node(victim).unwrap();
        assert_eq!(sys.stationary.len(), 29);
        assert_eq!(sys.mobile.len(), 39);
        assert_eq!(sys.stationary_keys().len(), 29);
    }

    #[test]
    fn fail_node_leaves_stale_location_records() {
        let mut sys = system(30, 10, 8);
        let victim = sys.mobile_keys()[0];
        sys.fail_node(victim).unwrap();
        assert!(!sys.mobile.contains(victim));
        // The stationary layer still *claims* to know where it is — the
        // record is stale, which is what refresh cycles must clean up.
        let asker = sys.stationary_keys()[0];
        let disc = sys.discover(asker, victim).unwrap();
        assert!(disc.resolved.is_some(), "stale record lingers after abrupt failure");
    }

    #[test]
    fn system_survives_churn_burst() {
        let mut sys = system(40, 20, 9);
        for i in 0..10 {
            if i % 2 == 0 {
                sys.join_node(Mobility::Mobile).unwrap();
            } else {
                let victim = sys.mobile_keys()[0];
                sys.leave_node(victim).unwrap();
            }
        }
        sys.rewire();
        sys.sync_registrations();
        let src = sys.stationary_keys()[0];
        for &m in sys.mobile_keys().to_vec().iter().take(5) {
            let rep = sys.route_mobile(src, m).unwrap();
            assert_eq!(rep.terminus, sys.mobile.owner(m).unwrap());
        }
    }
}
