//! The Bristle system: both layers, the physical network, and all
//! location-management state behind one facade.
//!
//! A [`BristleSystem`] owns
//!
//! * the physical substrate (transit-stub topology, attachment map,
//!   distance oracle),
//! * the **stationary layer** — an HS-P2P over the stationary nodes that
//!   stores [`LocationRecord`]s,
//! * the **mobile layer** — an HS-P2P over *all* nodes carrying
//!   application traffic (its cached `<key, addr>` state-pairs can go
//!   stale when nodes move),
//! * the registration state R(·), the lease table, the virtual clock and
//!   the message meter.
//!
//! Protocol operations live in impl blocks beside this one:
//! construction and location management here, every write to the
//! registration, lease and record tables in [`crate::repo`], Figure-2
//! routing and `_discovery` in [`crate::mobile`], and the join/leave
//! protocol in [`crate::join`].

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use bristle_netsim::attach::{AttachmentMap, HostId};
use bristle_netsim::dijkstra::DistanceCache;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::{TransitStubConfig, TransitStubTopology};
use bristle_overlay::addr::{NetAddr, NoAddr, RowAddr};
use bristle_overlay::key::Key;
use bristle_overlay::meter::{MessageKind, Meter};
use bristle_overlay::node::NodeRef;
use bristle_overlay::ring::RingDht;

use crate::arena::{KeyInterner, NodeArena, NodeIdx};
use crate::config::{BristleConfig, NamingPolicy};
use crate::durable::{Disk, StoreHub};
use crate::error::{BristleError, Result};
use crate::heal::Corpse;
use crate::ldt::Ldt;
use crate::lease::LeaseTable;
use crate::location::LocationRecord;
use crate::naming::{Mobility, NamingScheme};
use crate::registry::{Registrant, Registry};
use crate::time::Clock;

/// Static facts about one Bristle node.
#[derive(Debug, Clone, Copy)]
pub struct NodeInfo {
    /// The physical host embodying the node.
    pub host: HostId,
    /// Stationary or mobile.
    pub mobility: Mobility,
    /// Advertised capacity.
    pub capacity: u32,
    /// SWIM-style incarnation number. Only the node itself bumps it, and
    /// only on learning it was wrongfully suspected or declared dead; it
    /// dominates `seq` when location records conflict after a partition.
    pub incarnation: u64,
    /// Location-publication sequence number (mobile nodes).
    pub seq: u64,
}

/// What a [`BristleSystem::move_node`] did.
#[derive(Debug, Clone)]
pub struct MoveReport {
    /// Where the node is now attached.
    pub new_router: RouterId,
    /// Hops spent publishing the new location to the stationary layer.
    pub publish_hops: usize,
    /// The LDT the update was disseminated through.
    pub ldt: Ldt,
    /// Update messages sent along LDT edges.
    pub updates_sent: usize,
    /// Physical cost of those update messages.
    pub update_cost: u64,
}

/// The assembled Bristle system.
pub struct BristleSystem {
    cfg: BristleConfig,
    naming: NamingScheme,
    /// Virtual clock; leases and record TTLs run on it.
    pub clock: Clock,
    /// System-wide message accounting.
    pub meter: Meter,
    rng: Pcg64,
    /// Host attachments (the physical face of mobility).
    pub attachments: AttachmentMap,
    dcache: Arc<DistanceCache>,
    stub_routers: Vec<RouterId>,
    /// The stationary layer: location-information repository.
    pub stationary: RingDht<LocationRecord, NoAddr>,
    /// The mobile layer: the application HS-P2P over all nodes.
    pub mobile: RingDht<Vec<u8>>,
    /// Per-node hot state, flat-indexed by [`NodeIdx`]. Live nodes only;
    /// a vacant slot means the node left or died.
    pub(crate) info: NodeArena<NodeInfo>,
    /// Indexed by [`HostId`]: whether a live stationary node has this
    /// host — the stationary ring's membership as one local read.
    /// Written by `enroll` and [`Self::forget`] only, the two calls
    /// every change of that membership is paired with.
    stationary_hosts: Vec<bool>,
    /// Bumped by the two calls that make or unmake an identity:
    /// `repo::set_identity` and [`Self::forget`].
    pub(crate) identity_epoch: u64,
    stationary_keys: Vec<Key>,
    mobile_keys: Vec<Key>,
    /// Registration state R(·) (§2.3.1), owner of [`Self::interner`].
    pub registry: Registry,
    /// Explicit registrations `(holder, target)`, kept with or without a
    /// row: `add_registrant`'s and a restart's. A funeral or leave ends them.
    pub(crate) interests: BTreeSet<(Key, Key)>,
    /// Lease contracts on cached addresses (§2.3.2).
    pub leases: LeaseTable,
    /// Nodes confirmed crashed by the failure detector, one [`Corpse`]
    /// each, holding the body and the disk it left. Written by
    /// [`crate::heal`]'s `confirm_dead`, [`Self::take_corpse`],
    /// `discard_disk` and [`Self::tick`]'s pruning, nothing else.
    pub(crate) corpses: HashMap<Key, Corpse>,
    /// The WALs of live nodes: every repository mutation of a node that
    /// has one is mirrored into it, by [`crate::repo`] and nothing else.
    /// A node has none until [`Self::attach_wal`] gives it one.
    pub stores: StoreHub,
}

/// Rows of cached Dijkstra output every built system's distance oracle
/// may hold: past every router count but the `paper()` topology's, so
/// most systems never evict (DESIGN §2, S2).
const DISTANCE_CACHE_ROWS: usize = 4096;

/// How long (ticks) a confirmed corpse's state is retained in the
/// graveyard before [`BristleSystem::tick`] prunes it. While retained, a
/// wrongful funeral can be reversed and a withdrawn record cannot be
/// replayed; afterwards the memory is reclaimed so long-running churn
/// stays bounded. Four times the recommended `location_ttl`, so every
/// record a corpse could replay has expired before its verdict goes.
pub const GRAVEYARD_RETENTION: u64 = 2400;

/// Builder for [`BristleSystem`].
#[derive(Debug, Clone)]
pub struct BristleBuilder {
    seed: u64,
    config: BristleConfig,
    topology: TransitStubConfig,
    n_stationary: usize,
    n_mobile: usize,
    workers: usize,
}

impl BristleBuilder {
    /// Starts a builder with the recommended configuration, a small
    /// topology, and 64 stationary / 0 mobile nodes.
    pub fn new(seed: u64) -> Self {
        BristleBuilder {
            seed,
            config: BristleConfig::recommended(),
            topology: TransitStubConfig::small(),
            n_stationary: 64,
            n_mobile: 0,
            workers: 1,
        }
    }

    /// Sets the number of stationary nodes (must be ≥ 1).
    pub fn stationary_nodes(mut self, n: usize) -> Self {
        self.n_stationary = n;
        self
    }

    /// Sets the number of mobile nodes.
    pub fn mobile_nodes(mut self, n: usize) -> Self {
        self.n_mobile = n;
        self
    }

    /// Overrides the protocol configuration.
    pub fn config(mut self, cfg: BristleConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Overrides the physical topology.
    pub fn topology(mut self, t: TransitStubConfig) -> Self {
        self.topology = t;
        self
    }

    /// Shards the initial table wiring across this many threads
    /// (see [`BristleSystem::rewire_with_workers`]; results are
    /// bit-identical at any worker count).
    pub fn build_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builds the system: generates the topology, attaches hosts, assigns
    /// keys under the naming policy, wires both layers, populates the
    /// registry from reverse routing pointers, and publishes every mobile
    /// node's initial location.
    pub fn build(self) -> Result<BristleSystem> {
        let (n_stationary, n_mobile, workers) = (self.n_stationary, self.n_mobile, self.workers);
        let mut sys = self.assemble();
        sys.admit_all(n_stationary, n_mobile)?;
        sys.rewire_with_workers(workers);
        sys.sync_registrations();
        sys.publish_all_locations()?;
        Ok(sys)
    }

    /// The system before anyone is admitted: the topology, and both rings
    /// sized for everyone [`Self::build`] admits.
    pub(crate) fn assemble(self) -> BristleSystem {
        self.config.validate();
        assert!(self.n_stationary >= 1, "need at least one stationary node");
        let mut rng = Pcg64::seed_from_u64(self.seed);
        let mut topo_rng = rng.split(1);
        let topo = TransitStubTopology::generate(&self.topology, &mut topo_rng);
        let stub_routers = topo.stub_routers().to_vec();
        let dcache = Arc::new(DistanceCache::new(Arc::new(topo.into_graph()), DISTANCE_CACHE_ROWS));

        let total = self.n_stationary + self.n_mobile;
        let naming = match self.config.naming {
            NamingPolicy::Scrambled => NamingScheme::Scrambled,
            NamingPolicy::Clustered => {
                NamingScheme::clustered(self.n_stationary as f64 / total as f64)
            }
        };
        let ring = self.config.ring.clone();

        BristleSystem {
            cfg: self.config,
            naming,
            clock: Clock::new(),
            meter: Meter::new(),
            rng: rng.split(2),
            attachments: AttachmentMap::new(),
            dcache,
            stub_routers,
            // Sized for everyone `build` admits, so admission never lays
            // a slab out again and each ring fills in one pass.
            stationary: RingDht::with_capacity(ring.clone(), self.n_stationary),
            mobile: RingDht::with_capacity(ring, total),
            info: NodeArena::new(),
            stationary_hosts: Vec::new(),
            identity_epoch: 0,
            stationary_keys: Vec::new(),
            mobile_keys: Vec::new(),
            registry: Registry::new(),
            interests: BTreeSet::new(),
            leases: LeaseTable::new(),
            corpses: HashMap::new(),
            stores: StoreHub::new(),
        }
    }
}

impl BristleSystem {
    // ------------------------------------------------------------------
    // Construction helpers (used by the builder and by `join_node`).
    // ------------------------------------------------------------------

    /// Draws a fresh, non-colliding key for the mobility class.
    pub(crate) fn new_key(&mut self, mobility: Mobility) -> Result<Key> {
        for _ in 0..1024 {
            let k = self.naming.assign(mobility, &mut self.rng);
            // Collides only with *live* nodes: a departed node's key may
            // be re-drawn (its interned index is simply reoccupied).
            if !self.contains_node(k) {
                return Ok(k);
            }
        }
        Err(BristleError::KeySpaceExhausted)
    }

    /// The dense index for `key`, interning it on first sight.
    #[inline]
    pub(crate) fn idx(&mut self, key: Key) -> NodeIdx {
        self.registry.keys.intern(key)
    }

    /// The info slot for a key that must name a live node.
    ///
    /// # Panics
    /// Panics if `key` is unknown or not live — callers on hot paths use
    /// this where the old code indexed `info[&key]`.
    #[inline]
    pub(crate) fn info_unchecked(&self, key: Key) -> &NodeInfo {
        let idx = self.interner().get(key).expect("known node");
        self.info.get(idx).expect("live node")
    }

    /// Whether `key` names a live node.
    #[inline]
    pub fn contains_node(&self, key: Key) -> bool {
        self.interner().get(key).is_some_and(|i| self.info.contains(i))
    }

    /// Creates a node body (host + key + capacity) and inserts it into the
    /// appropriate layers *without* wiring routing tables.
    pub(crate) fn admit(&mut self, mobility: Mobility) -> Result<Key> {
        let (key, info) = self.draw(mobility)?;
        self.readmit(key, info)?;
        Ok(key)
    }

    /// `stationary` then `mobile` newcomers, as that many [`Self::admit`]s
    /// make them — the same draws, identities, ring slots and epochs —
    /// with each ring laid out once ([`RingDht::insert_all`]).
    pub(crate) fn admit_all(&mut self, stationary: usize, mobile: usize) -> Result<()> {
        let mut bodies = Vec::with_capacity(stationary + mobile);
        for i in 0..stationary + mobile {
            let class = if i < stationary { Mobility::Stationary } else { Mobility::Mobile };
            let (key, info) = self.draw(class)?;
            self.set_identity(key, info);
            self.enroll(key, info);
            bodies.push((key, info.host, info.capacity));
        }
        self.mobile.insert_all(&bodies)?;
        self.stationary.insert_all(&bodies[..stationary])?;
        Ok(())
    }

    /// A newcomer's body, drawn from the system RNG in this order: its
    /// key, its router (where its host is attached) and its capacity.
    fn draw(&mut self, mobility: Mobility) -> Result<(Key, NodeInfo)> {
        let key = self.new_key(mobility)?;
        let router = *self.rng.choose(&self.stub_routers);
        let host = match mobility {
            Mobility::Stationary => self.attachments.attach_fixed(router),
            Mobility::Mobile => self.attachments.attach_new(router),
        };
        let (lo, hi) = self.cfg.capacity_range;
        let capacity = self.rng.range_inclusive(lo as u64, hi as u64) as u32;
        Ok((key, NodeInfo { host, mobility, capacity, incarnation: 0, seq: 0 }))
    }

    /// Takes a buried body and its disk back out of the graveyard,
    /// verdict and all (rejoin and restart). A verdict that buried nobody
    /// stays.
    pub(crate) fn take_corpse(&mut self, key: Key) -> Option<(NodeInfo, Disk)> {
        self.corpses.get(&key)?.body.as_ref()?;
        self.corpses.remove(&key)?.body
    }

    /// How many bodies the graveyard currently retains. Bounded under
    /// perpetual churn by [`GRAVEYARD_RETENTION`].
    pub fn graveyard_len(&self) -> usize {
        self.corpses.values().filter(|c| c.body.is_some()).count()
    }

    /// Inserts a node body into the membership structures of its layers:
    /// a newcomer's, or a previously buried node's from its corpse state
    /// — the structural reverse of [`BristleSystem::fail_node`], whose
    /// host is still attached (abrupt failure never detaches it). A
    /// stationary node's host is attached fixed, a mobile node's not. The
    /// caller rebuilds wiring.
    pub(crate) fn readmit(&mut self, key: Key, info: NodeInfo) -> Result<()> {
        let fixed = info.mobility == Mobility::Stationary;
        debug_assert_eq!(self.attachments.is_fixed(info.host), fixed, "{key}'s host class");
        self.set_identity(key, info);
        self.mobile.insert(key, info.host, info.capacity)?;
        if fixed {
            self.stationary.insert(key, info.host, info.capacity)?;
        }
        self.enroll(key, info);
        Ok(())
    }

    /// Lists a node its rings now hold under its class: its key, and a
    /// stationary node's host bit.
    fn enroll(&mut self, key: Key, info: NodeInfo) {
        match info.mobility {
            Mobility::Stationary => {
                self.stationary_keys.push(key);
                let host = info.host.index();
                if self.stationary_hosts.len() <= host {
                    self.stationary_hosts.resize(host + 1, false);
                }
                self.stationary_hosts[host] = true;
            }
            Mobility::Mobile => self.mobile_keys.push(key),
        }
    }

    /// Rebuilds every routing table in both layers (steady-state wiring).
    pub fn rewire(&mut self) {
        self.rewire_with_workers(1);
    }

    /// [`BristleSystem::rewire`] with the per-layer table builds sharded
    /// across `workers` scoped threads. Produces bit-identical tables at
    /// any worker count: the RNG split happens once up front exactly as
    /// in `rewire`, and [`RingDht::build_all_tables`] is one body whose
    /// results do not depend on the sharding (an RNG-consuming selection
    /// policy runs as a single shard on the caller's RNG, in ring order).
    pub fn rewire_with_workers(&mut self, workers: usize) {
        let mut rng = self.rng.split(3);
        self.stationary.build_all_tables(&self.attachments, &self.dcache, &mut rng, workers);
        self.mobile.build_all_tables(&self.attachments, &self.dcache, &mut rng, workers);
    }

    /// Publishes every mobile node's current location (initial state).
    pub fn publish_all_locations(&mut self) -> Result<()> {
        let keys = self.mobile_keys.clone();
        for k in keys {
            self.publish_location(k)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Protocol configuration.
    pub fn config(&self) -> &BristleConfig {
        &self.cfg
    }

    /// The key-assignment scheme in force.
    pub fn naming(&self) -> &NamingScheme {
        &self.naming
    }

    /// Total nodes.
    pub fn len(&self) -> usize {
        self.info.len()
    }

    /// Whether the system has no nodes.
    pub fn is_empty(&self) -> bool {
        self.info.is_empty()
    }

    /// Keys of the stationary nodes.
    pub fn stationary_keys(&self) -> &[Key] {
        &self.stationary_keys
    }

    /// Keys of the mobile nodes.
    pub fn mobile_keys(&self) -> &[Key] {
        &self.mobile_keys
    }

    /// Static facts about a node.
    pub fn node_info(&self, key: Key) -> Result<&NodeInfo> {
        let idx = self.interner().get(key);
        idx.and_then(|i| self.info.get(i)).ok_or(BristleError::UnknownNode(key))
    }

    /// A count that moves whenever membership does — a node gains or
    /// loses its identity, joins or leaves either ring, or an edge of
    /// R(·) is added or removed — and never moves back. Each table
    /// counts its own changes inside its own mutators, so a write that
    /// reaches one directly (they are `pub`) is counted too. Moves,
    /// leases and location records are not membership.
    pub fn membership_epoch(&self) -> u64 {
        self.identity_epoch + self.registry.epoch() + self.stationary.epoch() + self.mobile.epoch()
    }

    /// Whether `host` embodies a live stationary node: one indexed read
    /// where a caller holds the host already (a routing row's address, a
    /// slab occupant), in place of a lookup by key.
    #[inline]
    pub(crate) fn is_stationary_host(&self, host: HostId) -> bool {
        self.stationary_hosts.get(host.index()).is_some_and(|&live| live)
    }

    /// Whether `key` names a mobile node.
    pub fn is_mobile(&self, key: Key) -> bool {
        self.interner()
            .get(key)
            .and_then(|i| self.info.get(i))
            .is_some_and(|i| i.mobility == Mobility::Mobile)
    }

    /// The key ⇄ dense-index bijection R(·) keeps its edges in. Read-only;
    /// useful for sharing per-node state with measurement threads.
    pub fn interner(&self) -> &KeyInterner {
        &self.registry.keys
    }

    /// The distance oracle over the physical topology.
    pub fn distances(&self) -> &DistanceCache {
        &self.dcache
    }

    /// Whether the topology has `router`: what the distance oracle may
    /// be indexed with. Routers the system hands out always are.
    pub fn has_router(&self, router: RouterId) -> bool {
        router.index() < self.dcache.graph().vertex_count()
    }

    /// A shareable handle to the distance oracle (useful when a call
    /// needs the oracle and disjoint mutable parts of the system at once).
    pub fn distances_arc(&self) -> Arc<DistanceCache> {
        Arc::clone(&self.dcache)
    }

    /// Routers hosts may attach to.
    pub fn stub_routers(&self) -> &[RouterId] {
        &self.stub_routers
    }

    /// The node's current physical router.
    pub fn router_of(&self, key: Key) -> Result<RouterId> {
        Ok(self.attachments.router(self.node_info(key)?.host))
    }

    /// Mutable access to the system RNG (workload generators share it).
    pub fn rng(&mut self) -> &mut Pcg64 {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Location management (§2.3): register / update / publish.
    // ------------------------------------------------------------------

    /// Picks the stationary-layer entry point a node uses to inject
    /// messages into the location-management layer: itself when
    /// stationary, otherwise the physically closest stationary node in
    /// its routing state (falling back to the stationary owner of its own
    /// key when it knows none).
    pub fn entry_stationary_for(&self, from: Key) -> Result<Key> {
        let node = self.mobile.node(from).map_err(|_| BristleError::UnknownNode(from))?;
        self.entry_stationary_at(node)
    }

    /// [`Self::entry_stationary_for`] for a caller that holds the asker's
    /// mobile-layer state already. Everything read is the asker's own or
    /// one indexed load away: a fixed peer's row names its host, whether
    /// that host is a live stationary node's comes from
    /// `stationary_hosts`, where it is from `attachments`.
    pub(crate) fn entry_stationary_at(&self, node: NodeRef<'_, Vec<u8>>) -> Result<Key> {
        if self.is_stationary_host(node.host) {
            return Ok(node.key);
        }
        if self.stationary.is_empty() {
            return Err(BristleError::NoStationaryLayer);
        }
        // One row serves every entry: the asker's distances to all routers.
        let row = self.dcache.row(self.attachments.router(node.host));
        let mut best: Option<(u32, Key)> = None;
        for (&k, peer) in node.keys().iter().zip(node.addrs()) {
            // Stationary nodes are attached fixed, and a host embodies
            // one node for good, so a set bit means the row's host is
            // where the row's key is.
            let Some(host) = peer.fixed_host().filter(|&h| self.is_stationary_host(h)) else {
                continue;
            };
            let d = row[self.attachments.router(host).index()];
            if best.map(|(b, _)| d < b).unwrap_or(true) {
                best = Some((d, k));
            }
        }
        match best {
            Some((_, k)) => Ok(k),
            None => Ok(self.stationary.owner(node.key)?),
        }
    }

    /// Publishes `key`'s current location to the stationary layer
    /// (replicated `location_replicas` ways). Returns hops spent.
    pub fn publish_location(&mut self, key: Key) -> Result<usize> {
        let info = *self.node_info(key)?;
        if info.mobility != Mobility::Mobile {
            return Err(BristleError::NotMobile(key));
        }
        let record = LocationRecord::fresh(
            key,
            info.host,
            &self.attachments,
            info.incarnation,
            info.seq,
            self.clock.now(),
            self.cfg.location_ttl,
        );
        let entry = self.entry_stationary_for(key)?;
        // First hop: the mobile node hands the record to its entry point.
        let from_router = self.attachments.router(info.host);
        let entry_router = self.attachments.router(self.info_unchecked(entry).host);
        self.meter.record(MessageKind::Publish, self.dcache.distance(from_router, entry_router));
        // Then one hop per replica that stores it.
        Ok(1 + self.publish_record(entry, record)?)
    }

    /// Registers `who`'s interest in mobile node `target` (§2.3.1's
    /// `register`), reporting `who`'s capacity, and grants `who` a lease
    /// on `target`'s current address.
    pub fn register_interest(&mut self, who: Key, target: Key) -> Result<()> {
        let who_info = *self.node_info(who)?;
        if !self.is_mobile(target) {
            return Err(BristleError::NotMobile(target));
        }
        let target_info = *self.node_info(target)?;
        let cost = self.dcache.distance(
            self.attachments.router(who_info.host),
            self.attachments.router(target_info.host),
        );
        self.meter.record(MessageKind::Register, cost);
        self.add_registrant(who, who_info.capacity, target);
        self.grant_lease(who, target);
        Ok(())
    }

    /// Materializes `key`'s LDT from the current registration state
    /// without sending anything.
    ///
    /// Registrants that abruptly failed since registering are pruned
    /// here — in protocol terms, the root's sends to them time out and
    /// it drops them from R(i); the registry keeps their edges until a
    /// verdict ([`BristleSystem::confirm_dead`]) or a sync drops them.
    pub fn build_ldt(&self, key: Key) -> Result<Ldt> {
        let info = self.node_info(key)?;
        let root = Registrant::new(key, info.capacity);
        let edges = self.registry.edges_of(key).iter().filter(|e| self.info.contains(e.holder));
        let registrants: Vec<Registrant> = edges.map(|&e| self.registry.registrant(e)).collect();
        Ok(Ldt::build(root, &registrants, self.cfg.unit_cost))
    }

    /// Disseminates `key`'s current address through its LDT (`update`):
    /// one message per tree edge, each granting the receiving member a
    /// fresh lease and patching its cached state-pair.
    pub fn advertise_update(&mut self, key: Key) -> Result<(Ldt, usize, u64)> {
        let info = *self.node_info(key)?;
        let ldt = self.build_ldt(key)?;
        let new_addr = NetAddr::current(info.host, &self.attachments);
        let mut sent = 0usize;
        let mut total_cost = 0u64;
        let edges: Vec<(Key, Key)> = ldt.edges().collect();
        for (parent, child) in edges {
            let pr = self.router_of(parent)?;
            let cr = self.router_of(child)?;
            let cost = self.dcache.distance(pr, cr);
            self.meter.record(MessageKind::Update, cost);
            sent += 1;
            total_cost += cost;
            self.learn_addr(child, key, new_addr);
        }
        Ok((ldt, sent, total_cost))
    }

    /// Moves a mobile node to a new random attachment point (or `to` if
    /// given), republishes its location, and pushes the update through its
    /// LDT. This is the full §2.3 `update` operation.
    pub fn move_node(&mut self, key: Key, to: Option<RouterId>) -> Result<MoveReport> {
        let (new_router, publish_hops) = self.relocate(key, to)?;
        let (ldt, updates_sent, update_cost) = self.advertise_update(key)?;
        Ok(MoveReport { new_router, publish_hops, ldt, updates_sent, update_cost })
    }

    /// [`Self::move_node`] without its update: re-attaches and republishes,
    /// telling no registrant. Returns the new router and the publish hops.
    pub fn relocate(&mut self, key: Key, to: Option<RouterId>) -> Result<(RouterId, usize)> {
        let info = *self.node_info(key)?;
        if info.mobility != Mobility::Mobile {
            return Err(BristleError::NotMobile(key));
        }
        let new_router = match to {
            Some(r) => {
                self.attachments.move_host(info.host, r);
                r
            }
            None => {
                let mut rng = self.rng.split(4);
                self.attachments.move_host_random(info.host, &self.stub_routers, &mut rng).router
            }
        };
        let idx = self.interner().get(key).expect("known");
        self.info.get_mut(idx).expect("live").seq += 1;
        Ok((new_router, self.publish_location(key)?))
    }

    /// Forgets a live node (leave/fail bookkeeping): its key leaves its
    /// class's key list and its info slot is vacated. The key's interned
    /// index survives — arena slots are vacated, never reused.
    pub(crate) fn forget(&mut self, key: Key) {
        let Some(idx) = self.interner().get(key) else { return };
        let Some(info) = self.info.remove(idx) else { return };
        self.identity_epoch += 1;
        match info.mobility {
            Mobility::Stationary => {
                self.stationary_keys.retain(|&k| k != key);
                self.stationary_hosts[info.host.index()] = false;
            }
            Mobility::Mobile => self.mobile_keys.retain(|&k| k != key),
        }
    }

    /// Advances the virtual clock and purges expired leases.
    pub fn tick(&mut self, ticks: u64) -> usize {
        self.clock.advance(ticks);
        let purged = self.purge_leases();
        self.prune_graveyard();
        purged
    }

    /// Reclaims verdicts passed longer ago than [`GRAVEYARD_RETENTION`],
    /// whether or not they buried a body. A pruned corpse can no longer
    /// rejoin through the wrongful-burial path — it would re-admit from
    /// scratch — nor restart off its disk, which goes with it; and its
    /// key stops counting as confirmed-dead, which is safe because any
    /// withdrawn record it could replay has long outlived its TTL by
    /// then.
    fn prune_graveyard(&mut self) {
        let now = self.clock.now();
        self.corpses.retain(|_, c| c.buried_at.plus(GRAVEYARD_RETENTION) > now);
    }

    /// Early-binding maintenance round: every mobile node republishes its
    /// location and re-advertises through its LDT; registrations are
    /// refreshed from the current routing state.
    pub fn refresh_bindings(&mut self) -> Result<()> {
        self.sync_registrations();
        let keys = self.mobile_keys.clone();
        for k in keys {
            self.publish_location(k)?;
            self.advertise_update(k)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BindingMode;
    use std::collections::HashSet;

    fn small_system(n_stat: usize, n_mob: usize, seed: u64) -> BristleSystem {
        BristleBuilder::new(seed)
            .stationary_nodes(n_stat)
            .mobile_nodes(n_mob)
            .topology(TransitStubConfig::tiny())
            .build()
            .unwrap()
    }

    #[test]
    fn sharded_rewire_matches_sequential_rewire() {
        let mut seq = small_system(48, 24, 5);
        let mut par = small_system(48, 24, 5);
        seq.rewire();
        par.rewire_with_workers(4);
        for key in seq.stationary.keys().collect::<Vec<_>>() {
            let a = seq.stationary.node(key).unwrap();
            let b = par.stationary.node(key).unwrap();
            assert_eq!(a.keys(), b.keys(), "stationary rows diverged at {key}");
        }
        // Each row's learned entry (none for a fixed peer) and the address
        // it resolves to, on its own side's attachments.
        let resolved = |sys: &BristleSystem, node: NodeRef<'_, Vec<u8>>| -> Vec<_> {
            let row = |k| (node.entry(k).copied(), node.resolve(k, &sys.attachments));
            node.keys().iter().map(|&k| row(k)).collect()
        };
        for key in seq.mobile.keys().collect::<Vec<_>>() {
            let a = seq.mobile.node(key).unwrap();
            let b = par.mobile.node(key).unwrap();
            assert_eq!(a.keys(), b.keys(), "mobile rows diverged at {key}");
            assert_eq!(resolved(&seq, a), resolved(&par, b), "mobile addresses diverged at {key}");
        }
    }

    /// The stationary ring keeps its rows' keys alone: their addresses
    /// take no bytes, while every mobile row still resolves to its peer's
    /// current address. A twin of the stationary ring with a row address
    /// beside every key — the same members and shards, wired by the same
    /// builder — holds the same rows, and routes and location lookups
    /// (the stationary half of `_discovery`) over the two meter alike.
    #[test]
    fn stationary_rows_are_keys_only() {
        for seed in [8, 27] {
            let sys = small_system(600, 400, seed);
            let stationary_rows = sys.stationary.total_state();
            let addr_bytes: usize =
                sys.stationary.iter().map(|n| std::mem::size_of_val(n.addrs())).sum();
            assert!(stationary_rows > 0 && addr_bytes == 0, "seed {seed}: {addr_bytes} B");
            for node in sys.mobile.iter() {
                for &k in node.keys() {
                    let host = sys.mobile.node(k).unwrap().host;
                    let current = NetAddr::current(host, &sys.attachments);
                    let resolved = node.resolve(k, &sys.attachments);
                    assert_eq!(resolved, Some(current), "seed {seed}: {} -> {k}", node.key);
                }
            }

            let mut twin: RingDht<LocationRecord> =
                RingDht::with_capacity(sys.stationary.config().clone(), sys.stationary.len());
            for node in sys.stationary.iter() {
                twin.insert(node.key, node.host, node.capacity).unwrap();
                twin.node_mut(node.key).unwrap().store.clone_from(node.store);
            }
            let mut rng = Pcg64::seed_from_u64(seed);
            twin.build_all_tables(&sys.attachments, sys.distances(), &mut rng, 1);
            assert_eq!(twin.total_state(), stationary_rows, "seed {seed}");
            for (a, b) in sys.stationary.iter().zip(twin.iter()) {
                assert_eq!((a.key, a.keys()), (b.key, b.keys()), "seed {seed}: rows");
            }

            let (mut keys_only, mut cached) = (Meter::new(), Meter::new());
            let sources: Vec<Key> = sys.stationary.keys().step_by(7).collect();
            for (i, &subject) in sys.mobile_keys().iter().enumerate() {
                let (src, target) = (sources[i % sources.len()], Key::random(&mut rng));
                let (ra, dcache) = (&sys.attachments, sys.distances());
                let a = sys.stationary.route(src, target, ra, dcache, &mut keys_only).unwrap();
                let b = twin.route(src, target, ra, dcache, &mut cached).unwrap();
                assert_eq!((a.hops, a.path_cost), (b.hops, b.path_cost), "seed {seed}: route");
                let replicas = sys.config().location_replicas;
                let a = sys.stationary.lookup(src, subject, replicas, ra, dcache, &mut keys_only);
                let b = twin.lookup(src, subject, replicas, ra, dcache, &mut cached);
                let (a, b) = (a.unwrap(), b.unwrap());
                assert!(a.value.is_some(), "seed {seed}: {subject} unpublished");
                assert_eq!(
                    (a.value, a.served_by, a.hops, a.path_cost),
                    (b.value, b.served_by, b.hops, b.path_cost),
                    "seed {seed}: lookup of {subject}"
                );
            }
            assert!(keys_only.count(MessageKind::RouteHop) > 0, "seed {seed}: nothing routed");
            assert_eq!(keys_only.tallies(), cached.tallies(), "seed {seed}: tallies");
        }
    }

    #[test]
    fn builder_creates_requested_population() {
        let sys = small_system(40, 20, 1);
        assert_eq!(sys.len(), 60);
        assert_eq!(sys.stationary_keys().len(), 40);
        assert_eq!(sys.mobile_keys().len(), 20);
        assert_eq!(sys.stationary.len(), 40);
        assert_eq!(sys.mobile.len(), 60);
    }

    #[test]
    fn clustered_naming_separates_key_bands() {
        let sys = small_system(30, 30, 2);
        let naming = *sys.naming();
        for &k in sys.stationary_keys() {
            assert!(naming.permits(k, Mobility::Stationary), "{k}");
        }
        for &k in sys.mobile_keys() {
            assert!(naming.permits(k, Mobility::Mobile), "{k}");
        }
    }

    #[test]
    fn initial_locations_are_published_and_current() {
        let sys = small_system(30, 10, 3);
        for &m in sys.mobile_keys() {
            let owner = sys.stationary.owner(m).unwrap();
            let rec = sys.stationary.node(owner).unwrap().store.get(&m).expect("published");
            assert!(rec.is_current(&sys.attachments));
            assert_eq!(rec.subject, m);
        }
    }

    /// R(·) against the `reverse_index` oracle, holders in ring order, and
    /// every live node's store against the tables.
    fn assert_registrations_mirror_reverse_pointers(sys: &BristleSystem) {
        let rev = sys.mobile.reverse_index();
        for &m in sys.mobile_keys() {
            let registrants: Vec<Key> = sys.registry.registrants_of(m).map(|r| r.key).collect();
            assert_eq!(registrants, rev.get(&m).cloned().unwrap_or_default(), "target {m}");
        }
        // Stationary nodes collect no registrations.
        for &s in sys.stationary_keys() {
            assert!(sys.registry.registrants_of(s).len() == 0);
        }
        sys.assert_stores_mirror_tables("a registration sync");
    }

    #[test]
    fn registrations_cover_reverse_pointers_of_mobile_nodes() {
        let mut sys = small_system(40, 20, 4);
        assert_registrations_mirror_reverse_pointers(&sys);

        // A resync over a populated registry: edges the new wiring no
        // longer has are deregistered in their holders' stores.
        let before = sys.registry.total_registrations();
        for key in [sys.mobile_keys()[3], sys.stationary_keys()[5], sys.mobile_keys()[11]] {
            sys.leave_node(key).unwrap();
        }
        sys.rewire();
        sys.sync_registrations();
        assert_ne!(sys.registry.total_registrations(), before, "the resync changed nothing");
        assert_registrations_mirror_reverse_pointers(&sys);
    }

    #[test]
    fn registrations_per_mobile_scale_like_log_n() {
        let sys = small_system(100, 50, 5);
        let avg =
            sys.mobile_keys().iter().map(|&m| sys.registry.registrants_of(m).len()).sum::<usize>()
                as f64
                / sys.mobile_keys().len() as f64;
        // O(log N): log2(150) ≈ 7.2, our tables hold ~2–5× that.
        assert!(avg > 3.0 && avg < 60.0, "avg registrants {avg}");
    }

    #[test]
    fn move_node_republishes_and_advertises() {
        let mut sys = small_system(40, 10, 6);
        let m = sys.mobile_keys()[0];
        let before_updates = sys.meter.count(MessageKind::Update);
        let report = sys.move_node(m, None).unwrap();
        assert!(report.publish_hops >= 1);
        assert_eq!(report.updates_sent, report.ldt.edge_count());
        assert_eq!(
            sys.meter.count(MessageKind::Update) - before_updates,
            report.updates_sent as u64
        );
        // The published record reflects the *new* attachment.
        let owner = sys.stationary.owner(m).unwrap();
        let rec = sys.stationary.node(owner).unwrap().store.get(&m).unwrap();
        assert!(rec.is_current(&sys.attachments));
        assert_eq!(rec.addr.router(), report.new_router);
        assert_eq!(rec.seq, 1);
    }

    #[test]
    fn move_to_explicit_router() {
        let mut sys = small_system(20, 5, 7);
        let m = sys.mobile_keys()[0];
        let target = sys.stub_routers()[0];
        let report = sys.move_node(m, Some(target)).unwrap();
        assert_eq!(report.new_router, target);
        assert_eq!(sys.router_of(m).unwrap(), target);
    }

    #[test]
    fn moving_stationary_node_is_rejected() {
        let mut sys = small_system(20, 5, 8);
        let s = sys.stationary_keys()[0];
        assert_eq!(sys.move_node(s, None).unwrap_err(), BristleError::NotMobile(s));
    }

    #[test]
    fn advertisement_grants_leases_and_patches_entries() {
        let mut sys = small_system(40, 10, 9);
        let m = sys.mobile_keys()[0];
        sys.move_node(m, None).unwrap();
        let members: Vec<Key> = sys.registry.registrants_of(m).map(|r| r.key).collect();
        assert!(!members.is_empty());
        let now = sys.clock.now();
        for member in members {
            assert!(sys.leases.is_fresh(member, m, now), "member {member} lease missing");
            if let Some(pair) = sys.mobile.node(member).unwrap().entry(m) {
                assert!(pair.is_reachable(&sys.attachments), "entry not patched");
            }
        }
    }

    /// Paper §2.3.1: a node registers to every mobile node whose
    /// state-pair it holds, and only those pairs go stale. So in the
    /// mobile ring a row keeps a learned address exactly when its peer can
    /// move: a live peer that is mobile, or a departed one whose entry
    /// names a host that is not fixed. Every other row names its peer's
    /// fixed host and resolves to that host's current address. The
    /// learned table holds no more dead entries than live ones, and the
    /// stores mirror the tables. And at every step the registry is the
    /// rows: each live holder is registered to every live mobile node it
    /// holds a row for, and to nothing it holds no row for. Only a holder
    /// that crashed without a verdict keeps edges outside the ring, as
    /// `build_ldt` skips it.
    fn assert_learned_entries_are_registrations(sys: &BristleSystem, step: &str) {
        sys.assert_stores_mirror_tables(step);
        // A host's stationary bit is its membership of the stationary ring.
        let ring_hosts: HashSet<HostId> = sys.stationary.iter().map(|n| n.host).collect();
        for host in (0..sys.attachments.len() as u32).map(HostId) {
            let bit = sys.is_stationary_host(host);
            assert_eq!(bit, ring_hosts.contains(&host), "after {step}: stationary bit of {host}");
        }
        let mut edges: HashMap<Key, Vec<Key>> = HashMap::new();
        for (target, regs) in sys.registry.iter() {
            for r in regs {
                edges.entry(r.key).or_default().push(target);
            }
        }
        for node in sys.mobile.iter() {
            for (&k, row) in node.keys().iter().zip(node.addrs()) {
                let at = format!("after {step}: {} -> {k}", node.key);
                let peer = sys.mobile.node(k).ok().map(|peer| peer.host);
                match (row.fixed_host(), node.entry(k)) {
                    (Some(host), None) => {
                        assert!(sys.attachments.is_fixed(host), "{at}: a movable host named");
                        assert!(peer.is_none_or(|h| h == host), "{at}: another host named");
                        let current = NetAddr::current(host, &sys.attachments);
                        assert_eq!(node.resolve(k, &sys.attachments), Some(current), "{at}");
                    }
                    (None, Some(entry)) => {
                        assert!(
                            peer.is_none() || sys.is_mobile(k),
                            "{at}: a stationary peer learned"
                        );
                        let learned = entry.addr.map(|a| a.host);
                        assert!(learned.is_none_or(|h| !sys.attachments.is_fixed(h)), "{at}");
                    }
                    other => panic!("{at}: a row names {other:?}"),
                }
            }
            let registered = edges.remove(&node.key).unwrap_or_default();
            let at = format!("after {step}: {}", node.key);
            for &k in node.keys().iter().filter(|&&k| sys.is_mobile(k)) {
                assert!(registered.contains(&k), "{at} holds {k}'s row unregistered");
            }
            for &k in &registered {
                assert!(node.entry(k).is_some(), "{at} is registered to {k} without a row");
            }
        }
        for holder in edges.keys() {
            let crashed = !sys.contains_node(*holder) && !sys.is_confirmed_dead(*holder);
            assert!(crashed, "after {step}: {holder} is registered outside the ring");
        }
        let (live, dead) = sys.mobile.learned_entries();
        assert!(dead <= live, "after {step}: {dead} dead learned entries beside {live} live");
    }

    #[test]
    fn learned_entries_are_registrations_through_a_lifecycle() {
        for seed in [8, 27] {
            let late = BristleConfig { binding: BindingMode::Late, ..BristleConfig::recommended() };
            let mut sys = BristleBuilder::new(seed)
                .stationary_nodes(40)
                .mobile_nodes(24)
                .topology(TransitStubConfig::tiny())
                .config(late)
                .build()
                .unwrap();
            let check = |sys: &BristleSystem, step: &str| {
                assert_learned_entries_are_registrations(sys, &format!("{step} (seed {seed})"))
            };
            check(&sys, "build");
            for i in 0..3 {
                sys.move_node(sys.mobile_keys()[i], None).unwrap();
            }
            check(&sys, "move_node");
            for class in [Mobility::Mobile, Mobility::Stationary, Mobility::Mobile] {
                sys.join_node(class).unwrap();
            }
            check(&sys, "join_node");
            let leaver = sys.stationary_keys()[4];
            let leaver_info = *sys.node_info(leaver).unwrap();
            sys.leave_node(sys.mobile_keys()[4]).unwrap();
            sys.leave_node(leaver).unwrap();
            check(&sys, "leave_node");
            // The departed key comes back as a new body on a fresh fixed
            // host, wired and registered by the caller as `readmit` asks.
            let host = sys.attachments.attach_fixed(sys.stub_routers()[0]);
            sys.readmit(leaver, NodeInfo { host, ..leaver_info }).unwrap();
            sys.rewire();
            sys.sync_registrations();
            check(&sys, "readmit on a new host");
            let crashed = sys.mobile_keys()[5];
            sys.fail_node(crashed).unwrap();
            check(&sys, "fail_node");
            sys.confirm_dead(crashed).unwrap();
            check(&sys, "confirm_dead");
            for buried in [sys.mobile_keys()[6], sys.stationary_keys()[6]] {
                sys.confirm_dead(buried).unwrap();
                check(&sys, "confirm_dead (wrongful)");
                assert!(sys.rejoin_node(buried, 1).unwrap().restored);
                check(&sys, "rejoin_node");
            }
            for i in [7, 8] {
                sys.fail_node(sys.stationary_keys()[i]).unwrap();
            }
            sys.fail_node(sys.mobile_keys()[7]).unwrap();
            sys.run_upkeep().unwrap();
            check(&sys, "run_upkeep (late binding)");
            // A move between the crash and the restart re-picks rows by
            // proximity, so the restart's rewire changes other holders' too.
            for victim in [sys.mobile_keys()[8], sys.stationary_keys()[9]] {
                sys.confirm_dead(victim).unwrap();
                sys.move_node(sys.mobile_keys()[0], None).unwrap();
                assert!(sys.restart_node_from_store(victim).unwrap().restored);
                check(&sys, "restart_node_from_store");
            }
            sys.rewire();
            sys.sync_registrations();
            check(&sys, "rewire + sync_registrations");
        }
    }

    /// What admission writes, section by section: the interner in index
    /// order, each node's info, both key lists and the host bits, both
    /// rings whole (`Debug` prints every slab cell with its predecessor,
    /// the index and the epoch), the membership epoch and the RNG.
    fn admitted(sys: &BristleSystem) -> [(&'static str, String); 8] {
        let interned: Vec<Key> =
            (0..sys.interner().len() as u32).map(|i| sys.interner().key_of(NodeIdx(i))).collect();
        let info: Vec<_> = interned.iter().map(|&k| sys.node_info(k).ok().copied()).collect();
        [
            ("interner", format!("{interned:?}")),
            ("info", format!("{info:?}")),
            ("key lists", format!("{:?} {:?}", sys.stationary_keys, sys.mobile_keys)),
            ("host bits", format!("{:?}", sys.stationary_hosts)),
            ("stationary ring", format!("{:?}", sys.stationary)),
            ("mobile ring", format!("{:?}", sys.mobile)),
            ("membership epoch", sys.membership_epoch().to_string()),
            ("rng", format!("{:?}", sys.rng)),
        ]
    }

    /// The builder's one-pass admission leaves what growing the system by
    /// `admit`, one node at a time, leaves: on rings of 1 to 9 stationary
    /// nodes, with and without mobile ones, and at the builder's sizes.
    #[test]
    fn bulk_admission_builds_the_rings_one_admit_at_a_time_does() {
        let small = (1..=9).flat_map(|s| [(s, 0), (s, s / 2)]);
        let sizes: Vec<(usize, usize)> = small.chain([(64, 0), (30, 12), (600, 400)]).collect();
        for seed in [8, 27] {
            for &(stationary, mobile) in &sizes {
                let builder = BristleBuilder::new(seed)
                    .stationary_nodes(stationary)
                    .mobile_nodes(mobile)
                    .topology(TransitStubConfig::tiny());
                let mut bulk = builder.clone().assemble();
                bulk.admit_all(stationary, mobile).unwrap();
                let mut single = builder.assemble();
                for i in 0..stationary + mobile {
                    let class =
                        if i < stationary { Mobility::Stationary } else { Mobility::Mobile };
                    single.admit(class).unwrap();
                }
                for ((part, a), (_, b)) in admitted(&bulk).into_iter().zip(admitted(&single)) {
                    assert!(a == b, "seed {seed}, {stationary} + {mobile}: {part} differs");
                }
            }
        }
    }

    #[test]
    fn entry_stationary_for_stationary_is_self() {
        let sys = small_system(20, 5, 10);
        let s = sys.stationary_keys()[3];
        assert_eq!(sys.entry_stationary_for(s).unwrap(), s);
    }

    #[test]
    fn entry_stationary_for_mobile_is_stationary() {
        let sys = small_system(20, 20, 11);
        for &m in sys.mobile_keys() {
            let e = sys.entry_stationary_for(m).unwrap();
            assert!(!sys.is_mobile(e), "entry point {e} must be stationary");
        }
    }

    #[test]
    fn tick_purges_expired_leases() {
        let mut sys = small_system(20, 5, 12);
        let m = sys.mobile_keys()[0];
        sys.advertise_update(m).unwrap();
        let held = sys.leases.len();
        assert!(held > 0);
        let ttl = sys.config().lease_ttl;
        let purged = sys.tick(ttl + 1);
        assert_eq!(purged, held);
    }

    #[test]
    fn deterministic_build() {
        let a = small_system(30, 10, 42);
        let b = small_system(30, 10, 42);
        let ka: Vec<Key> = a.mobile.keys().collect();
        let kb: Vec<Key> = b.mobile.keys().collect();
        assert_eq!(ka, kb);
        assert_eq!(a.registry.total_registrations(), b.registry.total_registrations());
    }
}
