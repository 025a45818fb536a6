//! # bristle-core
//!
//! A Rust implementation of **Bristle**, the mobile structured
//! peer-to-peer architecture of Hsiao & King (IPDPS 2003).
//!
//! Bristle lets nodes of a hash-structured P2P overlay change their
//! network attachment points *without* losing their overlay identity or
//! the data they own. It does so with:
//!
//! * **two layers** — a stationary-layer HS-P2P acting as a location
//!   repository, and a mobile-layer HS-P2P carrying application traffic
//!   ([`system::BristleSystem`]);
//! * **routing with address resolution** — stale next-hop addresses are
//!   resolved through the stationary layer mid-route
//!   ([`mobile`], paper Fig. 2);
//! * **location dissemination trees** — capacity-aware multicast trees
//!   pushing a mover's new address to all registered interested nodes in
//!   O(log log N) hops ([`advertise`], [`ldt`], paper Fig. 4);
//! * **leases** with early/late binding ([`lease`], §2.3.2);
//! * **crash healing** — confirming a node dead prunes its traces,
//!   re-grafts orphaned LDT subtrees, and reconciles replicated location
//!   records ([`heal`]);
//! * **partition tolerance** — wrongful death verdicts are refuted with
//!   SWIM-style incarnation numbers and reversed by a rejoin that
//!   restores registrations, LDT membership and withdrawn location
//!   records ([`rejoin`]);
//! * **clustered naming** — keeping stationary-to-stationary routes
//!   inside the stationary key band, reducing route cost from O(log² N)
//!   to O(log N) ([`naming`], §3);
//! * **durable state** — every repository mutation goes through one
//!   write path that mirrors it into the node's write-ahead log, if it
//!   has one; with it a crashed node restarts from disk with its shard
//!   intact instead of re-learning it from the overlay ([`repo`],
//!   [`durable`], [`restart`]).
//!
//! ## Quick start
//!
//! ```
//! use bristle_core::prelude::*;
//!
//! // 40 stationary + 10 mobile nodes on a small transit-stub topology.
//! let mut sys = BristleBuilder::new(7).stationary_nodes(40).mobile_nodes(10).build().unwrap();
//! let mobile = sys.mobile_keys()[0];
//! let source = sys.stationary_keys()[0];
//!
//! // The mobile node roams; Bristle republishes and disseminates.
//! let report = sys.move_node(mobile, None).unwrap();
//! assert!(report.updates_sent > 0 || report.ldt.is_empty());
//!
//! // Routing to it still works: stale hops resolve through the
//! // stationary layer transparently.
//! let route = sys.route_mobile(source, mobile).unwrap();
//! assert_eq!(route.terminus, sys.mobile.owner(mobile).unwrap());
//! ```

#![warn(missing_docs)]

pub mod advertise;
pub mod analysis;
pub mod arena;
pub mod auth;
pub mod config;
pub mod durable;
pub mod error;
pub mod heal;
pub mod join;
pub mod ldt;
pub mod ldt_nonmember;
pub mod lease;
pub mod location;
pub mod mobile;
pub mod naming;
pub mod registry;
pub mod rejoin;
pub mod repo;
pub mod restart;
pub mod system;
pub mod time;
pub mod upkeep;

pub use advertise::{plan_advertisement, AdvertiseStep, DEFAULT_UNIT_COST};
pub use arena::{KeyInterner, NodeArena, NodeIdx};
pub use auth::{AuthDomain, AuthError, VerifyPolicy, WireAuth};
pub use config::{BindingMode, BristleConfig, NamingPolicy};
pub use durable::StoreHub;
pub use error::{BristleError, Result};
pub use heal::DeathReport;
pub use join::JoinReport;
pub use ldt::{Ldt, LdtHeal, LdtNode};
pub use ldt_nonmember::NonMemberTree;
pub use lease::{Lease, LeaseTable};
pub use location::LocationRecord;
pub use mobile::{DiscoveryReport, MobileRouteReport};
pub use naming::{Mobility, NamingScheme};
pub use registry::{Registrant, Registry};
pub use restart::RestartReport;
pub use system::{BristleBuilder, BristleSystem, MoveReport, NodeInfo};
pub use time::{Clock, SimTime};

/// Everything most users need, re-exported flat.
pub mod prelude {
    pub use crate::config::{BindingMode, BristleConfig, NamingPolicy};
    pub use crate::error::{BristleError, Result};
    pub use crate::naming::{Mobility, NamingScheme};
    pub use crate::system::{BristleBuilder, BristleSystem, MoveReport};
    pub use bristle_overlay::key::Key;
    pub use bristle_overlay::meter::{MessageKind, Meter};
}
