//! # bristle-overlay
//!
//! The HS-P2P (hash-based structured peer-to-peer) substrate both Bristle
//! layers run on — the in-tree stand-in for Tornado, the overlay the paper
//! builds Bristle upon (see `DESIGN.md` for the substitution rationale).
//!
//! Contents:
//!
//! * [`key`] — the 2^64 identifier ring and digit arithmetic.
//! * [`addr`] — network addresses and the paper's `<key, addr>` state-pairs.
//! * [`config`] — protocol parameters ([`RingConfig::tornado`],
//!   [`RingConfig::chord`], locality on/off).
//! * [`node`] — per-node routing state, capacity and record store.
//! * [`ring`] — the DHT itself: ownership, monotone clockwise routing with
//!   base-`2^b` digit fingers, leaf sets, proximity neighbor selection,
//!   reverse-pointer index.
//! * [`route`] — route execution with hop/path-cost accounting.
//! * [`replication`] — k-replica publication and fault-tolerant lookup.
//! * [`maintenance`] — refresh cycles, failures, graceful leave, health.
//! * [`meter`] — message/cost accounting shared by the whole stack.
//! * [`obs`] — latency histograms, structured events and a flight
//!   recorder for virtual-time observability.

#![warn(missing_docs)]

pub mod addr;
pub mod can;
pub mod config;
pub mod iterative;
pub mod key;
pub mod maintenance;
pub mod meter;
pub mod node;
pub mod obs;
pub mod prefix;
pub mod repair;
pub mod replication;
pub mod ring;
pub mod route;

pub use addr::{CachedAddr, NetAddr};
pub use can::{CanNode, CanOverlay, Zone};
pub use config::{NeighborSelection, RingConfig};
pub use key::Key;
pub use maintenance::HealthReport;
pub use meter::{MessageKind, Meter};
pub use node::NodeState;
pub use obs::{FlightRecorder, Histogram as LatencyHistogram, ObsEvent, ObsEventKind, Snapshot};
pub use prefix::PrefixDht;
pub use replication::LookupOutcome;
pub use ring::{RingDht, RingError};
pub use route::Route;
