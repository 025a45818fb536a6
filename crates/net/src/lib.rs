//! `bristle-net`: the Bristle sans-I/O machines over real UDP sockets.
//!
//! Everything protocol lives in `bristle-proto`'s [`ProtoMachine`] —
//! a pure state machine polled with `(now, event, env)`. The simulator
//! drives it with a virtual clock and an in-memory transport; this
//! crate drives the *same* machine with [`std::net::UdpSocket`]s and a
//! wall clock, std-only and tokio-free: a nonblocking poll loop, not an
//! async runtime.
//!
//! Two pieces:
//!
//! - [`clock::WallClock`] — quantizes real elapsed time into
//!   [`SimTime`] ticks and supports forward-only fast-forward, so a
//!   quiet network can skip to the next retry deadline instead of
//!   sleeping 20 seconds through it.
//! - [`driver::SocketDriver`] — one socket per node, found from a
//!   `WireAddr` by its host; a pump-then-fire poll loop; a hardened
//!   datagram boundary (oversized or undecodable frames are dropped and
//!   metered, never parsed, never panic); and what the boundary did
//!   counted in the same `obs::Registry` series the simulator's driver
//!   keeps.
//!
//! The conformance claim — that a scripted scenario produces identical
//! meter tallies, causal event sequences and registry counts over
//! sockets and over `SimTransport` — is exercised by `bristle-sim`'s
//! conformance module and the `net_conformance` integration test.
//!
//! [`ProtoMachine`]: bristle_proto::machine::ProtoMachine
//! [`SimTime`]: bristle_core::time::SimTime

pub mod clock;
pub mod driver;

pub use clock::WallClock;
#[doc(hidden)]
pub use driver::NetStats; // owed: ROADMAP 8(a)
pub use driver::{SocketDriver, MAX_FRAME};
