//! `bristle-proto` — sans-I/O message-passing protocol core.
//!
//! This crate turns the function-call semantics of `bristle-core` into an
//! explicit wire protocol: typed messages with a binary codec
//! ([`wire`]), per-node protocol state machines driven by
//! `poll(now, event)` ([`machine`]), and a transport abstraction with a
//! deterministic, fault-injecting in-memory implementation
//! ([`transport`]), a lease-based crash-failure detector ([`failure`]),
//! and the calendar queue both drivers keep wake-ups in ([`queue`]). No
//! I/O, no clock reads: all effects are returned as values, so the same
//! machines run under the simulator and over real sockets. What a node has
//! processed is recorded once, in its machine's dedup window; both
//! drivers meter spurious retries by asking it
//! ([`ProtoMachine::has_processed`]).

pub mod failure;
pub mod machine;
pub mod mix;
pub mod queue;
pub mod rto;
mod seen;
#[doc(hidden)]
pub mod testenv;
pub mod transport;
pub mod wire;

pub use failure::{FailureDetector, FailurePolicy, Liveness, LivenessTransition, TimeoutVerdict};
pub use machine::{Completion, Event, Frame, NodeEnv, Output, ProtoMachine, RetryPolicy};
pub use mix::splitmix64;
pub use transport::{
    Arrivals, Degradation, Deliveries, Delivery, Fate, FaultConfig, LinkFilter, SendTrace,
    SimTransport, TraceRecord, Transport, TRACE_CAPACITY,
};
pub use wire::{Envelope, WireAddr, WireError, WireMessage};
