//! # bristle-sim
//!
//! The experiment harness for the Bristle reproduction: a discrete-event
//! engine, movement/churn workload models, the Type A and Type B baseline
//! architectures of the paper's Table 1, statistics and table rendering,
//! and one experiment driver per table/figure of the paper's evaluation
//! plus the sweeps the reproduction added around them.
//!
//! All of them run through one executable, `bristle-sim <sweep>`, which
//! dispatches over the [`sweeps::SWEEPS`] table (listed, with each
//! sweep's committed report, in the [`sweeps`] module docs):
//!
//! ```text
//! cargo run --release -p bristle-sim -- fig7            # one figure
//! cargo run --release -p bristle-sim -- all --paper     # the paper's evaluation, full scale
//! cargo run --release -p bristle-sim -- verify-reports  # every BENCH_*.json, byte for byte
//! ```
//!
//! The default "quick" scale preserves every qualitative shape in
//! seconds; `--paper` selects the paper's populations. The flags are
//! documented in [`cli`].

#![warn(missing_docs)]

pub mod adversary;
pub mod baseline_type_a;
pub mod baseline_type_b;
pub mod churn;
pub mod cli;
pub mod conformance;
pub mod degradation;
pub mod durability;
pub mod engine;
pub mod experiments;
pub mod messaging;
pub mod metrics;
pub mod mobility;
pub mod partition;
pub mod report;
pub mod resilience;
pub mod runreport;
pub mod scale;
pub mod scenario;
pub mod sweeps;
pub mod workload;

pub use adversary::{run_attack, AttackConfig, AttackFamily, AttackOutcome, ALL_FAMILIES};
pub use baseline_type_a::TypeASystem;
pub use baseline_type_b::TypeBSystem;
pub use churn::{ChurnAction, ChurnModel};
pub use cli::SweepArgs;
pub use degradation::{run_degradation, DegradationConfig, DegradationOutcome};
pub use durability::{run_durability, DurabilityConfig, DurabilityOutcome, RestartMode};
pub use engine::EventQueue;
pub use experiments::Scale;
pub use messaging::{MessagingBristleSystem, MessagingError, MessagingRouteReport};
pub use metrics::{Histogram, Samples};
pub use mobility::MobilityModel;
pub use partition::{run_partition, PartitionConfig, PartitionOutcome};
pub use report::Table;
pub use resilience::{run_churn_messaging, ResilienceConfig, ResilienceOutcome};
pub use scenario::ScenarioOutcome;
pub use workload::{measure_routes, sample_any_pairs, sample_stationary_pairs, RouteAggregate};
