//! Partition-tolerance scenario: a message-driven Bristle system split
//! in two, wrongful funerals on the far side, refutation and rejoin
//! after the heal, and split-brain record reconciliation.
//!
//! The run cuts the router population into two groups on the transport's
//! [`LinkFilter`]. Near-side watchers stop hearing far-side heartbeats,
//! suspicion hardens into death verdicts, and the scenario confirms each
//! one — a *wrongful* funeral, since the condemned machines are still
//! running behind the cut. After the heal, the driver's rejoin sweep
//! (see [`MessagingBristleSystem::heartbeat_round`]) delivers each
//! obituary, the buried node refutes it with a bumped incarnation, and a
//! sponsored rejoin reverses the funeral. The scenario then plants
//! far-side-life records (stale incarnation, inflated sequence number)
//! on replica subsets and checks that anti-entropy reconciles every
//! replica to the `(incarnation, seq, published_at)` maximum — the
//! post-rejoin record. Delivery is measured over the same endpoint pairs
//! before the cut and after recovery.
//!
//! Everything is seeded: two runs with the same [`PartitionConfig`]
//! produce identical [`PartitionOutcome`]s, meter tallies included.

use std::collections::{BTreeMap, BTreeSet};

use bristle_core::config::BristleConfig;
use bristle_core::location::LocationRecord;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::Hist;
use bristle_proto::transport::{FaultConfig, LinkFilter};

use crate::cli::{SweepArgs, DEFAULT_SEED};
use crate::messaging::MessagingBristleSystem;
use crate::report::{pct, Table};
use crate::runreport::Json;
use crate::sweeps::{Claim, SweepRun};
use crate::workload::{fixed_pairs, measure_pairs, tiny_system, BeforeAfter, Telemetry};

/// Maximum heartbeat rounds allowed after the heal for every wrongful
/// funeral to be reversed.
pub const RECOVERY_ROUNDS: usize = 6;
/// Endpoint pairs measured before the cut and again after recovery.
pub const ROUTE_PAIRS: usize = 24;

/// Parameters of one partition-tolerance run.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Seed for the system build, the transport, and the scenario draws.
    pub seed: u64,
    /// Stationary population at build time.
    pub stationary: usize,
    /// Mobile population at build time.
    pub mobile: usize,
    /// Transport drop probability (applies on both sides of the cut).
    pub loss: f64,
    /// Heartbeat rounds run while the network is cut (the partition
    /// duration; death verdicts need several rounds to harden).
    pub partition_rounds: usize,
}

impl PartitionConfig {
    /// The standard acceptance-scale run: a small-but-structured system,
    /// 5% loss, a four-round cut.
    pub fn standard(seed: u64) -> Self {
        PartitionConfig { seed, stationary: 36, mobile: 14, loss: 0.05, partition_rounds: 4 }
    }
}

/// What one partition-tolerance run observed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionOutcome {
    /// Nodes attached behind the cut (candidates for wrongful death).
    pub far_side: usize,
    /// Funerals run on nodes that were actually alive (the cut's wrongful
    /// deaths).
    pub wrongful_deaths: usize,
    /// Funerals reversed by refutation + rejoin after the heal.
    pub rejoined: usize,
    /// Heartbeat rounds needed after the heal until every funeral was
    /// reversed ([`RECOVERY_ROUNDS`] when some never were).
    pub recovery_rounds_used: usize,
    /// Largest burial-to-rejoin span on the micro-clock.
    pub max_rejoin_latency: u64,
    /// `Alive` refutation broadcasts (meter count).
    pub refutations: u64,
    /// Delivery over the same pairs before the cut and after recovery.
    pub delivery: BeforeAfter,
    /// Far-side-life record copies planted to create split-brain state.
    pub divergent_planted: usize,
    /// Whether anti-entropy reconciled every replica of every rejoined
    /// subject to the `(incarnation, seq, published_at)` maximum.
    pub reconciled: bool,
    /// Record copies installed by the reconciliation pass.
    pub anti_entropy_fixes: usize,
    /// Meter tallies and latency snapshots at the end of the run.
    pub telemetry: Telemetry,
}

/// Splits the occupied stub routers into two balanced groups
/// (deterministic greedy bin-packing by attached-node count, sorted
/// router order). Returns `(groups, far_keys)` where the far side is the
/// second group.
fn split_routers(msys: &MessagingBristleSystem) -> (Vec<Vec<RouterId>>, BTreeSet<Key>) {
    let sys = &msys.sys;
    let mut per_router: BTreeMap<RouterId, Vec<Key>> = BTreeMap::new();
    for k in sys.mobile.keys() {
        if let Ok(r) = sys.router_of(k) {
            per_router.entry(r).or_default().push(k);
        }
    }
    let mut near: (Vec<RouterId>, usize) = (Vec::new(), 0);
    let mut far: (Vec<RouterId>, usize) = (Vec::new(), 0);
    let mut by_load: Vec<(&RouterId, &Vec<Key>)> = per_router.iter().collect();
    by_load.sort_by_key(|(r, ks)| (std::cmp::Reverse(ks.len()), **r));
    for (&r, keys) in by_load {
        let side = if near.1 <= far.1 { &mut near } else { &mut far };
        side.0.push(r);
        side.1 += keys.len();
    }
    let far_keys: BTreeSet<Key> =
        far.0.iter().flat_map(|r| per_router[r].iter().copied()).collect();
    (vec![near.0, far.0], far_keys)
}

/// Runs one partition-tolerance scenario: build, measure, cut, bury,
/// heal, rejoin, reconcile, re-measure. Deterministic in `cfg`.
pub fn run_partition(cfg: &PartitionConfig) -> PartitionOutcome {
    let sys = tiny_system(cfg.seed, cfg.stationary, cfg.mobile, BristleConfig::recommended());
    let mut msys = MessagingBristleSystem::new(sys, FaultConfig::lossy(cfg.loss), cfg.seed ^ 0xA7);
    let mut rng = Pcg64::new(cfg.seed, 0xCA7);

    let mut out = PartitionOutcome { reconciled: true, ..Default::default() };

    let pairs = fixed_pairs(&msys, &mut rng, ROUTE_PAIRS, None);
    out.delivery.pre = measure_pairs(&mut msys, &pairs);

    // Cut the network and let near-side suspicion harden into verdicts.
    // Only far-side deaths are confirmed: the near side is the majority
    // running the funerals; its own nodes are never buried.
    let (groups, far_keys) = split_routers(&msys);
    out.far_side = far_keys.len();
    msys.partition_now(LinkFilter::default().partition_groups(&groups));
    for _ in 0..cfg.partition_rounds {
        let newly = msys.heartbeat_round();
        for k in newly {
            if far_keys.contains(&k) && msys.confirm_and_heal(k).is_ok() {
                out.wrongful_deaths += 1;
            }
        }
        msys.sys.tick(5);
    }

    // Heal; the heartbeat machinery's rejoin sweep now delivers every
    // obituary, collects the refutations, and reverses the funerals.
    let buried = msys.wrongly_buried();
    msys.heal_now();
    for r in 0..RECOVERY_ROUNDS {
        msys.heartbeat_round();
        out.recovery_rounds_used = r + 1;
        if msys.wrongly_buried().is_empty() {
            break;
        }
    }
    let rejoins = msys.registry().histogram(Hist::Rejoin).snapshot();
    out.rejoined = rejoins.count as usize;
    out.max_rejoin_latency = rejoins.max;

    // Split-brain reconciliation: for every rejoined mobile subject,
    // plant its far-side life — stale incarnation, inflated sequence
    // number, later publication time — on every replica but the first,
    // then let anti-entropy pick the winner. Only the incarnation rank
    // makes the post-rejoin record win.
    let replicas = msys.sys.config().location_replicas;
    // Buried mobile nodes the system holds again: the funerals reversed.
    let rejoined_mobiles: Vec<Key> =
        buried.into_iter().filter(|&k| msys.sys.is_mobile(k)).collect();
    for &subject in &rejoined_mobiles {
        let Ok(set) = msys.sys.stationary.replica_set(subject, replicas) else { continue };
        let first = set.first().and_then(|&r| msys.sys.stationary.node(r).ok());
        let Some(&current) = first.and_then(|n| n.store.get(&subject)) else { continue };
        let mut far_life = current;
        far_life.incarnation = current.incarnation.saturating_sub(1);
        far_life.seq = current.seq + 25;
        far_life.published_at = bristle_core::time::SimTime(current.published_at.0 + 40);
        for &r in &set[1..] {
            if let Ok(node) = msys.sys.stationary.node_mut(r) {
                node.store.insert(subject, far_life);
                out.divergent_planted += 1;
            }
        }
    }
    out.anti_entropy_fixes = msys.sys.anti_entropy_locations().expect("reconciliation succeeds");
    for &subject in &rejoined_mobiles {
        let Ok(set) = msys.sys.stationary.replica_set(subject, replicas) else { continue };
        let copies: Vec<LocationRecord> = set
            .iter()
            .filter_map(|&r| msys.sys.stationary.node(r).ok()?.store.get(&subject).copied())
            .collect();
        let rank = |c: &LocationRecord| (c.incarnation, c.seq, c.published_at);
        let best = copies.iter().copied().reduce(LocationRecord::newer_of);
        out.reconciled &= copies.len() == set.len()
            && best.is_some_and(|b| copies.iter().all(|c| rank(c) == rank(&b)));
    }

    out.delivery.post = measure_pairs(&mut msys, &pairs);

    out.refutations = msys.sys.meter.count(MessageKind::Refutation);
    out.telemetry = Telemetry::of(&msys);
    out
}

/// The `partition` sweep: wrongful deaths, refutation traffic,
/// recovery latency and post-heal delivery as the partition duration and
/// transport loss rate vary.
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let (stationary, mobile) = args.scale.pick((36, 14), (90, 40));
    let mut run = SweepRun::new("partition", args.seed_or(DEFAULT_SEED));
    let mut table = Table::new(
        "Partition tolerance — wrongful death and recovery vs cut duration × loss",
        &[
            "cut rds",
            "loss",
            "far side",
            "wrongful",
            "rejoined",
            "refutes",
            "recov rds",
            "reconciled",
            "deliv pre→post",
        ],
    );
    let mut recovered =
        Claim::every_cell("every funeral reversed and delivery within 1% of pre-cut");
    let mut reconciled =
        Claim::every_cell("split-brain records reconciled to the incarnation maximum");
    for partition_rounds in [2usize, 4, 6] {
        for loss in [0.0f64, 0.05, 0.10] {
            let mut cfg = PartitionConfig::standard(args.seed_or(DEFAULT_SEED));
            cfg.stationary = stationary;
            cfg.mobile = mobile;
            cfg.loss = loss;
            cfg.partition_rounds = partition_rounds;
            let out = run_partition(&cfg);
            recovered.ok &= out.rejoined == out.wrongful_deaths && out.delivery.recovered(0.01);
            reconciled.ok &= out.reconciled;
            run.report.push_cell(
                Json::obj([
                    ("partition_rounds", Json::U64(partition_rounds as u64)),
                    ("loss", Json::F64(loss)),
                    ("stationary", Json::U64(stationary as u64)),
                    ("mobile", Json::U64(mobile as u64)),
                ]),
                &out.telemetry,
                Json::obj([
                    ("far_side", Json::U64(out.far_side as u64)),
                    ("wrongful_deaths", Json::U64(out.wrongful_deaths as u64)),
                    ("rejoined", Json::U64(out.rejoined as u64)),
                    ("recovery_rounds_used", Json::U64(out.recovery_rounds_used as u64)),
                    ("max_rejoin_latency", Json::U64(out.max_rejoin_latency)),
                    ("refutations", Json::U64(out.refutations)),
                    ("pre_rate", Json::F64(out.delivery.pre_rate())),
                    ("post_rate", Json::F64(out.delivery.post_rate())),
                    ("reconciled", Json::Bool(out.reconciled)),
                ]),
            );
            table.row(vec![
                partition_rounds.to_string(),
                pct(loss),
                out.far_side.to_string(),
                out.wrongful_deaths.to_string(),
                out.rejoined.to_string(),
                out.refutations.to_string(),
                if out.wrongful_deaths == 0 {
                    "—".into()
                } else {
                    out.recovery_rounds_used.to_string()
                },
                if out.divergent_planted == 0 {
                    "—".into()
                } else {
                    format!("{}", out.reconciled)
                },
                format!("{}→{}", pct(out.delivery.pre_rate()), pct(out.delivery.post_rate())),
            ]);
        }
    }
    run.tables.push(table);
    run.claims.extend([recovered, reconciled]);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_buries_far_side_and_heal_resurrects_everyone() {
        let out = run_partition(&PartitionConfig::standard(5));
        assert!(out.far_side > 0, "the cut must isolate someone: {out:?}");
        assert!(out.wrongful_deaths > 0, "far-side nodes must be wrongfully buried: {out:?}");
        assert_eq!(out.rejoined, out.wrongful_deaths, "every funeral reversed: {out:?}");
        assert!(out.refutations > 0, "refutations must be broadcast");
        assert!(out.refutations >= out.rejoined as u64, "every reversal was asked for");
        assert!(out.reconciled, "split-brain records reconcile to the incarnation maximum");
        assert!(out.delivery.recovered(0.01), "post-heal delivery within 1%: {out:?}");
    }

    #[test]
    fn records_reconcile_at_every_partition_seed() {
        // A rejoin can move a subject's replica set off every node that
        // holds its record; anti-entropy must bring the record back.
        let seeds: Vec<u64> = (1..=64).collect();
        let failed: Vec<u64> = crate::sweeps::seeds::claims("partition", &seeds)
            .into_iter()
            .filter(|(seed, claims)| {
                let claim = claims.iter().find(|c| c.text.starts_with("split-brain"));
                !claim.unwrap_or_else(|| panic!("seed {seed}: no reconciliation claim")).ok
            })
            .map(|(seed, _)| seed)
            .collect();
        assert!(failed.is_empty(), "records not reconciled at seeds {failed:?}");
    }

    #[test]
    fn same_seed_twice_is_identical() {
        let cfg = PartitionConfig::standard(9);
        assert_eq!(run_partition(&cfg), run_partition(&cfg));
    }

    #[test]
    fn no_partition_means_no_wrongful_deaths() {
        let mut cfg = PartitionConfig::standard(7);
        cfg.partition_rounds = 0;
        let out = run_partition(&cfg);
        assert_eq!(out.wrongful_deaths, 0);
        assert_eq!(out.rejoined, 0);
        assert_eq!(out.refutations, 0);
    }
}
