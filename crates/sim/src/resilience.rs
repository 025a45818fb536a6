//! Churn-resilience scenario: a message-driven Bristle system under
//! joins, graceful leaves, and silent crashes on a lossy transport.
//!
//! Each scenario event draws one [`ChurnAction`], then runs the full
//! detect-and-heal loop: heartbeat rounds over the message-passing driver
//! until every silent crash is confirmed, [`confirm_and_heal`] for each
//! confirmation (LDT re-grafting, registration and lease pruning, record
//! withdrawal), followed by a measurement batch of `_discovery`
//! operations and mobile-layer routes. Occasionally a mobile node moves
//! *silently* (its attachment changes without a republish), planting the
//! stale records the discovery batch then surfaces and repairs.
//!
//! Everything is seeded: two runs with the same [`ResilienceConfig`]
//! produce identical [`ResilienceOutcome`]s, meter tallies included.
//!
//! [`ChurnAction`]: crate::churn::ChurnAction
//! [`confirm_and_heal`]: MessagingBristleSystem::confirm_and_heal

use std::collections::BTreeSet;

use bristle_core::config::BristleConfig;
use bristle_core::naming::Mobility;
use bristle_core::system::BristleSystem;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::addr::NetAddr;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_proto::transport::FaultConfig;

use crate::churn::{ChurnAction, ChurnModel};
use crate::cli::{SweepArgs, DEFAULT_SEED};
use crate::messaging::MessagingBristleSystem;
use crate::report::{f2, pct, Table};
use crate::runreport::Json;
use crate::sweeps::{Claim, SweepRun};
use crate::workload::{live_endpoints, live_of, tiny_system, Delivery, Telemetry};

/// Message-passing routes measured per event.
pub const ROUTES_PER_EVENT: usize = 4;
/// `_discovery` operations measured per event.
pub const DISCOVERIES_PER_EVENT: usize = 2;
/// Leave/Fail events never shrink the stationary layer below this.
pub const MIN_STATIONARY: usize = 8;
/// Leave/Fail events never shrink the mobile population below this.
pub const MIN_MOBILE: usize = 4;

/// Parameters of one churn-resilience run.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Seed for the system build, the transport, and the scenario draws.
    pub seed: u64,
    /// Stationary population at build time.
    pub stationary: usize,
    /// Mobile population at build time.
    pub mobile: usize,
    /// Churn mix (only the weights matter; events are drawn per step).
    pub churn: ChurnModel,
    /// Transport drop probability.
    pub loss: f64,
    /// Scenario events (one churn draw + measurement batch each).
    pub events: usize,
}

impl ResilienceConfig {
    /// The standard acceptance-scale run: a small-but-structured system,
    /// balanced churn, 10% message loss.
    pub fn standard(seed: u64) -> Self {
        ResilienceConfig {
            seed,
            stationary: 36,
            mobile: 14,
            churn: ChurnModel::balanced(50),
            loss: 0.10,
            events: 18,
        }
    }
}

/// What one churn-resilience run observed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceOutcome {
    /// Nodes that joined during the run.
    pub joins: usize,
    /// Nodes that left gracefully.
    pub leaves: usize,
    /// Nodes that crashed silently.
    pub fails: usize,
    /// Crashes confirmed dead by the heartbeat machinery.
    pub deaths_confirmed: usize,
    /// Heartbeat rounds run while at least one crash awaited confirmation
    /// (`/ deaths_confirmed` ≈ detection latency in rounds).
    pub detection_rounds: usize,
    /// LDT memberships held by confirmed-dead nodes at confirmation time
    /// (the repairs the healing pass *must* perform).
    pub repairs_expected: usize,
    /// LDT re-grafts actually reported by the healing pass.
    pub ldts_repaired: usize,
    /// Whether every repaired tree passed the root-reachability invariant.
    pub invariant_ok: bool,
    /// Message-passing routes between live endpoints.
    pub routes: Delivery,
    /// `_discovery` operations measured.
    pub discoveries: usize,
    /// Discoveries answered with an address that was no longer current.
    pub stale_answers: usize,
    /// Stale answers repaired by a full `update` operation.
    pub stale_repairs: usize,
    /// Post-mortem discoveries for subjects whose record primary died.
    pub dead_primary_lookups: usize,
    /// Those discoveries that still resolved (via a surviving replica).
    pub dead_primary_hits: usize,
    /// Replica-chain probes served past the route terminus (meter delta).
    pub replica_failovers: u64,
    /// Record copies re-installed by anti-entropy reconciliation.
    pub anti_entropy_fixes: usize,
    /// Meter tallies and latency snapshots at the end of the run.
    pub telemetry: Telemetry,
}

/// How many live targets count `dead` among their registrants — the LDTs
/// the healing pass must re-graft (the same rule
/// [`BristleSystem::confirm_dead`](bristle_core::heal) applies).
fn ldt_memberships(sys: &BristleSystem, dead: Key) -> usize {
    sys.registry.targets_of(dead).into_iter().filter(|&t| sys.node_info(t).is_ok()).count()
}

/// The live stationary node that is record-primary for the most live
/// mobile subjects (ties broken toward the smaller key), if any node
/// currently owns a subject at all.
fn busiest_owner(msys: &MessagingBristleSystem) -> Option<Key> {
    let sys = &msys.sys;
    let mut counts: std::collections::BTreeMap<Key, usize> = std::collections::BTreeMap::new();
    for &m in sys.mobile_keys() {
        if let Ok(owner) = sys.stationary.owner(m) {
            if !msys.is_failed(owner) {
                *counts.entry(owner).or_insert(0) += 1;
            }
        }
    }
    counts.into_iter().max_by_key(|&(k, c)| (c, std::cmp::Reverse(k))).map(|(k, _)| k)
}

/// Mobile subjects whose location-record primary is `owner` right now.
fn subjects_owned_by(sys: &BristleSystem, owner: Key) -> Vec<Key> {
    let mut v: Vec<Key> = sys
        .mobile_keys()
        .iter()
        .copied()
        .filter(|&m| sys.stationary.owner(m) == Ok(owner))
        .collect();
    v.sort_unstable();
    v
}

/// Runs heartbeat rounds until every key in `pending` is confirmed (or
/// `max_rounds` pass), healing each confirmation and folding the death
/// reports into `out`. Stationary deaths additionally trigger post-mortem
/// discoveries for every subject the corpse was record-primary of.
fn detect_and_heal(
    msys: &mut MessagingBristleSystem,
    pending: &mut BTreeSet<Key>,
    max_rounds: usize,
    out: &mut ResilienceOutcome,
) {
    for _ in 0..max_rounds {
        if !pending.is_empty() {
            out.detection_rounds += 1;
        }
        let newly = msys.heartbeat_round();
        for k in newly {
            let expected = ldt_memberships(&msys.sys, k);
            let orphaned_subjects = subjects_owned_by(&msys.sys, k);
            let report = msys.confirm_and_heal(k).expect("confirmed peer is known");
            out.deaths_confirmed += 1;
            out.repairs_expected += expected;
            out.ldts_repaired += report.ldts_repaired.len();
            out.invariant_ok &= report.invariant_ok;
            pending.remove(&k);

            // The acceptance question: do records whose primary just died
            // still resolve (through a surviving replica)?
            let askers = live_of(msys, Mobility::Stationary);
            for m in orphaned_subjects {
                if msys.is_failed(m) || msys.sys.node_info(m).is_err() {
                    continue;
                }
                let Some(&from) = askers.iter().find(|&&s| s != m) else { continue };
                out.dead_primary_lookups += 1;
                if let Ok(r) = msys.sys.discover(from, m) {
                    if r.resolved.is_some() {
                        out.dead_primary_hits += 1;
                    }
                }
            }
        }
        if pending.is_empty() {
            break;
        }
    }
}

/// Runs one churn-resilience scenario: build, churn, detect, heal,
/// measure. Deterministic in `cfg` (same config ⇒ identical outcome).
pub fn run_churn_messaging(cfg: &ResilienceConfig) -> ResilienceOutcome {
    let sys = tiny_system(cfg.seed, cfg.stationary, cfg.mobile, BristleConfig::recommended());
    let mut msys = MessagingBristleSystem::new(sys, FaultConfig::lossy(cfg.loss), cfg.seed ^ 0x51);
    let mut rng = Pcg64::new(cfg.seed, 0xC1A0);

    let mut out = ResilienceOutcome { invariant_ok: true, ..Default::default() };
    let failovers_before = msys.sys.meter.count(MessageKind::ReplicaFailover);
    // Crashes injected but not yet confirmed dead.
    let mut pending: BTreeSet<Key> = BTreeSet::new();

    for e in 0..cfg.events {
        // Adversarial fault placement: kill the busiest record primary at
        // the run's midpoint. Random churn almost never hits the primary
        // (clustered naming concentrates ownership on the band boundary),
        // yet the failover path is exactly what a resilience run must
        // exercise.
        if e == cfg.events / 2 {
            let live_st = live_of(&msys, Mobility::Stationary);
            if live_st.len() > MIN_STATIONARY {
                if let Some(primary) = busiest_owner(&msys) {
                    msys.fail_silently(primary);
                    pending.insert(primary);
                    out.fails += 1;
                }
            }
        }

        // One churn draw per event (the model's weights pick the action;
        // its interval is a real-time notion the event loop abstracts).
        if cfg.churn.is_active() {
            match cfg.churn.next_action(&mut rng) {
                ChurnAction::Join => {
                    let mobility =
                        if rng.chance(0.35) { Mobility::Mobile } else { Mobility::Stationary };
                    msys.sys.join_node(mobility).expect("join succeeds");
                    out.joins += 1;
                }
                action @ (ChurnAction::Leave | ChurnAction::Fail) => {
                    let live_st = live_of(&msys, Mobility::Stationary);
                    let live_mob = live_of(&msys, Mobility::Mobile);
                    let mut cands: Vec<Key> = Vec::new();
                    if live_st.len() > MIN_STATIONARY {
                        cands.extend(&live_st);
                    }
                    if live_mob.len() > MIN_MOBILE {
                        cands.extend(&live_mob);
                    }
                    if !cands.is_empty() {
                        let k = cands[rng.index(cands.len())];
                        if action == ChurnAction::Leave {
                            msys.leave(k).expect("leaver is known");
                            out.leaves += 1;
                        } else {
                            msys.fail_silently(k);
                            pending.insert(k);
                            out.fails += 1;
                        }
                    }
                }
            }
        }

        // Detection: one routine round when all is quiet, a sustained
        // barrage while a silent crash is waiting to be noticed.
        let rounds = if pending.is_empty() { 1 } else { 5 };
        detect_and_heal(&mut msys, &mut pending, rounds, &mut out);

        // Every third event a mobile node moves *silently* — attachment
        // changed, nothing republished — planting a stale record.
        if e % 3 == 1 {
            let movers = live_of(&msys, Mobility::Mobile);
            let anchors = live_of(&msys, Mobility::Stationary);
            if let (Some(&m), false) = (movers.first(), anchors.is_empty()) {
                let host = msys.sys.node_info(m).expect("live mover").host;
                let anchor = anchors[rng.index(anchors.len())];
                let router = msys.sys.router_of(anchor).expect("live anchor");
                msys.sys.attachments.move_host(host, router);
            }
        }

        // Measurement: discoveries first (they surface staleness), then
        // message-passing routes between live endpoints.
        let subjects = live_of(&msys, Mobility::Mobile);
        let askers = live_of(&msys, Mobility::Stationary);
        for _ in 0..DISCOVERIES_PER_EVENT {
            if subjects.is_empty() || askers.is_empty() {
                break;
            }
            let subject = subjects[rng.index(subjects.len())];
            let from = askers[rng.index(askers.len())];
            if from == subject {
                continue;
            }
            let Ok(report) = msys.sys.discover(from, subject) else { continue };
            out.discoveries += 1;
            if let Some(addr) = report.resolved {
                let host = msys.sys.node_info(subject).expect("live subject").host;
                if addr != NetAddr::current(host, &msys.sys.attachments) {
                    out.stale_answers += 1;
                    // The mover's next update operation repairs the lie.
                    msys.sys.move_node(subject, None).expect("subject is mobile");
                    out.stale_repairs += 1;
                }
            }
        }
        let endpoints = live_endpoints(&msys);
        for _ in 0..ROUTES_PER_EVENT {
            if endpoints.len() < 2 {
                break;
            }
            let src = endpoints[rng.index(endpoints.len())];
            let target = endpoints[rng.index(endpoints.len())];
            if src == target {
                continue;
            }
            out.routes.attempted += 1;
            if msys.route(src, target).is_ok() {
                out.routes.delivered += 1;
            }
        }

        msys.sys.tick(5);
        if e % 4 == 3 {
            out.anti_entropy_fixes +=
                msys.sys.anti_entropy_locations().expect("reconciliation succeeds");
        }
    }

    // Flush: confirm any crash still pending, then reconcile replicas.
    detect_and_heal(&mut msys, &mut pending, 5, &mut out);
    out.anti_entropy_fixes += msys.sys.anti_entropy_locations().expect("reconciliation succeeds");

    out.replica_failovers = msys.sys.meter.count(MessageKind::ReplicaFailover) - failovers_before;
    out.telemetry = Telemetry::of(&msys);
    out
}

/// The `resilience` sweep: delivery success, stale-answer rate and repair
/// behaviour as the churn mix shifts toward failures, at several
/// transport loss rates.
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let (stationary, mobile, events) = args.scale.pick((36, 14, 18), (90, 40, 60));
    let mut run = SweepRun::new("resilience", args.seed_or(DEFAULT_SEED));
    let mut table = Table::new(
        "Churn resilience — delivery, staleness and repair vs fail weight × loss",
        &[
            "fail wt",
            "loss",
            "deliv %",
            "stale/disc",
            "fails",
            "confirmed",
            "detect rds",
            "LDT repairs",
            "failover ok",
            "heartbeats",
        ],
    );
    let mut invariant = Claim::every_cell("root-reachability invariant after every repair");
    for fail_weight in [0u32, 1, 3, 6] {
        for loss in [0.0f64, 0.10, 0.20] {
            let mut cfg = ResilienceConfig::standard(args.seed_or(DEFAULT_SEED));
            cfg.stationary = stationary;
            cfg.mobile = mobile;
            cfg.events = events;
            cfg.loss = loss;
            cfg.churn =
                ChurnModel { mean_interval: 50, join_weight: 4, leave_weight: 3, fail_weight };
            let out = run_churn_messaging(&cfg);
            invariant.ok &= out.invariant_ok;
            run.report.push_cell(
                Json::obj([
                    ("fail_weight", Json::U64(fail_weight as u64)),
                    ("loss", Json::F64(loss)),
                    ("stationary", Json::U64(stationary as u64)),
                    ("mobile", Json::U64(mobile as u64)),
                    ("events", Json::U64(events as u64)),
                ]),
                &out.telemetry,
                Json::obj([
                    ("delivery_rate", Json::F64(out.routes.rate())),
                    ("routes_attempted", Json::U64(out.routes.attempted as u64)),
                    ("routes_delivered", Json::U64(out.routes.delivered as u64)),
                    ("discoveries", Json::U64(out.discoveries as u64)),
                    ("stale_answers", Json::U64(out.stale_answers as u64)),
                    ("fails", Json::U64(out.fails as u64)),
                    ("deaths_confirmed", Json::U64(out.deaths_confirmed as u64)),
                    ("detection_rounds", Json::U64(out.detection_rounds as u64)),
                    ("ldts_repaired", Json::U64(out.ldts_repaired as u64)),
                    ("repairs_expected", Json::U64(out.repairs_expected as u64)),
                    ("invariant_ok", Json::Bool(out.invariant_ok)),
                ]),
            );
            let heartbeats = out
                .telemetry
                .tallies
                .iter()
                .find(|&&(k, _, _)| k == MessageKind::HeartbeatSent)
                .map(|&(_, c, _)| c)
                .unwrap_or(0);
            let detect = if out.deaths_confirmed == 0 {
                "—".into()
            } else {
                f2(out.detection_rounds as f64 / out.deaths_confirmed as f64)
            };
            table.row(vec![
                fail_weight.to_string(),
                pct(loss),
                pct(out.routes.rate()),
                format!("{}/{}", out.stale_answers, out.discoveries),
                out.fails.to_string(),
                out.deaths_confirmed.to_string(),
                detect,
                format!("{}/{}", out.ldts_repaired, out.repairs_expected),
                format!("{}/{}", out.dead_primary_hits, out.dead_primary_lookups),
                heartbeats.to_string(),
            ]);
        }
    }
    run.tables.push(table);
    run.claims.push(invariant);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_loses_only_the_primary_and_delivers_fully() {
        let mut cfg = ResilienceConfig::standard(5);
        cfg.churn = ChurnModel::none();
        cfg.loss = 0.0;
        cfg.events = 4;
        let out = run_churn_messaging(&cfg);
        assert_eq!(out.fails, 1, "the midpoint's assassination is the only crash");
        assert_eq!(out.deaths_confirmed, 1);
        assert!(out.dead_primary_lookups > 0);
        assert_eq!(out.dead_primary_hits, out.dead_primary_lookups, "replicas answer for it");
        assert!(out.invariant_ok);
        assert!(out.routes.attempted > 0);
        assert_eq!(out.routes.delivered, out.routes.attempted);
        // Silent movers still plant stale records; discovery surfaces them.
        assert!(out.discoveries > 0);
    }

    #[test]
    fn same_seed_twice_is_identical() {
        let cfg = ResilienceConfig::standard(11);
        let a = run_churn_messaging(&cfg);
        let b = run_churn_messaging(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn churn_confirms_exactly_the_injected_crashes() {
        let cfg = ResilienceConfig::standard(3);
        let out = run_churn_messaging(&cfg);
        assert_eq!(out.deaths_confirmed, out.fails, "every crash must be confirmed: {out:?}");
        assert_eq!(out.ldts_repaired, out.repairs_expected);
        assert!(out.invariant_ok);
    }

    /// The quick sweep runs to its claims at every seed 1-32, and they
    /// hold. A death verdict on a node that has since left (or whose
    /// grave was pruned) used to reach `confirm_and_heal` as a new death
    /// and panic the sweep at seed 16.
    #[test]
    fn the_sweep_completes_and_its_claims_hold_at_every_quick_seed() {
        let seeds: Vec<u64> = (1..=32).collect();
        let failed = crate::sweeps::seeds::violated("resilience", &seeds);
        assert!(failed.is_empty(), "the resilience sweep failed at {failed:?}");
    }
}
