//! Gray-failure degradation scenario: fail-slow nodes, an asymmetric
//! lossy link, and flash-crowd route bursts against bounded ingress
//! queues, under either the fixed [`RetryPolicy`] timers or the
//! adaptive per-peer RTO estimator.
//!
//! The scenario answers the gray-failure questions the binary
//! alive/dead sweeps cannot:
//!
//! * does a *fail-slow* (degraded but alive) node survive detection
//!   without a wrongful funeral, while a genuinely crashed node is
//!   still confirmed and healed?
//! * does the adaptive RTO cut the spurious retransmissions the fixed
//!   timers fire against slowed peers, and with them the load-shed
//!   cascade at bounded ingress queues?
//!
//! Both retry arms run the identical seeded script — same build, same
//! degradation placement, same burst pairs — so their outcome deltas
//! are attributable to the timer policy alone.
//!
//! [`RetryPolicy`]: bristle_proto::machine::RetryPolicy

use bristle_core::config::BristleConfig;
use bristle_core::naming::Mobility;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_proto::failure::FailurePolicy;
use bristle_proto::transport::{Degradation, FaultConfig};

use crate::cli::{SweepArgs, DEFAULT_SEED};
use crate::messaging::MessagingBristleSystem;
use crate::metrics::Samples;
use crate::report::{pct, Table};
use crate::runreport::Json;
use crate::sweeps::{Claim, SweepRun};
use crate::workload::{live_endpoints, live_of, tiny_system, Delivery, Telemetry};

/// Extra one-way loss on the scripted asymmetric link.
pub const LINK_LOSS: f64 = 0.35;
/// Sequential routes before degradation starts, so the adaptive arm's
/// estimators are trained on the healthy network first.
pub const WARMUP_ROUTES: usize = 40;
/// Bounded per-node ingress queue capacity (applied in all cells).
pub const INGRESS_CAP: usize = 6;
/// Base link latency; the slowdown multiplies this, so it sets how far
/// past the fixed 20 000-tick ack timeout a degraded round trip lands.
pub const MIN_LATENCY: u64 = 6_000;
/// Extra missed heartbeat rounds granted to recently-acking peers
/// ([`FailurePolicy::grace_misses`], both arms).
pub const GRACE_MISSES: u32 = 2;

/// Parameters of one degradation run.
#[derive(Debug, Clone, Copy)]
pub struct DegradationConfig {
    /// Seed for the build, the transport, and the scenario draws.
    pub seed: u64,
    /// Stationary population at build time.
    pub stationary: usize,
    /// Mobile population at build time.
    pub mobile: usize,
    /// Adaptive per-peer RTO (`true`) or the fixed retry timers.
    pub adaptive: bool,
    /// Fail-slow latency multiplier applied to the degraded stationary
    /// nodes, in percent (`100` = no degradation cell).
    pub slowdown_pct: u32,
    /// How many stationary nodes the slowdown script hits.
    pub degraded_nodes: usize,
    /// Concurrent routes per flash-crowd wave (the overload axis).
    pub burst: usize,
    /// Flash-crowd waves (one heartbeat round after each).
    pub waves: usize,
    /// Background transport drop probability.
    pub loss: f64,
}

impl DegradationConfig {
    /// The standard acceptance-scale cell: enough slowdown to push
    /// degraded round trips past the fixed 20 000-tick ack timeout,
    /// bursts large enough to actually fill the bounded ingress queues.
    /// Background loss is zero — the resilience sweep owns random loss;
    /// here every anomaly is a *scripted* gray failure, so outcome
    /// deltas are attributable to the fail-slow family alone.
    pub fn standard(seed: u64) -> Self {
        DegradationConfig {
            seed,
            stationary: 36,
            mobile: 14,
            adaptive: false,
            slowdown_pct: 300,
            degraded_nodes: 8,
            burst: 16,
            waves: 10,
            loss: 0.0,
        }
    }
}

/// What one degradation run observed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationOutcome {
    /// Routes across all flash-crowd waves (warmup excluded).
    pub routes: Delivery,
    /// Retransmissions of frames the destination had already processed
    /// (meter [`MessageKind::SpuriousRetry`]).
    pub spurious_retries: u64,
    /// Lookup-class frames shed at full ingress queues
    /// (meter [`MessageKind::LoadShed`]).
    pub load_sheds: u64,
    /// Funerals held for nodes whose machine was still running. The
    /// acceptance bar is zero: fail-slow must never look like death.
    pub wrongful_burials: usize,
    /// Whether the scripted *real* crash was confirmed dead and healed.
    pub crash_confirmed: bool,
    /// Heartbeat rounds from the crash to its confirmation.
    pub detection_rounds: usize,
    /// Most peers simultaneously flagged degraded by the health score
    /// across the run (shows the fail-slow family is *observed*, not
    /// just injected).
    pub degraded_flagged_max: usize,
    /// Median wave-route completion latency (micro-clock ticks).
    pub wave_p50: u64,
    /// 99th-percentile wave-route completion latency.
    pub wave_p99: u64,
    /// Worst wave-route completion latency.
    pub wave_max: u64,
    /// Every wave-route completion latency, sorted ascending — so the
    /// sweep binary can pool cells into per-arm percentiles.
    pub wave_samples: Vec<u64>,
    /// Meter tallies and latency snapshots at the end of the run.
    pub telemetry: Telemetry,
}

/// Every `n`-th key of the sorted stationary population — a
/// deterministic spread of degradation targets around the ring.
fn spread(sorted: &[Key], n: usize) -> Vec<Key> {
    if n == 0 || sorted.is_empty() {
        return Vec::new();
    }
    let step = (sorted.len() / n).max(1);
    sorted.iter().step_by(step).take(n).copied().collect()
}

/// Runs one gray-failure degradation scenario: build, warm up, degrade,
/// crash one node for real, drive flash-crowd waves with heartbeat
/// rounds interleaved, heal, and settle. Deterministic in `cfg`.
pub fn run_degradation(cfg: &DegradationConfig) -> DegradationOutcome {
    let sys = tiny_system(cfg.seed, cfg.stationary, cfg.mobile, BristleConfig::recommended());
    let faults = FaultConfig {
        drop_probability: cfg.loss,
        min_latency: MIN_LATENCY,
        ..FaultConfig::default()
    };
    let mut msys = MessagingBristleSystem::new(sys, faults, cfg.seed ^ 0xD06);
    msys.set_adaptive_rto(cfg.adaptive);
    msys.set_ingress_cap(INGRESS_CAP);
    msys.set_failure_policy(FailurePolicy { grace_misses: GRACE_MISSES });
    msys.seed_monitors();
    let mut rng = Pcg64::new(cfg.seed, 0xDE64);

    let mut out = DegradationOutcome::default();

    let mut endpoints = live_endpoints(&msys);
    let draw_pair = |rng: &mut Pcg64, endpoints: &[Key]| -> Option<(Key, Key)> {
        if endpoints.len() < 2 {
            return None;
        }
        let src = endpoints[rng.index(endpoints.len())];
        let dst = endpoints[rng.index(endpoints.len())];
        (src != dst).then_some((src, dst))
    };

    // Warmup on the healthy network: trains the adaptive arm's RTT
    // estimators; the fixed arm runs the same routes for rng parity.
    for _ in 0..WARMUP_ROUTES {
        if let Some((src, dst)) = draw_pair(&mut rng, &endpoints) {
            let _ = msys.route(src, dst);
        }
    }
    msys.heartbeat_round();

    // Fail-slow scripts: a spread of stationary nodes slowed down, plus
    // one asymmetric lossy link between the first two victims (loss in
    // one direction only — acks die, data arrives).
    let stationary = live_of(&msys, Mobility::Stationary);
    let victims = spread(&stationary, cfg.degraded_nodes);
    if cfg.slowdown_pct > 100 {
        for &v in &victims {
            msys.degrade_node_now(v, Degradation::slowdown(cfg.slowdown_pct));
        }
        if let [a, b, ..] = victims[..] {
            msys.degrade_link_now(a, b, Degradation::lossy(LINK_LOSS));
        }
    }

    // One *real* silent crash among the healthy stationary nodes: the
    // detector must tell slow from dead while the scripts run, so the
    // confirmation races the degraded peers' late acks. Detection and
    // healing complete before the measurement waves — the waves then
    // observe the degradation itself, not the corpse's discovery tail.
    let crash = stationary.iter().rev().copied().find(|k| !victims.contains(k));
    if let Some(c) = crash {
        msys.fail_silently(c);
        for _ in 0..8 {
            out.detection_rounds += 1;
            for k in msys.heartbeat_round() {
                let _ = msys.confirm_and_heal(k);
                if k == c {
                    out.crash_confirmed = true;
                }
            }
            out.degraded_flagged_max = out.degraded_flagged_max.max(msys.degraded_peers().len());
            if out.crash_confirmed {
                break;
            }
        }
    }

    let spurious_before = msys.sys.meter.count(MessageKind::SpuriousRetry);
    let sheds_before = msys.sys.meter.count(MessageKind::LoadShed);
    endpoints.retain(|&k| !msys.is_failed(k));

    let mut wave_latencies = Samples::new();
    for _ in 0..cfg.waves {
        // Each wave is a flash crowd: half its routes converge on one
        // hot target, so the hot record-owner's ingress queue actually
        // fills — the overload the bounded queues exist to survive.
        let hot = endpoints.get(rng.index(endpoints.len().max(1))).copied();
        let mut pairs = Vec::with_capacity(cfg.burst);
        let mut tries = 0;
        while pairs.len() < cfg.burst && tries < cfg.burst * 4 {
            tries += 1;
            if endpoints.len() < 2 {
                break;
            }
            let src = endpoints[rng.index(endpoints.len())];
            let dst = match hot {
                Some(h) if rng.chance(0.5) => h,
                _ => endpoints[rng.index(endpoints.len())],
            };
            if src != dst {
                pairs.push((src, dst));
            }
        }
        let started = msys.micro_now();
        let results = msys.route_burst(&pairs);
        out.routes.attempted += pairs.len();
        for report in results.iter().flatten() {
            out.routes.delivered += 1;
            wave_latencies.push(report.delivered_at.since(started) as f64);
        }

        // One detection round per wave: probes to the degraded peers
        // come back late (health score drops, grace credit accrues).
        // Anything confirmed here is by construction a wrongful burial
        // — the only real corpse was already found above.
        for k in msys.heartbeat_round() {
            let _ = msys.confirm_and_heal(k);
        }
        out.degraded_flagged_max = out.degraded_flagged_max.max(msys.degraded_peers().len());
    }

    msys.heal_degradations_now();

    out.spurious_retries = msys.sys.meter.count(MessageKind::SpuriousRetry) - spurious_before;
    out.load_sheds = msys.sys.meter.count(MessageKind::LoadShed) - sheds_before;
    out.wrongful_burials = msys.wrongly_buried().len();
    if !wave_latencies.is_empty() {
        out.wave_p50 = wave_latencies.percentile(50.0) as u64;
        out.wave_p99 = wave_latencies.percentile(99.0) as u64;
        out.wave_max = wave_latencies.max() as u64;
    }
    out.wave_samples = wave_latencies.sorted_values().iter().map(|&v| v as u64).collect();
    out.telemetry = Telemetry::of(&msys);
    out
}

/// The `degradation` sweep: fail-slow slowdown × flash-crowd overload ×
/// {fixed, adaptive} retransmission timers. Each cell runs the identical
/// seeded script under both timer policies, so the headline claims —
/// fewer spurious retransmissions, a shorter pooled latency tail, zero
/// wrongful burials, and the real crash still found — are attributable
/// to the adaptive RTO alone.
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let (stationary, mobile, degraded_nodes, waves) =
        args.scale.pick((36usize, 14usize, 8usize, 10usize), (90, 40, 20, 16));
    let mut run = SweepRun::new("degradation", args.seed_or(DEFAULT_SEED));
    let mut table = Table::new(
        "Gray-failure degradation — spurious retries and latency tail, by slowdown × burst × RTO",
        &[
            "slowdown",
            "burst",
            "rto",
            "spurious",
            "sheds",
            "p50",
            "p99",
            "deliv",
            "burials",
            "crash found",
            "flagged",
        ],
    );

    // Pooled per-arm wave latencies over the *degraded* cells; the
    // slowdown-free cells are the baseline showing both arms at parity.
    let mut pooled = [Samples::new(), Samples::new()];
    let mut arm_spurious = [0u64; 2];
    let mut arm_sheds = [0u64; 2];
    let mut fewer_spurious = Claim::every_cell(
        "adaptive RTO fires strictly fewer spurious retries in every degraded cell",
    );
    let mut zero_burials =
        Claim::every_cell("zero wrongful burials under gray failure in both arms");
    let mut crash_found = Claim::every_cell("the real crash is confirmed and healed in every cell");
    for slowdown in [100u32, 200, 300] {
        for burst in [16usize, 24] {
            let mut fixed_spurious = None;
            for adaptive in [false, true] {
                let mut cfg = DegradationConfig::standard(args.seed_or(DEFAULT_SEED));
                cfg.stationary = stationary;
                cfg.mobile = mobile;
                cfg.degraded_nodes = degraded_nodes;
                cfg.waves = waves;
                cfg.slowdown_pct = slowdown;
                cfg.burst = burst;
                cfg.adaptive = adaptive;
                let out = run_degradation(&cfg);
                zero_burials.ok &= out.wrongful_burials == 0;
                crash_found.ok &= out.crash_confirmed;
                if slowdown > 100 {
                    let arm = adaptive as usize;
                    for &s in &out.wave_samples {
                        pooled[arm].push(s as f64);
                    }
                    arm_spurious[arm] += out.spurious_retries;
                    arm_sheds[arm] += out.load_sheds;
                    match adaptive {
                        false => fixed_spurious = Some(out.spurious_retries),
                        true => {
                            fewer_spurious.ok &=
                                fixed_spurious.is_some_and(|fixed| out.spurious_retries < fixed);
                        }
                    }
                }
                run.report.push_cell(
                    Json::obj([
                        ("slowdown_pct", Json::U64(slowdown as u64)),
                        ("burst", Json::U64(burst as u64)),
                        ("adaptive_rto", Json::Bool(adaptive)),
                        ("stationary", Json::U64(stationary as u64)),
                        ("mobile", Json::U64(mobile as u64)),
                        ("waves", Json::U64(waves as u64)),
                        ("ingress_cap", Json::U64(INGRESS_CAP as u64)),
                    ]),
                    &out.telemetry,
                    Json::obj([
                        ("spurious_retries", Json::U64(out.spurious_retries)),
                        ("load_sheds", Json::U64(out.load_sheds)),
                        ("wave_p50", Json::U64(out.wave_p50)),
                        ("wave_p99", Json::U64(out.wave_p99)),
                        ("wave_max", Json::U64(out.wave_max)),
                        ("routes_attempted", Json::U64(out.routes.attempted as u64)),
                        ("routes_delivered", Json::U64(out.routes.delivered as u64)),
                        ("delivery_rate", Json::F64(out.routes.rate())),
                        ("wrongful_burials", Json::U64(out.wrongful_burials as u64)),
                        ("crash_confirmed", Json::Bool(out.crash_confirmed)),
                        ("detection_rounds", Json::U64(out.detection_rounds as u64)),
                        ("degraded_flagged_max", Json::U64(out.degraded_flagged_max as u64)),
                    ]),
                );
                table.row(vec![
                    format!("{slowdown}%"),
                    burst.to_string(),
                    if adaptive { "adaptive".into() } else { "fixed".into() },
                    out.spurious_retries.to_string(),
                    out.load_sheds.to_string(),
                    out.wave_p50.to_string(),
                    out.wave_p99.to_string(),
                    pct(out.routes.rate()),
                    out.wrongful_burials.to_string(),
                    out.crash_confirmed.to_string(),
                    out.degraded_flagged_max.to_string(),
                ]);
            }
        }
    }
    run.tables.push(table);

    let [fixed_p99, adaptive_p99] = pooled.each_mut().map(|s| s.percentile(99.0) as u64);
    let [fixed_max, adaptive_max] = pooled.each_mut().map(|s| s.max() as u64);
    run.report.push_cell(
        Json::obj([("cell", Json::Str("arm_summary".into()))]),
        &Telemetry::default(),
        Json::obj([
            ("degraded_samples_per_arm", Json::U64(pooled[0].len() as u64)),
            ("fixed_spurious", Json::U64(arm_spurious[0])),
            ("adaptive_spurious", Json::U64(arm_spurious[1])),
            ("fixed_sheds", Json::U64(arm_sheds[0])),
            ("adaptive_sheds", Json::U64(arm_sheds[1])),
            ("fixed_p99", Json::U64(fixed_p99)),
            ("adaptive_p99", Json::U64(adaptive_p99)),
            ("fixed_max", Json::U64(fixed_max)),
            ("adaptive_max", Json::U64(adaptive_max)),
        ]),
    );
    let p99_beats = Claim::pooled(
        format!(
            "adaptive arm p99 route latency beats the fixed arm over the degraded cells \
             ({adaptive_p99} < {fixed_p99})"
        ),
        adaptive_p99 < fixed_p99,
    );
    run.claims.extend([fewer_spurious, p99_beats, zero_burials, crash_found]);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_twice_is_identical() {
        let cfg = DegradationConfig::standard(11);
        let a = run_degradation(&cfg);
        let b = run_degradation(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn undegraded_cell_is_clean() {
        let mut cfg = DegradationConfig::standard(5);
        cfg.slowdown_pct = 100;
        cfg.loss = 0.0;
        let out = run_degradation(&cfg);
        assert_eq!(out.wrongful_burials, 0);
        assert!(out.crash_confirmed, "the real crash must be confirmed: {out:?}");
        assert_eq!(out.spurious_retries, 0, "no timeouts on a clean network");
        assert_eq!(out.routes.delivered, out.routes.attempted);
    }

    #[test]
    fn degraded_cell_flags_peers_without_burying_them() {
        let cfg = DegradationConfig::standard(8);
        let out = run_degradation(&cfg);
        assert_eq!(out.wrongful_burials, 0, "fail-slow must never look like death: {out:?}");
        assert!(out.crash_confirmed, "slow ≠ dead must still find the corpse: {out:?}");
        assert!(out.degraded_flagged_max > 0, "health scoring saw no degraded peer: {out:?}");
    }
}
