//! Adversarial overlay scenarios: four scripted attack families run
//! against the message-passing deployment under each [`VerifyPolicy`],
//! measuring how far a protocol-level attacker gets.
//!
//! The adversary models the classic structured-overlay threat surface
//! (Castro et al., OSDI '02) specialized to Bristle's mobility
//! machinery:
//!
//! * [`AttackFamily::ForgedRefutation`] — forge `Alive` refutations for
//!   a confirmed-dead node so survivors overturn its funeral and keep
//!   routing to a corpse.
//! * [`AttackFamily::Eclipse`] — flood a mobile node's LDT registrant
//!   set with spoofed high-capacity `Register`s, crowding honest
//!   registrants out of its dissemination tree.
//! * [`AttackFamily::SybilFlood`] — publish location records for
//!   identities that do not exist, squatting the stationary band's
//!   replica stores.
//! * [`AttackFamily::StaleReplay`] — re-inject a *genuinely signed*
//!   `Publish` captured before its subject's funeral, resurrecting a
//!   withdrawn record without forging anything.
//!
//! The attacker is protocol-level: it can put arbitrary bytes on the
//! wire from any router ([`MessagingBristleSystem::inject_frame`]) and
//! can replay signatures it observed, but it cannot invert the identity
//! hash's MAC or read another node's signing secret. Identity alone is
//! *not* a defense here — Bristle's toy pubkey derivation is public, so
//! a Sybil can always mint a self-consistent identity; the MAC over the
//! frame body is what the verifying receive path actually checks.
//!
//! Everything is seeded: the same [`AttackConfig`] always yields the
//! same [`AttackOutcome`], so the `attacks` sweep can be pinned in CI.

use bristle_core::auth::{AuthDomain, VerifyPolicy};
use bristle_core::config::BristleConfig;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_proto::transport::FaultConfig;
use bristle_proto::wire::{Envelope, WireMessage};

use crate::cli::{SweepArgs, DEFAULT_SEED};
use crate::messaging::{wire_addr_of, MessagingBristleSystem};
use crate::report::{pct, Table};
use crate::runreport::Json;
use crate::sweeps::{Claim, SweepRun};
use crate::workload::{
    busiest_primary, crash_and_bury, fixed_pairs, live_endpoints, measure_pairs, rate, tiny_system,
    BeforeAfter, Telemetry,
};

/// Honest registrants attached to the victim before the attack.
pub const HONEST_REGISTRANTS: usize = 3;
/// Sybil identities the adversary mints (eclipse and sybil-flood).
pub const SYBILS: usize = 6;
/// Maximum heartbeat rounds for the forced-refutation funeral to be
/// detected before the scenario confirms it directly.
pub const DETECTION_ROUNDS: usize = 8;
/// Endpoint pairs measured before and after the attack volley.
pub const ROUTE_PAIRS: usize = 16;

/// The four scripted attack families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackFamily {
    /// Forged `Alive` refutations keep a corpse routable.
    ForgedRefutation,
    /// Spoofed `Register`s eclipse a mobile node's registrant set.
    Eclipse,
    /// Fabricated identities squat the stationary band's stores.
    SybilFlood,
    /// A captured, genuinely signed `Publish` is replayed after the
    /// subject's funeral withdrew it.
    StaleReplay,
}

/// Every family, in sweep order.
pub const ALL_FAMILIES: [AttackFamily; 4] = [
    AttackFamily::ForgedRefutation,
    AttackFamily::Eclipse,
    AttackFamily::SybilFlood,
    AttackFamily::StaleReplay,
];

impl AttackFamily {
    /// Short label for tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            AttackFamily::ForgedRefutation => "forged-refutation",
            AttackFamily::Eclipse => "eclipse",
            AttackFamily::SybilFlood => "sybil-flood",
            AttackFamily::StaleReplay => "stale-replay",
        }
    }
}

/// Parameters of one attack run.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Seed for the system build, the transport, and the scenario draws.
    pub seed: u64,
    /// Which attack the adversary scripts.
    pub family: AttackFamily,
    /// How strictly honest nodes authenticate received frames. Frames
    /// are *sealed* in every arm; only checking varies, so the policy
    /// knob is the single difference between arms.
    pub policy: VerifyPolicy,
    /// Stationary population at build time.
    pub stationary: usize,
    /// Mobile population at build time.
    pub mobile: usize,
}

impl AttackConfig {
    /// The standard acceptance-scale run at `seed`.
    pub fn standard(seed: u64, family: AttackFamily, policy: VerifyPolicy) -> Self {
        AttackConfig { seed, family, policy, stationary: 40, mobile: 16 }
    }
}

/// What one attack run observed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttackOutcome {
    /// The attacked node (mobile for every family; for sybil-flood the
    /// victim is the stationary band itself and this is its busiest
    /// primary).
    pub victim: Key,
    /// Frames the adversary put on the wire.
    pub attempts: u64,
    /// Attack frames that achieved their effect (family-specific: a
    /// funeral overturned, a sybil registered, a fake record installed,
    /// a withdrawn record resurrected).
    pub successes: u64,
    /// `ForgedFrame` meter delta across the volley: frames whose
    /// authentication failed (metered under log-only and enforce).
    pub forged_frames: u64,
    /// `AuthReject` meter delta: failed frames actually dropped
    /// (enforce only).
    pub auth_rejects: u64,
    /// Honest delivery over the same fixed pairs before and after the
    /// volley.
    pub honest: BeforeAfter,
    /// Meter tallies and latency snapshots at the end of the run.
    pub telemetry: Telemetry,
}

impl AttackOutcome {
    /// Fraction of attack frames that achieved their effect.
    pub fn success_rate(&self) -> f64 {
        rate(self.successes, self.attempts, 0.0)
    }
}

/// Base for the adversary's sender-scoped message ids — far above
/// anything honest machines allocate, so injected frames never collide
/// in a receiver's `(src, msg_id)` dedup window.
const ADV_MSG_ID: u64 = 0xAD00_0000_0000_0000;

/// Trace id stamped on injected frames, so the flight recorder can
/// isolate the volley's causal story.
const ADV_TRACE: u64 = 0xADAD;

/// One injected frame: the adversary transmits from `from_router` like
/// any honest host would, through the same links and scheduling.
fn inject(
    msys: &mut MessagingBristleSystem,
    from_router: bristle_netsim::graph::RouterId,
    to: Key,
    env: Envelope,
) -> bool {
    match wire_addr_of(&msys.sys, to) {
        Some(addr) => {
            msys.inject_frame(from_router, addr, env);
            true
        }
        None => false,
    }
}

/// Runs one adversarial scenario: build, arm the policy, stage the
/// family's preconditions, fire the volley, settle, measure.
/// Deterministic in `cfg`.
pub fn run_attack(cfg: &AttackConfig) -> AttackOutcome {
    // A lossless transport keeps the success counts exact: what varies
    // between arms is the verify policy, not the network's dice.
    let sys = tiny_system(cfg.seed, cfg.stationary, cfg.mobile, BristleConfig::recommended());
    let mut msys = MessagingBristleSystem::new(sys, FaultConfig::perfect(), cfg.seed ^ 0xA7);
    let mut rng = Pcg64::new(cfg.seed, 0xA77C);

    // Honest nodes seal their frames in every arm; the policy knob
    // alone decides whether anyone looks at the trailers.
    msys.enable_auth(cfg.seed);
    msys.set_verify_policy(cfg.policy);
    let domain = msys.auth_domain().expect("auth just enabled");

    let victim = match cfg.family {
        AttackFamily::SybilFlood => busiest_primary(&msys.sys),
        _ => msys.sys.mobile_keys()[0],
    };

    // The adversary transmits from an honest stationary host's router —
    // an on-path attacker needs no overlay membership of its own.
    let attacker_router =
        msys.sys.router_of(msys.sys.stationary_keys()[0]).expect("stationary node is live");

    // Honest registrants give the victim a watcher set (and, for the
    // eclipse family, the honest LDT the sybils try to crowd out).
    let mut honest_regs: Vec<Key> = Vec::new();
    if cfg.family != AttackFamily::SybilFlood {
        let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
        for &m in mobiles.iter().filter(|&&m| m != victim).take(HONEST_REGISTRANTS) {
            msys.register(m, victim).expect("registration completes");
            honest_regs.push(m);
        }
    }
    msys.seed_monitors();

    // Fixed endpoint pairs, measured identically before and after the
    // volley: enforcement must not tax honest traffic.
    let pairs = fixed_pairs(&msys, &mut rng, ROUTE_PAIRS, Some(victim));

    let mut out = AttackOutcome { victim, ..Default::default() };
    out.honest.pre = measure_pairs(&mut msys, &pairs);

    // Families that attack a corpse stage a real funeral first.
    let needs_funeral =
        matches!(cfg.family, AttackFamily::ForgedRefutation | AttackFamily::StaleReplay);
    // Stale replay captures the victim's signed publication *before*
    // the crash — exactly what an eavesdropper on any replica path saw.
    let captured: Option<Envelope> = if cfg.family == AttackFamily::StaleReplay {
        let addr = wire_addr_of(&msys.sys, victim).expect("victim is live pre-crash");
        let seq = msys
            .sys
            .stationary
            .replica_set(victim, msys.sys.config().location_replicas)
            .ok()
            .and_then(|set| set.first().copied())
            .and_then(|h| msys.sys.stationary.node(h).ok())
            .and_then(|n| n.store.get(&victim))
            .map(|r| r.seq)
            .unwrap_or(1);
        let msg = WireMessage::Publish { subject: victim, addr, seq };
        let mut env = Envelope {
            src: victim,
            dst: Key(0), // patched per holder below
            msg_id: ADV_MSG_ID,
            trace_id: ADV_TRACE,
            msg,
            auth: None,
        };
        // A *valid* trailer: the body digest signed with the subject's
        // key, as it actually crossed the wire. No forgery involved.
        env.auth = Some(domain.sign(victim, env.msg.auth_digest()));
        Some(env)
    } else {
        None
    };

    if needs_funeral {
        crash_and_bury(&mut msys, victim, DETECTION_ROUNDS);
    }

    let meter_count = |msys: &MessagingBristleSystem, kind: MessageKind| msys.sys.meter.count(kind);
    let wrongful_before = meter_count(&msys, MessageKind::WrongfulDeath);
    let forged_before = meter_count(&msys, MessageKind::ForgedFrame);
    let rejects_before = meter_count(&msys, MessageKind::AuthReject);

    // The volley.
    let mut next_id = ADV_MSG_ID + 1;
    match cfg.family {
        AttackFamily::ForgedRefutation => {
            // One forged refutation per surviving node: "I am alive at
            // an incarnation far beyond my obituary."
            let mut targets = live_endpoints(&msys);
            targets.retain(|&t| t != victim);
            for t in targets {
                let msg = WireMessage::Alive { node: victim, incarnation: 1000 };
                let mut env = Envelope {
                    src: victim,
                    dst: t,
                    msg_id: next_id,
                    trace_id: ADV_TRACE,
                    msg,
                    auth: None,
                };
                // The adversary does not hold the victim's secret: the
                // trailer certifies the identity but fails the MAC.
                env.auth = Some(AuthDomain::forged(victim));
                if inject(&mut msys, attacker_router, t, env) {
                    out.attempts += 1;
                    next_id += 1;
                }
            }
        }
        AttackFamily::Eclipse => {
            // Spoofed registrations from sybil identities, each claiming
            // enormous capacity so LDT scheduling seats them high.
            for i in 0..SYBILS {
                let sybil = Key(0xEC11_0000_0000_0000 + i as u64);
                // Floor 0 silences none of the sybil's own frames.
                let msg = WireMessage::Register { target: victim, capacity: 1_000_000, floor: 0 };
                let mut env = Envelope {
                    src: sybil,
                    dst: victim,
                    msg_id: next_id,
                    trace_id: ADV_TRACE,
                    msg,
                    auth: None,
                };
                env.auth = Some(AuthDomain::forged(sybil));
                if inject(&mut msys, attacker_router, victim, env) {
                    out.attempts += 1;
                    next_id += 1;
                }
            }
        }
        AttackFamily::SybilFlood => {
            // Fabricated identities publish location records straight to
            // the stationary band's replica holders.
            for i in 0..SYBILS {
                let sybil = Key(0x5B11_0000_0000_0000 + i as u64);
                let addr = wire_addr_of(&msys.sys, victim).expect("primary is live");
                let holders = msys
                    .sys
                    .stationary
                    .replica_set(sybil, msys.sys.config().location_replicas)
                    .unwrap_or_default();
                for h in holders {
                    let msg = WireMessage::Publish { subject: sybil, addr, seq: 1 };
                    let mut env = Envelope {
                        src: sybil,
                        dst: h,
                        msg_id: next_id,
                        trace_id: ADV_TRACE,
                        msg,
                        auth: None,
                    };
                    env.auth = Some(AuthDomain::forged(sybil));
                    if inject(&mut msys, attacker_router, h, env) {
                        out.attempts += 1;
                        next_id += 1;
                    }
                }
            }
        }
        AttackFamily::StaleReplay => {
            // Replay the captured publication to the dead subject's
            // replica holders; its funeral withdrew the real record.
            let captured = captured.expect("staged above");
            let holders = msys
                .sys
                .stationary
                .replica_set(victim, msys.sys.config().location_replicas)
                .unwrap_or_default();
            for h in holders {
                let mut env = captured.clone();
                env.dst = h;
                env.msg_id = next_id;
                if inject(&mut msys, attacker_router, h, env) {
                    out.attempts += 1;
                    next_id += 1;
                }
            }
        }
    }
    msys.settle_injected();

    out.forged_frames = meter_count(&msys, MessageKind::ForgedFrame) - forged_before;
    out.auth_rejects = meter_count(&msys, MessageKind::AuthReject) - rejects_before;

    // Family-specific effect measurement.
    out.successes = match cfg.family {
        AttackFamily::ForgedRefutation => {
            meter_count(&msys, MessageKind::WrongfulDeath) - wrongful_before
        }
        AttackFamily::Eclipse => {
            let regs = msys.sys.registry.registrants_of(victim);
            regs.filter(|r| (r.key.0 >> 32) == (0xEC11_0000_0000_0000u64 >> 32)).count() as u64
        }
        AttackFamily::SybilFlood => {
            let mut installed = 0u64;
            for i in 0..SYBILS {
                let sybil = Key(0x5B11_0000_0000_0000 + i as u64);
                for &s in msys.sys.stationary_keys() {
                    if let Ok(node) = msys.sys.stationary.node(s) {
                        if node.store.contains_key(&sybil) {
                            installed += 1;
                        }
                    }
                }
            }
            installed
        }
        AttackFamily::StaleReplay => {
            let mut resurrected = 0u64;
            for &s in msys.sys.stationary_keys() {
                if let Ok(node) = msys.sys.stationary.node(s) {
                    if node.store.contains_key(&victim) {
                        resurrected += 1;
                    }
                }
            }
            resurrected
        }
    };

    out.honest.post = measure_pairs(&mut msys, &pairs);

    out.telemetry = Telemetry::of(&msys);
    out
}

/// The `attacks` sweep: the four scripted attack families against every
/// verification policy (off / log-only / enforce). Each cell's pre-volley
/// delivery measurement doubles as that policy's no-attack baseline.
pub fn sweep(args: &SweepArgs) -> SweepRun {
    const POLICIES: [VerifyPolicy; 3] =
        [VerifyPolicy::Off, VerifyPolicy::LogOnly, VerifyPolicy::Enforce];
    let (stationary, mobile) = args.scale.pick((40usize, 16usize), (90, 40));
    let mut run = SweepRun::new("attacks", args.seed_or(DEFAULT_SEED));
    let mut table = Table::new(
        "Adversarial overlay — attack success and honest delivery, by family × verify policy",
        &[
            "family",
            "policy",
            "attempts",
            "successes",
            "success rate",
            "forged metered",
            "dropped",
            "deliv pre→post",
        ],
    );
    let mut enforce_stops = Claim::every_cell("enforcement stops every attack family cold");
    let mut off_lands = Claim::every_cell("with verification off every family lands");
    let mut enforce_is_free =
        Claim::every_cell("enforcement costs honest pre-attack delivery nothing");
    for family in ALL_FAMILIES {
        let mut off_baseline = None;
        for policy in POLICIES {
            let mut cfg = AttackConfig::standard(args.seed_or(DEFAULT_SEED), family, policy);
            cfg.stationary = stationary;
            cfg.mobile = mobile;
            let out = run_attack(&cfg);
            match policy {
                VerifyPolicy::Off => {
                    off_lands.ok &= out.successes > 0;
                    off_baseline = Some(out.honest.pre.delivered);
                }
                VerifyPolicy::LogOnly => {}
                VerifyPolicy::Enforce => {
                    enforce_stops.ok &= out.successes == 0;
                    enforce_is_free.ok &=
                        off_baseline.is_some_and(|base| out.honest.pre.delivered == base);
                }
            }
            run.report.push_cell(
                Json::obj([
                    ("family", Json::Str(family.name().into())),
                    ("policy", Json::Str(policy.name().into())),
                    ("stationary", Json::U64(stationary as u64)),
                    ("mobile", Json::U64(mobile as u64)),
                ]),
                &out.telemetry,
                Json::obj([
                    ("attempts", Json::U64(out.attempts)),
                    ("successes", Json::U64(out.successes)),
                    ("success_rate", Json::F64(out.success_rate())),
                    ("forged_frames", Json::U64(out.forged_frames)),
                    ("auth_rejects", Json::U64(out.auth_rejects)),
                    ("pre_rate", Json::F64(out.honest.pre_rate())),
                    ("post_rate", Json::F64(out.honest.post_rate())),
                ]),
            );
            table.row(vec![
                family.name().to_string(),
                policy.name().to_string(),
                out.attempts.to_string(),
                out.successes.to_string(),
                pct(out.success_rate()),
                out.forged_frames.to_string(),
                out.auth_rejects.to_string(),
                format!("{}→{}", pct(out.honest.pre_rate()), pct(out.honest.post_rate())),
            ]);
        }
    }
    run.tables.push(table);
    run.claims.extend([enforce_stops, off_lands, enforce_is_free]);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(family: AttackFamily, policy: VerifyPolicy) -> AttackOutcome {
        run_attack(&AttackConfig::standard(8, family, policy))
    }

    #[test]
    fn every_family_succeeds_with_verification_off() {
        for family in ALL_FAMILIES {
            let out = run(family, VerifyPolicy::Off);
            assert!(out.attempts > 0, "{} must fire frames", family.name());
            assert!(out.successes > 0, "{} must succeed unverified: {out:?}", family.name());
            assert_eq!(out.forged_frames, 0, "off means nobody checks: {out:?}");
            assert_eq!(out.auth_rejects, 0, "off means nobody drops: {out:?}");
        }
    }

    #[test]
    fn every_family_is_stopped_by_enforcement() {
        for family in ALL_FAMILIES {
            let out = run(family, VerifyPolicy::Enforce);
            assert!(out.attempts > 0, "{} must fire frames", family.name());
            assert_eq!(
                out.successes,
                0,
                "{} must be stopped under enforce: {out:?}",
                family.name()
            );
            assert!(out.forged_frames > 0, "failures must be metered: {out:?}");
            assert!(out.auth_rejects > 0, "failures must be dropped: {out:?}");
        }
    }

    #[test]
    fn log_only_observes_but_does_not_stop() {
        for family in ALL_FAMILIES {
            let out = run(family, VerifyPolicy::LogOnly);
            assert!(out.successes > 0, "{} still lands under log-only: {out:?}", family.name());
            assert!(out.forged_frames > 0, "but every bad frame is metered: {out:?}");
            assert_eq!(out.auth_rejects, 0, "and none are dropped: {out:?}");
        }
    }

    #[test]
    fn enforcement_does_not_tax_honest_delivery() {
        for family in ALL_FAMILIES {
            let off = run(family, VerifyPolicy::Off);
            let enforce = run(family, VerifyPolicy::Enforce);
            assert_eq!(
                enforce.honest.pre.delivered,
                off.honest.pre.delivered,
                "{}: sealed-but-unchecked and sealed-and-checked honest \
                 traffic must deliver identically",
                family.name()
            );
            assert!(
                enforce.honest.post_rate() >= off.honest.post_rate(),
                "{}: enforcement must not hurt post-attack delivery \
                 (enforce {:.2} vs off {:.2})",
                family.name(),
                enforce.honest.post_rate(),
                off.honest.post_rate()
            );
        }
    }

    #[test]
    fn same_seed_twice_is_identical() {
        for family in ALL_FAMILIES {
            let cfg = AttackConfig::standard(9, family, VerifyPolicy::Enforce);
            assert_eq!(run_attack(&cfg), run_attack(&cfg), "{}", family.name());
        }
    }
}
