//! Acceptance tests for the adversarial overlay
//! ([`bristle::core::auth`] + [`bristle::sim::adversary`]).
//!
//! The headline claims, pinned at the two CI seeds: with verification
//! off every scripted attack family lands, under enforcement every one
//! is stopped cold (success rate exactly zero), log-only observes
//! without dropping, and enforcement costs honest traffic nothing.

use bristle::core::auth::VerifyPolicy;
use bristle::sim::adversary::{run_attack, AttackConfig, ALL_FAMILIES};

/// The two fixed seeds CI runs.
const CI_SEEDS: [u64; 2] = [8, 27];

#[test]
fn every_attack_family_succeeds_unverified_at_both_ci_seeds() {
    for seed in CI_SEEDS {
        for family in ALL_FAMILIES {
            let out = run_attack(&AttackConfig::standard(seed, family, VerifyPolicy::Off));
            assert!(out.attempts > 0, "seed {seed} {}: no frames fired", family.name());
            assert!(
                out.successes > 0,
                "seed {seed} {}: attack must land with verification off: {out:?}",
                family.name()
            );
        }
    }
}

#[test]
fn enforcement_zeroes_every_attack_family_at_both_ci_seeds() {
    for seed in CI_SEEDS {
        for family in ALL_FAMILIES {
            let out = run_attack(&AttackConfig::standard(seed, family, VerifyPolicy::Enforce));
            assert!(out.attempts > 0, "seed {seed} {}: no frames fired", family.name());
            assert_eq!(
                out.successes,
                0,
                "seed {seed} {}: enforcement must stop the attack: {out:?}",
                family.name()
            );
            assert!(
                out.forged_frames > 0 && out.auth_rejects > 0,
                "seed {seed} {}: rejections must be metered: {out:?}",
                family.name()
            );
        }
    }
}

#[test]
fn log_only_meters_every_forgery_without_dropping_at_both_ci_seeds() {
    for seed in CI_SEEDS {
        for family in ALL_FAMILIES {
            let out = run_attack(&AttackConfig::standard(seed, family, VerifyPolicy::LogOnly));
            assert!(
                out.successes > 0,
                "seed {seed} {}: log-only must not block: {out:?}",
                family.name()
            );
            assert!(
                out.forged_frames >= out.attempts,
                "seed {seed} {}: every attack frame must be metered: {out:?}",
                family.name()
            );
            assert_eq!(
                out.auth_rejects,
                0,
                "seed {seed} {}: log-only must drop nothing: {out:?}",
                family.name()
            );
        }
    }
}

#[test]
fn enforcement_never_hurts_honest_delivery_at_both_ci_seeds() {
    for seed in CI_SEEDS {
        for family in ALL_FAMILIES {
            let off = run_attack(&AttackConfig::standard(seed, family, VerifyPolicy::Off));
            let enforce = run_attack(&AttackConfig::standard(seed, family, VerifyPolicy::Enforce));
            assert_eq!(
                (enforce.honest.pre.delivered, enforce.honest.pre.attempted),
                (off.honest.pre.delivered, off.honest.pre.attempted),
                "seed {seed} {}: pre-attack delivery must not depend on the policy",
                family.name()
            );
            assert!(
                enforce.honest.post_rate() >= off.honest.post_rate(),
                "seed {seed} {}: enforcement degraded post-attack delivery \
                 ({:.3} < {:.3})",
                family.name(),
                enforce.honest.post_rate(),
                off.honest.post_rate()
            );
        }
    }
}

/// Determinism: the whole adversarial scenario — build, staging,
/// volley, settle, measurement — replays identically from the same
/// seed under every policy.
#[test]
fn same_seed_attack_runs_are_identical() {
    for family in ALL_FAMILIES {
        for policy in [VerifyPolicy::Off, VerifyPolicy::LogOnly, VerifyPolicy::Enforce] {
            let cfg = AttackConfig::standard(CI_SEEDS[0], family, policy);
            assert_eq!(
                run_attack(&cfg),
                run_attack(&cfg),
                "{} under {:?} diverged",
                family.name(),
                policy
            );
        }
    }
}
