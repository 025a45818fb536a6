//! Acceptance tests for crash-restart durability
//! ([`bristle::store`] + [`bristle::sim::durability`]).
//!
//! The headline scenario: the busiest record primary is WAL-backed,
//! killed silently, detected and buried by the heartbeat machinery, and
//! then restarted from its durable store. The restart must recover the
//! full shard it held at crash time — records, its explicit
//! registration, a strictly fresher incarnation — off disk, with zero
//! `Replicate` traffic, and keep no registration its rewired rows do not
//! name; and on the same seed the log-replay rejoin must settle with
//! strictly fewer republication messages than the blank-disk rejoin
//! path that re-learns the shard from the surviving replicas.

use std::collections::BTreeMap;

use bristle::core::config::BristleConfig;
use bristle::core::location::LocationRecord;
use bristle::core::system::{BristleBuilder, BristleSystem};
use bristle::netsim::transit_stub::TransitStubConfig;
use bristle::overlay::key::Key;
use bristle::overlay::meter::MessageKind;
use bristle::proto::transport::FaultConfig;
use bristle::sim::durability::{run_durability, DurabilityConfig, RestartMode};
use bristle::sim::messaging::MessagingBristleSystem;
use bristle::store::WalBackend;

/// The two fixed seeds CI runs; both produce a victim with a non-empty
/// shard and a strict restart-vs-republish traffic gap.
const CI_SEEDS: [u64; 2] = [8, 27];

/// The stationary node holding the most location records (ties break
/// toward the smaller key for determinism).
fn busiest_primary(sys: &BristleSystem) -> Key {
    let mut best = (0usize, Key(u64::MAX));
    for &s in sys.stationary_keys() {
        let n = sys.stationary.node(s).map(|node| node.store.len()).unwrap_or(0);
        if n > best.0 || (n == best.0 && s < best.1) {
            best = (n, s);
        }
    }
    best.1
}

fn scratch(name: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("bristle-crash-restart-test-{}", std::process::id()))
        .join(format!("{name}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Hand-driven crash-restart: kill a WAL-backed record primary through
/// the messaging driver, let detection harden and the funeral run, then
/// restart from the store and check the recovered state field by field.
fn assert_shard_recovers(seed: u64) {
    let dir = scratch("shard", seed);
    let sys = BristleBuilder::new(seed)
        .stationary_nodes(40)
        .mobile_nodes(16)
        .topology(TransitStubConfig::tiny())
        .config(BristleConfig::recommended())
        .build()
        .expect("system builds");
    let mut msys = MessagingBristleSystem::new(sys, FaultConfig::perfect(), seed);

    let victim = busiest_primary(&msys.sys);
    msys.sys.attach_wal(victim, WalBackend::open(&dir, 8).expect("WAL opens"));

    // Warm-up mobility so the WAL holds live history, not just the
    // build-time state.
    for i in 0..6 {
        let m = msys.sys.mobile_keys()[i % msys.sys.mobile_keys().len()];
        msys.sys.move_node(m, None).expect("mover is live");
    }
    // One explicit registration, to a mobile node no row of the victim's
    // names: the one edge its disk keeps.
    let rows =
        |msys: &MessagingBristleSystem| msys.sys.mobile.node(victim).map(|n| n.keys().to_vec());
    let held = rows(&msys).expect("victim is live");
    let friend = *msys.sys.mobile_keys().iter().find(|k| !held.contains(k)).expect("a stranger");
    msys.register(victim, friend).expect("registration completes");

    let shard: BTreeMap<Key, LocationRecord> = msys
        .sys
        .stationary
        .node(victim)
        .expect("victim is a live primary")
        .store
        .iter()
        .map(|(&k, &r)| (k, r))
        .collect();
    assert!(!shard.is_empty(), "seed {seed}: victim must hold records for the test to bite");
    let edges: Vec<Key> = msys
        .sys
        .registry
        .iter()
        .filter(|(_, regs)| regs.clone().any(|r| r.key == victim))
        .map(|(target, _)| target)
        .collect();
    let buried_incarnation = msys.sys.node_info(victim).expect("victim is known").incarnation;

    // Crash silently; heartbeats must detect and confirm the death.
    msys.fail_silently(victim);
    let mut confirmed = false;
    for _ in 0..8 {
        if msys.heartbeat_round().contains(&victim) {
            msys.confirm_and_heal(victim).expect("victim is known");
            confirmed = true;
            break;
        }
    }
    assert!(confirmed, "seed {seed}: the crash was never detected");
    assert!(msys.sys.is_confirmed_dead(victim));
    assert!(msys.sys.stationary.node(victim).is_err(), "the shard died with the corpse");

    // Restart from the store: the shard comes off disk, not the network.
    let replicate_before = msys.sys.meter.count(MessageKind::Replicate);
    let report = msys.crash_restart(victim).expect("victim restarts");
    assert!(report.restored, "seed {seed}: a confirmed corpse must restart");
    let replay = report.replay.as_ref().expect("a WAL-backed node replays its log");
    assert!(
        replay.snapshot_records + replay.log_records > 0,
        "seed {seed}: the replay read nothing"
    );
    assert_eq!(
        msys.sys.meter.count(MessageKind::Replicate),
        replicate_before,
        "seed {seed}: shard recovery must be local — no Replicate traffic"
    );

    // (a) Full shard back, record for record.
    assert_eq!(report.records_recovered, shard.len(), "seed {seed}: {report:?}");
    let restored = msys.sys.stationary.node(victim).expect("victim lives again");
    for (subject, record) in &shard {
        assert_eq!(
            restored.store.get(subject),
            Some(record),
            "seed {seed}: record for {subject} did not survive the restart"
        );
    }
    // (b) A pre-crash edge survives exactly when the restarted rows still
    // name its target or it is explicit; the explicit one is among them.
    let rows = rows(&msys).expect("victim lives again");
    assert!(edges.contains(&friend), "seed {seed}: the explicit edge stood before the crash");
    for target in &edges {
        let kept = msys.sys.registry.registrants_of(*target).any(|r| r.key == victim);
        let due = rows.contains(target) || *target == friend;
        assert_eq!(kept, due, "seed {seed}: registration to {target} kept {kept}, due {due}");
    }
    // (c) The restart out-ranks both the funeral and the persisted life.
    assert!(
        report.incarnation > buried_incarnation,
        "seed {seed}: restart incarnation must out-rank the burial"
    );
    assert_eq!(msys.sys.node_info(victim).expect("known").incarnation, report.incarnation);
    assert!(!msys.sys.is_confirmed_dead(victim));

    // One anti-entropy pass settles anything the disk missed; a second
    // finds nothing.
    msys.sys.anti_entropy_locations().expect("reconciliation succeeds");
    assert_eq!(msys.sys.anti_entropy_locations().expect("second pass"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same seed, two recovery paths: the WAL replay must settle with
/// strictly fewer `Replicate` messages (the metered republication
/// traffic) than the blank-disk rejoin.
fn assert_replay_beats_republication(seed: u64) {
    let republish = run_durability(&DurabilityConfig::standard(seed, RestartMode::Republish));
    let replay = run_durability(&DurabilityConfig::standard(seed, RestartMode::WalReplay));
    assert_eq!(replay.victim, republish.victim, "seed {seed}: same seed, same victim");
    assert!(republish.victim_shard > 0, "seed {seed}: victim held nothing: {republish:?}");
    assert_eq!(republish.records_recovered, 0, "seed {seed}: the baseline comes back empty");
    assert_eq!(
        replay.records_recovered + replay.records_skipped,
        replay.victim_shard,
        "seed {seed}: every crash-time record is accounted for: {replay:?}"
    );
    assert!(
        replay.recovery_replicates < republish.recovery_replicates,
        "seed {seed}: log replay ({} Replicates) must beat republication ({})",
        replay.recovery_replicates,
        republish.recovery_replicates
    );
    assert!(republish.converged, "seed {seed}: baseline never converged: {republish:?}");
    assert!(replay.converged, "seed {seed}: WAL restart never converged: {replay:?}");
}

/// A node that sleeps through every lease it held must come back
/// *clean*: no resurrected leases, no registrations to targets that
/// died during the outage — and it must be able to re-acquire both
/// through the normal protocol afterwards.
fn assert_expired_leases_do_not_resurrect(seed: u64) {
    let dir = scratch("expired-leases", seed);
    let sys = BristleBuilder::new(seed)
        .stationary_nodes(40)
        .mobile_nodes(16)
        .topology(TransitStubConfig::tiny())
        .config(BristleConfig::recommended())
        .build()
        .expect("system builds");
    let lease_ttl = sys.config().lease_ttl;
    let mut msys = MessagingBristleSystem::new(sys, FaultConfig::perfect(), seed);

    // The victim registers with two live targets, holding a lease on
    // each; one target will die during the victim's outage.
    let mobiles: Vec<Key> = msys.sys.mobile_keys().to_vec();
    let (victim, target, doomed) = (mobiles[0], mobiles[1], mobiles[2]);
    msys.sys.attach_wal(victim, WalBackend::open(&dir, 8).expect("WAL opens"));
    msys.register(victim, target).expect("registration completes");
    msys.register(victim, doomed).expect("registration completes");
    assert!(msys.sys.leases.is_fresh(victim, target, msys.sys.clock.now()));
    assert!(msys.sys.leases.is_fresh(victim, doomed, msys.sys.clock.now()));

    // Crash, bury, and let the whole outage outlive every lease.
    msys.seed_monitors();
    msys.fail_silently(victim);
    let mut confirmed = false;
    for _ in 0..8 {
        if msys.heartbeat_round().contains(&victim) {
            confirmed = true;
            break;
        }
        msys.sys.tick(1);
    }
    assert!(confirmed, "seed {seed}: the crash was never detected");
    msys.confirm_and_heal(victim).expect("victim is known");
    // One of the victim's targets dies while the victim is down.
    msys.fail_silently(doomed);
    msys.confirm_and_heal(doomed).expect("doomed target is known");
    msys.sys.tick(lease_ttl + 1);

    let report = msys.crash_restart(victim).expect("victim restarts");
    assert!(report.restored, "seed {seed}: a confirmed corpse must restart");
    // (a) Clean restart: every persisted lease lapsed during the
    // outage, so none may resume *off disk*.
    assert_eq!(report.leases_restored, 0, "seed {seed}: expired leases resurrected: {report:?}");
    // (b) No phantom state toward the target that died during the
    // outage: its registration edge is dropped as stale and no lease
    // on it can be re-acquired (there is nobody left to grant one).
    assert!(report.registrations_stale >= 1, "seed {seed}: dead-target edge kept: {report:?}");
    assert!(
        !msys.sys.registry.registrants_of(doomed).any(|r| r.key == victim),
        "seed {seed}: phantom registration to a dead target"
    );
    assert!(
        !msys.sys.leases.is_fresh(victim, doomed, msys.sys.clock.now()),
        "seed {seed}: a lease on a dead target came back fresh"
    );
    // (c) Toward the live target everything re-acquires through the
    // normal protocol: the registration edge is re-established from
    // the persisted set, and the restart's LDT re-advertisement grants
    // a *fresh* lease (normal update-path acquisition, not a disk
    // resumption — (a) proved the disk contributed none).
    assert!(
        msys.sys.registry.registrants_of(target).any(|r| r.key == victim),
        "seed {seed}: live-target registration must survive the restart"
    );
    assert!(
        msys.sys.leases.is_fresh(victim, target, msys.sys.clock.now()),
        "seed {seed}: the victim could not re-acquire a lease after restart"
    );
    // And an explicit re-registration still works end to end.
    msys.register(victim, target).expect("re-registration completes");
    assert!(msys.sys.leases.is_fresh(victim, target, msys.sys.clock.now()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_restarted_primary_recovers_its_shard_seed_a() {
    assert_shard_recovers(CI_SEEDS[0]);
}

#[test]
fn restart_with_every_lease_expired_is_clean_seed_a() {
    assert_expired_leases_do_not_resurrect(CI_SEEDS[0]);
}

#[test]
fn restart_with_every_lease_expired_is_clean_seed_b() {
    assert_expired_leases_do_not_resurrect(CI_SEEDS[1]);
}

#[test]
fn crash_restarted_primary_recovers_its_shard_seed_b() {
    assert_shard_recovers(CI_SEEDS[1]);
}

#[test]
fn log_replay_rejoin_beats_full_republication_seed_a() {
    assert_replay_beats_republication(CI_SEEDS[0]);
}

#[test]
fn log_replay_rejoin_beats_full_republication_seed_b() {
    assert_replay_beats_republication(CI_SEEDS[1]);
}

/// Determinism: the whole scenario — warm-up, crash, detection, WAL
/// round-trip, restart, reconciliation — replays identically from the
/// same seed, meter tallies included.
#[test]
fn same_seed_durability_runs_agree_on_every_meter_tally() {
    for seed in CI_SEEDS {
        let cfg = DurabilityConfig::standard(seed, RestartMode::WalReplay);
        assert_eq!(run_durability(&cfg), run_durability(&cfg), "seed {seed} diverged");
    }
}
