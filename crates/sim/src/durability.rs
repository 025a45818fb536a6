//! Crash-restart durability scenario: restart-from-WAL versus
//! republication (the `bristle-store` payoff, metered).
//!
//! The run grows a system, attaches a [`WalBackend`] to the busiest
//! record primary (the *victim*), and lets warm-up mobility traffic
//! accumulate in the log. The victim then crashes silently; the
//! heartbeat machinery detects and confirms the death, the overlay
//! heals around the corpse, and more mobility happens while the victim
//! is down. Recovery runs one of two ways on the same seed:
//!
//! * [`RestartMode::Republish`] — the blank-disk baseline. The node
//!   rejoins empty ([`MessagingBristleSystem::republish_restart`]) and
//!   anti-entropy refills its shard from the surviving replicas, one
//!   `Replicate` message per record.
//! * [`RestartMode::WalReplay`] — the node replays its snapshot + log
//!   off disk ([`MessagingBristleSystem::crash_restart`]) and comes
//!   back with its shard intact; the same anti-entropy pass ships only
//!   the records that changed during the downtime.
//!
//! The scenario meters the recovery traffic (the `Replicate` bill in
//! particular), checks convergence with a second anti-entropy pass
//! (which must find nothing), and re-measures delivery over fixed
//! endpoint pairs. Everything is seeded: two runs with the same
//! [`DurabilityConfig`] produce identical [`DurabilityOutcome`]s, WAL
//! round-trip included.

use std::path::PathBuf;

use bristle_core::config::BristleConfig;
use bristle_core::naming::Mobility;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_proto::transport::FaultConfig;
use bristle_store::WalBackend;

use crate::cli::{SweepArgs, DEFAULT_SEED};
use crate::messaging::MessagingBristleSystem;
use crate::report::{pct, Table};
use crate::runreport::Json;
use crate::sweeps::{Claim, SweepRun};
use crate::workload::{
    busiest_primary, crash_and_bury, fixed_pairs, live_of, measure_pairs, tiny_system, BeforeAfter,
    Telemetry,
};

/// Transport drop probability in every cell (the sweep's axes are the
/// restart mode, the crash point and the snapshot interval).
pub const LOSS: f64 = 0.02;
/// Mobile moves while the victim is down (how stale its disk is at
/// restart).
pub const DOWNTIME_MOVES: usize = 3;
/// Maximum heartbeat rounds allowed for the crash to be detected and
/// confirmed; the scenario confirms directly if detection never hardens
/// (counted in [`DurabilityOutcome::forced_confirm`]).
pub const DETECTION_ROUNDS: usize = 8;
/// Endpoint pairs measured before the crash and after recovery.
pub const ROUTE_PAIRS: usize = 16;

/// How the crashed victim comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartMode {
    /// Blank disk: rejoin empty, let anti-entropy republish the shard.
    Republish,
    /// Durable disk: replay the WAL, restart with the shard intact.
    WalReplay,
}

impl RestartMode {
    /// Short label for tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            RestartMode::Republish => "republish",
            RestartMode::WalReplay => "wal-replay",
        }
    }
}

/// Parameters of one durability run.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Seed for the system build, the transport, and the scenario draws.
    pub seed: u64,
    /// Stationary population at build time.
    pub stationary: usize,
    /// Mobile population at build time.
    pub mobile: usize,
    /// How the victim recovers.
    pub mode: RestartMode,
    /// WAL snapshot interval in log records (0 = never snapshot; only
    /// meaningful under [`RestartMode::WalReplay`]).
    pub snapshot_every: u64,
    /// Mobile moves before the crash (how much history the WAL holds —
    /// the *crash point*).
    pub crash_point: usize,
    /// Scratch directory for the WAL; `None` picks a per-process temp
    /// path keyed by the sweep cell. Always wiped before and after.
    pub wal_dir: Option<PathBuf>,
}

impl DurabilityConfig {
    /// The standard acceptance-scale run at `seed`.
    pub fn standard(seed: u64, mode: RestartMode) -> Self {
        DurabilityConfig {
            seed,
            stationary: 40,
            mobile: 16,
            mode,
            snapshot_every: 8,
            crash_point: 12,
            wal_dir: None,
        }
    }

    fn scratch_dir(&self) -> PathBuf {
        match &self.wal_dir {
            Some(d) => d.clone(),
            None => std::env::temp_dir()
                .join(format!("bristle-durability-{}", std::process::id()))
                .join(format!(
                    "s{}-c{}-e{}-{}",
                    self.seed,
                    self.crash_point,
                    self.snapshot_every,
                    self.mode.name()
                )),
        }
    }
}

/// What one durability run observed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DurabilityOutcome {
    /// The crashed record primary.
    pub victim: Key,
    /// Location records the victim held at crash time.
    pub victim_shard: usize,
    /// Heartbeat rounds until the crash was confirmed.
    pub detection_rounds_used: usize,
    /// Whether the scenario had to confirm the death directly because
    /// [`DETECTION_ROUNDS`] passed without a verdict.
    pub forced_confirm: bool,
    /// Records the WAL replay loaded from the snapshot (0 without one).
    pub wal_snapshot_records: u64,
    /// Records the WAL replay read from the log tail.
    pub wal_log_records: u64,
    /// Shard records reinstalled locally at restart (0 for republish —
    /// the baseline comes back empty).
    pub records_recovered: usize,
    /// Persisted records dropped at restart (subject gone or expired).
    pub records_skipped: usize,
    /// Registration edges re-established at recovery.
    pub registrations_restored: usize,
    /// Lease contracts restored from the durable store.
    pub leases_restored: usize,
    /// `Replicate` messages spent on recovery (restart + first
    /// anti-entropy pass) — the headline restart-vs-republish metric.
    pub recovery_replicates: u64,
    /// Total messages of every kind spent on recovery.
    pub recovery_messages: u64,
    /// Record copies the first anti-entropy pass shipped.
    pub anti_entropy_fixes: usize,
    /// Whether a second anti-entropy pass found nothing left to fix.
    pub converged: bool,
    /// Delivery over the same pairs before the crash and after recovery.
    pub delivery: BeforeAfter,
    /// Meter tallies and latency snapshots at the end of the run.
    pub telemetry: Telemetry,
}

/// Moves `n` randomly drawn mobile nodes (new location records at the
/// replicas; for the victim's shard this is WAL traffic before the crash
/// and staleness after it).
fn churn_moves(msys: &mut MessagingBristleSystem, rng: &mut Pcg64, n: usize) {
    for _ in 0..n {
        let mobiles = live_of(msys, Mobility::Mobile);
        if mobiles.is_empty() {
            return;
        }
        let m = mobiles[rng.index(mobiles.len())];
        msys.sys.move_node(m, None).expect("mover is live");
    }
}

/// Runs one durability scenario: build, warm up, crash, detect, churn,
/// recover, reconcile, re-measure. Deterministic in `cfg`.
pub fn run_durability(cfg: &DurabilityConfig) -> DurabilityOutcome {
    let sys = tiny_system(cfg.seed, cfg.stationary, cfg.mobile, BristleConfig::recommended());
    let mut msys = MessagingBristleSystem::new(sys, FaultConfig::lossy(LOSS), cfg.seed ^ 0xD0);
    let mut rng = Pcg64::new(cfg.seed, 0xD07A);

    let victim = busiest_primary(&msys.sys);
    let wal_dir = cfg.scratch_dir();
    if cfg.mode == RestartMode::WalReplay {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let backend = WalBackend::open(&wal_dir, cfg.snapshot_every).expect("scratch WAL opens");
        msys.sys.attach_wal(victim, backend);
    }

    let mut out = DurabilityOutcome { victim, ..Default::default() };

    // Warm-up traffic grows the victim's WAL past the bare build state.
    churn_moves(&mut msys, &mut rng, cfg.crash_point);

    let pairs = fixed_pairs(&msys, &mut rng, ROUTE_PAIRS, None);
    out.delivery.pre = measure_pairs(&mut msys, &pairs);

    out.victim_shard = msys.sys.stationary.node(victim).map(|n| n.store.len()).unwrap_or(0);

    (out.detection_rounds_used, out.forced_confirm) =
        crash_and_bury(&mut msys, victim, DETECTION_ROUNDS);

    // Downtime: the world keeps moving while the victim's disk does not.
    churn_moves(&mut msys, &mut rng, DOWNTIME_MOVES);
    msys.sys.tick(1);

    // Recovery, metered: the restart itself plus the anti-entropy pass
    // that reconciles whatever the disk missed.
    let messages_before = msys.sys.meter.total_messages();
    let replicates_before = msys.sys.meter.count(MessageKind::Replicate);
    match cfg.mode {
        RestartMode::WalReplay => {
            let report = msys.crash_restart(victim).expect("victim restarts");
            assert!(report.restored, "a confirmed corpse must restart");
            if let Some(replay) = &report.replay {
                out.wal_snapshot_records = replay.snapshot_records as u64;
                out.wal_log_records = replay.log_records as u64;
            }
            out.records_recovered = report.records_recovered;
            out.records_skipped = report.records_skipped;
            out.registrations_restored = report.registrations_restored;
            out.leases_restored = report.leases_restored;
        }
        RestartMode::Republish => {
            let report = msys.republish_restart(victim).expect("victim rejoins");
            assert!(report.restored, "a confirmed corpse must rejoin");
            out.registrations_restored = report.registrations_restored;
        }
    }
    out.anti_entropy_fixes = msys.sys.anti_entropy_locations().expect("reconciliation succeeds");
    out.recovery_messages = msys.sys.meter.total_messages() - messages_before;
    out.recovery_replicates = msys.sys.meter.count(MessageKind::Replicate) - replicates_before;

    // Convergence: a second pass must find nothing left to ship.
    out.converged = msys.sys.anti_entropy_locations().expect("second pass succeeds") == 0;

    out.delivery.post = measure_pairs(&mut msys, &pairs);

    out.telemetry = Telemetry::of(&msys);
    if cfg.mode == RestartMode::WalReplay && cfg.wal_dir.is_none() {
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
    out
}

/// The `durability` sweep: crash-restart of the busiest record primary,
/// recovered by WAL replay vs full republication, as the crash point
/// (WAL history) and snapshot interval vary.
pub fn sweep(args: &SweepArgs) -> SweepRun {
    let (stationary, mobile, crash_points) =
        args.scale.pick((40usize, 16usize, [6usize, 12, 24]), (90, 40, [10, 20, 40]));
    let mut run = SweepRun::new("durability", args.seed_or(DEFAULT_SEED));
    let mut table = Table::new(
        "Crash-restart durability — WAL replay vs republication, by crash point × snapshot interval",
        &[
            "mode",
            "crash pt",
            "snap every",
            "shard",
            "recovered",
            "skipped",
            "AE fixes",
            "Replicates",
            "recov msgs",
            "converged",
            "deliv pre→post",
        ],
    );
    let mut converged = Claim::every_cell("anti-entropy converges after every recovery");
    let mut replay_wins =
        Claim::every_cell("WAL replay strictly beats republication on Replicate traffic");
    let mut cheaper =
        Claim::every_cell("WAL replay sends strictly fewer recovery messages than republication");
    for crash_point in crash_points {
        // One republication baseline per crash point, then the WAL
        // restart at a never/tight snapshot interval — same seed, same
        // victim, same downtime, only the recovery path differs.
        let cells =
            [(RestartMode::Republish, 0), (RestartMode::WalReplay, 0), (RestartMode::WalReplay, 8)];
        let mut baseline = (0, 0); // republication's (Replicates, messages)
        for (mode, snapshot_every) in cells {
            let mut cfg = DurabilityConfig::standard(args.seed_or(DEFAULT_SEED), mode);
            cfg.stationary = stationary;
            cfg.mobile = mobile;
            cfg.crash_point = crash_point;
            cfg.snapshot_every = snapshot_every;
            let out = run_durability(&cfg);
            converged.ok &= out.converged;
            match mode {
                RestartMode::Republish => {
                    baseline = (out.recovery_replicates, out.recovery_messages)
                }
                RestartMode::WalReplay => {
                    replay_wins.ok &= out.recovery_replicates < baseline.0;
                    cheaper.ok &= out.recovery_messages < baseline.1;
                }
            }
            run.report.push_cell(
                Json::obj([
                    ("mode", Json::Str(mode.name().into())),
                    ("crash_point", Json::U64(crash_point as u64)),
                    ("snapshot_every", Json::U64(snapshot_every)),
                    ("stationary", Json::U64(stationary as u64)),
                    ("mobile", Json::U64(mobile as u64)),
                    ("loss", Json::F64(LOSS)),
                ]),
                &out.telemetry,
                Json::obj([
                    ("victim_shard", Json::U64(out.victim_shard as u64)),
                    ("records_recovered", Json::U64(out.records_recovered as u64)),
                    ("records_skipped", Json::U64(out.records_skipped as u64)),
                    ("registrations_restored", Json::U64(out.registrations_restored as u64)),
                    ("leases_restored", Json::U64(out.leases_restored as u64)),
                    ("wal_snapshot_records", Json::U64(out.wal_snapshot_records)),
                    ("wal_log_records", Json::U64(out.wal_log_records)),
                    ("anti_entropy_fixes", Json::U64(out.anti_entropy_fixes as u64)),
                    ("recovery_replicates", Json::U64(out.recovery_replicates)),
                    ("recovery_messages", Json::U64(out.recovery_messages)),
                    ("detection_rounds_used", Json::U64(out.detection_rounds_used as u64)),
                    ("converged", Json::Bool(out.converged)),
                    ("pre_rate", Json::F64(out.delivery.pre_rate())),
                    ("post_rate", Json::F64(out.delivery.post_rate())),
                ]),
            );
            table.row(vec![
                mode.name().to_string(),
                crash_point.to_string(),
                if mode == RestartMode::Republish {
                    "—".into()
                } else {
                    snapshot_every.to_string()
                },
                out.victim_shard.to_string(),
                out.records_recovered.to_string(),
                out.records_skipped.to_string(),
                out.anti_entropy_fixes.to_string(),
                out.recovery_replicates.to_string(),
                out.recovery_messages.to_string(),
                out.converged.to_string(),
                format!("{}→{}", pct(out.delivery.pre_rate()), pct(out.delivery.post_rate())),
            ]);
        }
    }
    run.tables.push(table);
    run.claims.extend([converged, replay_wins, cheaper]);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_replay_beats_republication_on_the_replicate_bill() {
        let republish = run_durability(&DurabilityConfig::standard(8, RestartMode::Republish));
        let replay = run_durability(&DurabilityConfig::standard(8, RestartMode::WalReplay));
        assert!(republish.victim_shard > 0, "victim must hold records: {republish:?}");
        assert_eq!(replay.victim, republish.victim, "same seed, same victim");
        assert_eq!(republish.records_recovered, 0, "the baseline comes back empty");
        assert!(replay.records_recovered > 0, "the WAL restart comes back full");
        assert!(
            replay.recovery_replicates < republish.recovery_replicates,
            "log replay ({} Replicates) must beat republication ({})",
            replay.recovery_replicates,
            republish.recovery_replicates
        );
        assert!(republish.converged, "baseline converges: {republish:?}");
        assert!(replay.converged, "WAL restart converges: {replay:?}");
    }

    #[test]
    fn replayed_state_comes_off_disk() {
        let out = run_durability(&DurabilityConfig::standard(31, RestartMode::WalReplay));
        assert!(
            out.wal_snapshot_records + out.wal_log_records > 0,
            "the replay must read something: {out:?}"
        );
        assert_eq!(
            out.records_recovered + out.records_skipped,
            out.victim_shard,
            "every crash-time record is accounted for: {out:?}"
        );
    }

    #[test]
    fn same_seed_twice_is_identical_including_the_disk_round_trip() {
        let cfg = DurabilityConfig::standard(9, RestartMode::WalReplay);
        assert_eq!(run_durability(&cfg), run_durability(&cfg));
    }

    #[test]
    fn snapshot_interval_does_not_change_what_recovers() {
        let mut never = DurabilityConfig::standard(12, RestartMode::WalReplay);
        never.snapshot_every = 0;
        let mut often = DurabilityConfig::standard(12, RestartMode::WalReplay);
        often.snapshot_every = 4;
        let a = run_durability(&never);
        let b = run_durability(&often);
        assert_eq!(a.records_recovered, b.records_recovered);
        assert_eq!(a.recovery_replicates, b.recovery_replicates);
        assert!(b.wal_snapshot_records > 0, "a tight interval actually snapshots: {b:?}");
        assert_eq!(a.wal_snapshot_records, 0, "interval 0 never snapshots: {a:?}");
    }
}
