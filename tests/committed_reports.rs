//! The sweep table ([`bristle::sim::sweeps`]) against the checked-in
//! `BENCH_*.json` reports: what `bristle-sim verify-reports` gates in CI,
//! run by `cargo test` too.

use std::collections::BTreeSet;
use std::path::Path;

use bristle::sim::cli::SweepArgs;
use bristle::sim::sweeps::{finish, verify, Claim, Sweep, SweepRun, EXIT_OK, SWEEPS};

/// The repo root, where the committed reports live.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The sweeps over the message-passing driver: everything with a
/// committed report except `scale` (function calls at N up to 1e5 —
/// too slow unoptimised, so it is gated through the subcommand in CI).
fn message_sweeps() -> impl Iterator<Item = &'static Sweep> {
    SWEEPS.iter().filter(|s| s.committed.is_some() && s.name != "scale")
}

/// Seed 8: the report regenerates byte for byte and every claim holds
/// (both inside [`verify`]). Seed 27: every per-cell claim holds. The
/// degradation sweep's one *pooled* claim — the adaptive arm's p99 over
/// all degraded cells beats the fixed arm's — does not hold at seed 27
/// (215281 vs 178883 ticks, at the parent commit too): a tail statistic
/// of one seed, claimed at the committed seed only.
///
/// One test, in sequence: the durability sweep keeps its scratch WAL
/// under a per-process path keyed by seed and cell, so two threads must
/// not run it at the same seed.
#[test]
fn committed_reports_regenerate_and_claims_hold_at_both_ci_seeds() {
    assert_eq!(message_sweeps().count(), 5);
    for sweep in message_sweeps() {
        verify(sweep, root()).unwrap_or_else(|why| panic!("{why}"));

        let run = (sweep.run)(&SweepArgs { seed: Some(27), ..SweepArgs::default() });
        assert!(!run.claims.is_empty(), "{} makes no claim", sweep.name);
        let violated: Vec<String> =
            run.violated().filter(|c| c.every_cell).map(Claim::render).collect();
        assert!(violated.is_empty(), "{} at seed 27: {violated:?}", sweep.name);
    }
}

#[test]
fn a_changed_byte_in_a_committed_report_is_named_by_line() {
    let dir = std::env::temp_dir().join(format!("bristle-verify-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = SWEEPS.iter().find(|s| s.name == "partition").unwrap();
    let file = sweep.committed.unwrap();
    let committed = std::fs::read_to_string(root().join(file)).unwrap();
    std::fs::write(dir.join(file), committed.replacen("\"seed\": 8", "\"seed\": 9", 1)).unwrap();
    let why = verify(sweep, &dir).unwrap_err();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(why.contains("at line 4"), "{why}");
    assert!(why.contains("\"seed\": 8") && why.contains("\"seed\": 9"), "{why}");
}

#[test]
fn every_report_at_the_repo_root_has_exactly_one_owner() {
    let names: BTreeSet<&str> = SWEEPS.iter().map(|s| s.name).collect();
    assert_eq!(names.len(), SWEEPS.len(), "sweep names must be unique");
    assert!(!names.contains("all") && !names.contains("verify-reports"));

    let owned: Vec<&str> = SWEEPS.iter().filter_map(|s| s.committed).collect();
    let on_disk: BTreeSet<String> = std::fs::read_dir(root())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        .collect();
    assert_eq!(
        owned.iter().map(|f| f.to_string()).collect::<BTreeSet<_>>(),
        on_disk,
        "table rows and BENCH_*.json files must match one to one"
    );
    assert_eq!(owned.len(), on_disk.len(), "a report is owned by two table rows");
}

#[test]
fn a_violated_claim_fails_the_process() {
    let mut run = SweepRun::new("demo", 8);
    run.claims.push(Claim::every_cell("the invariant holds"));
    assert_eq!(finish(&run, None), EXIT_OK);
    run.claims.push(Claim::pooled("a < b".into(), false));
    assert_ne!(finish(&run, None), EXIT_OK);
}
