//! The sweep table behind the one `bristle-sim` binary.
//!
//! Every experiment — the paper's table and figures, and the sweeps the
//! reproduction added around them — is one row of [`SWEEPS`]: a name, the
//! committed report it regenerates (if any), and a function from parsed
//! flags to a [`SweepRun`]. A run *returns* its tables, its report and
//! its headline [`Claim`]s as values; this module owns what is common to
//! all of them: dispatch, printing, writing the report, and failing the
//! process when a claim is false.
//!
//! | subcommand | regenerates | committed report |
//! |------------|-------------|------------------|
//! | `table1` | Table 1 — Type A / Type B / Bristle comparison | |
//! | `fig3` | Figure 3 — LDT responsibility, member-only vs non-member-only | |
//! | `fig7` | Figure 7 — hops and RDP, scrambled vs clustered naming | |
//! | `fig8` | Figure 8 — LDT adaptation and heterogeneity | |
//! | `fig9` | Figure 9 — LDT cost with/without locality | |
//! | `all` | the five above, in sequence | |
//! | `ablation` | substrate, fan-out, binding-mode and query-mode studies | |
//! | `dynamics` | movement + churn + lookups + upkeep on one timeline | |
//! | `resilience` | delivery and repair vs churn mix × loss | `BENCH_messaging.json` |
//! | `partition` | wrongful death and recovery vs cut duration × loss | `BENCH_partition.json` |
//! | `durability` | WAL replay vs republication after a crash | `BENCH_durability.json` |
//! | `attacks` | attack success by family × verify policy | `BENCH_attacks.json` |
//! | `degradation` | spurious retries and latency tail under gray failure | `BENCH_degradation.json` |
//! | `scale` | hops, LDT depth and state as N grows by decades | `BENCH_scale.json` |
//! | `verify-reports` | every committed report, byte for byte, and every claim | |

use std::path::Path;

use crate::cli::SweepArgs;
use crate::experiments::{ablation, fig3, fig7, fig8, fig9, table1};
use crate::report::Table;
use crate::runreport::RunReport;
use crate::{adversary, degradation, durability, partition, resilience, scale, scenario};

/// A headline claim of a sweep, as data: what is claimed and whether this
/// run bore it out.
#[derive(Debug, Clone)]
pub struct Claim {
    /// What is claimed.
    pub text: String,
    /// Whether it held.
    pub ok: bool,
    /// Whether it was checked in every cell of the sweep (as opposed to
    /// once, on a quantity pooled over cells).
    pub every_cell: bool,
}

impl Claim {
    /// A claim checked in every cell of the sweep: true until some cell
    /// clears `ok` (`claim.ok &= …`).
    pub fn every_cell(text: &str) -> Self {
        Claim { text: text.into(), ok: true, every_cell: true }
    }

    /// A claim about one quantity pooled over the sweep's cells.
    pub fn pooled(text: String, ok: bool) -> Self {
        Claim { text, ok, every_cell: false }
    }

    /// The line printed under the sweep's tables.
    pub fn render(&self) -> String {
        let verdict = match (self.ok, self.every_cell) {
            (true, true) => "ok in all cells",
            (true, false) => "ok",
            (false, _) => "VIOLATED",
        };
        format!("{}: {verdict}", self.text)
    }
}

/// Everything one sweep produces.
#[derive(Debug)]
pub struct SweepRun {
    /// The machine-readable report (written under `--json`; no cells for
    /// the sweeps that only print).
    pub report: RunReport,
    /// Result tables, printed in order with a blank line between them.
    pub tables: Vec<Table>,
    /// Free-form summary lines printed under the tables.
    pub lines: Vec<String>,
    /// Headline claims, printed last; a false one fails the process.
    pub claims: Vec<Claim>,
}

impl SweepRun {
    /// An empty run whose report is stamped `name` at `seed`.
    pub fn new(name: &str, seed: u64) -> Self {
        SweepRun {
            report: RunReport::new(name, seed),
            tables: Vec::new(),
            lines: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// The run's stdout: tables, then lines, then claim verdicts.
    pub fn render(&self) -> String {
        let tables: Vec<String> = self.tables.iter().map(Table::render).collect();
        let claims = self.claims.iter().map(Claim::render);
        let lines: String = self.lines.iter().cloned().chain(claims).map(|l| l + "\n").collect();
        tables.join("\n") + &lines
    }

    /// The claims this run did not bear out.
    pub fn violated(&self) -> impl Iterator<Item = &Claim> {
        self.claims.iter().filter(|c| !c.ok)
    }
}

/// One row of the sweep table.
#[derive(Debug)]
pub struct Sweep {
    /// Subcommand name; also the report's `"bin"` field.
    pub name: &'static str,
    /// Whether `all` runs it (a table or figure of the paper).
    pub paper_figure: bool,
    /// The checked-in report, at the repo root, that the sweep must
    /// regenerate byte for byte at default flags.
    pub committed: Option<&'static str>,
    /// Runs the sweep.
    pub run: fn(&SweepArgs) -> SweepRun,
}

const fn figure(name: &'static str, run: fn(&SweepArgs) -> SweepRun) -> Sweep {
    Sweep { name, paper_figure: true, committed: None, run }
}

const fn sweep(
    name: &'static str,
    committed: Option<&'static str>,
    run: fn(&SweepArgs) -> SweepRun,
) -> Sweep {
    Sweep { name, paper_figure: false, committed, run }
}

/// Every sweep, in the order `all` and `verify-reports` walk them.
pub const SWEEPS: &[Sweep] = &[
    figure("table1", table1::sweep),
    figure("fig3", fig3::sweep),
    figure("fig7", fig7::sweep),
    figure("fig8", fig8::sweep),
    figure("fig9", fig9::sweep),
    sweep("ablation", None, ablation::sweep),
    sweep("dynamics", None, scenario::sweep),
    sweep("resilience", Some("BENCH_messaging.json"), resilience::sweep),
    sweep("partition", Some("BENCH_partition.json"), partition::sweep),
    sweep("durability", Some("BENCH_durability.json"), durability::sweep),
    sweep("attacks", Some("BENCH_attacks.json"), adversary::sweep),
    sweep("degradation", Some("BENCH_degradation.json"), degradation::sweep),
    sweep("scale", Some("BENCH_scale.json"), scale::sweep),
];

/// Exit status: every claim held (and every report matched).
pub const EXIT_OK: u8 = 0;
/// Exit status: a claim was violated or a committed report differs.
pub const EXIT_FAILED: u8 = 1;
/// Exit status: the command line was not understood.
pub const EXIT_USAGE: u8 = 2;

/// Runs `bristle-sim <argv…>` and returns the process exit status.
pub fn cli<I: IntoIterator<Item = String>>(argv: I) -> u8 {
    let mut argv = argv.into_iter();
    let usage = |why: String| {
        let names: Vec<&str> = SWEEPS.iter().map(|s| s.name).collect();
        eprintln!(
            "bristle-sim: {why}\n\
             usage: bristle-sim <{}|all|verify-reports> \
             [--paper] [--seed <n>] [--json <path>] [--smoke] [--stretch] [--workers <k>]",
            names.join("|")
        );
        EXIT_USAGE
    };
    let Some(command) = argv.next() else {
        return usage("no subcommand".into());
    };
    let args = match SweepArgs::parse_from(argv) {
        Ok(args) => args,
        Err(why) => return usage(why),
    };
    if command != "scale" && (args.smoke || args.stretch || args.workers.is_some()) {
        return usage("--smoke, --stretch and --workers apply to scale only".into());
    }
    // The one progress line (stderr), then the sweep, then its epilogue.
    let run = |sweep: &Sweep, json: Option<&Path>| {
        eprintln!("{}: {:?} scale", sweep.name, args.scale);
        finish(&(sweep.run)(&args), json)
    };
    if let Some(sweep) = SWEEPS.iter().find(|s| s.name == command) {
        return run(sweep, args.json.as_deref());
    }
    match command.as_str() {
        "all" if args.json.is_some() => {
            usage("all writes no single report; --json does not apply".into())
        }
        "all" => {
            let mut status = EXIT_OK;
            for (i, sweep) in SWEEPS.iter().filter(|s| s.paper_figure).enumerate() {
                if i > 0 {
                    println!();
                }
                status = status.max(run(sweep, None));
            }
            status
        }
        "verify-reports" if args != SweepArgs::default() => {
            usage("verify-reports takes no flags".into())
        }
        "verify-reports" => verify_reports(Path::new(".")),
        _ => usage(format!("unknown subcommand {command:?}")),
    }
}

/// The epilogue of every sweep: prints the run, writes its report to
/// `json` if given, and fails when a claim was violated.
pub fn finish(run: &SweepRun, json: Option<&Path>) -> u8 {
    print!("{}", run.render());
    if let Some(path) = json {
        if let Err(e) = run.report.write_to(path) {
            eprintln!("bristle-sim: cannot write {}: {e}", path.display());
            return EXIT_FAILED;
        }
        eprintln!("run report: {}", path.display());
    }
    if run.violated().next().is_some() {
        EXIT_FAILED
    } else {
        EXIT_OK
    }
}

/// Regenerates `sweep` at default flags and requires every claim to hold
/// and the report to equal the committed file under `root` byte for
/// byte. The error names the first violated claim or differing line.
pub fn verify(sweep: &Sweep, root: &Path) -> Result<(), String> {
    let Some(file) = sweep.committed else {
        return Err(format!("{}: no committed report", sweep.name));
    };
    let committed = std::fs::read_to_string(root.join(file))
        .map_err(|e| format!("{}: cannot read {file}: {e}", sweep.name))?;
    let run = (sweep.run)(&SweepArgs::default());
    if let Some(claim) = run.violated().next() {
        return Err(format!("{}: {}", sweep.name, claim.render()));
    }
    let fresh = run.report.render();
    if fresh == committed {
        return Ok(());
    }
    let line = fresh.lines().zip(committed.lines()).position(|(a, b)| a != b);
    let line = line.unwrap_or_else(|| fresh.lines().count().min(committed.lines().count()));
    Err(format!(
        "{}: regenerated report differs from {file} at line {}:\n  regenerated: {}\n  committed:   {}",
        sweep.name,
        line + 1,
        fresh.lines().nth(line).unwrap_or("<end of report>"),
        committed.lines().nth(line).unwrap_or("<end of file>"),
    ))
}

/// `verify-reports`: [`verify`] for every committed sweep, plus the scale
/// sweep's determinism-under-workers contract (the smoke report must be
/// identical single-threaded and sharded).
fn verify_reports(root: &Path) -> u8 {
    let mut status = EXIT_OK;
    let mut check = |what: &str, result: Result<(), String>| match result {
        Ok(()) => println!("{what}: ok"),
        Err(why) => {
            println!("{what}: FAILED\n{why}");
            status = EXIT_FAILED;
        }
    };
    for sweep in SWEEPS {
        if let Some(file) = sweep.committed {
            check(&format!("{} regenerates {file}", sweep.name), verify(sweep, root));
        }
    }
    let smoke = |workers| {
        let args = SweepArgs { smoke: true, workers: Some(workers), ..SweepArgs::default() };
        scale::sweep(&args).report.render()
    };
    check(
        "scale --smoke report identical at 1 and 4 workers",
        if smoke(1) == smoke(4) { Ok(()) } else { Err("scale: reports differ".into()) },
    );
    status
}

#[cfg(test)]
/// Claims over seeds, for tests: one seed pool in place of a thread loop
/// per test.
pub(crate) mod seeds {
    use std::collections::BTreeMap;

    use super::*;

    /// Runs sweep `name` at quick scale at every seed in `seeds`, on up to
    /// four threads, and returns the claims each run stated. A run that
    /// panics states one violated claim, [`PANICKED`].
    pub(crate) fn claims(name: &str, seeds: &[u64]) -> BTreeMap<u64, Vec<Claim>> {
        let sweep = SWEEPS.iter().find(|s| s.name == name).expect("a sweep of that name");
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
        let run = |seed: u64| {
            let args = SweepArgs { seed: Some(seed), ..SweepArgs::default() };
            std::panic::catch_unwind(|| (sweep.run)(&args)).map_or_else(
                |_| vec![Claim { text: PANICKED.to_string(), ok: false, every_cell: true }],
                |run| run.claims,
            )
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let mine = seeds.iter().skip(w).step_by(workers);
                    scope.spawn(move || mine.map(|&seed| (seed, run(seed))).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("a seed worker")).collect()
        })
    }

    /// The seeds at which some claim of `name` is violated, with the
    /// violated claims' texts.
    pub(crate) fn violated(name: &str, seeds: &[u64]) -> BTreeMap<u64, Vec<String>> {
        let texts = |c: Vec<Claim>| c.into_iter().filter(|c| !c.ok).map(|c| c.text).collect();
        let all = claims(name, seeds).into_iter().map(|(seed, c)| (seed, texts(c)));
        all.filter(|(_, violated): &(u64, Vec<String>)| !violated.is_empty()).collect()
    }

    /// The violation a panicking run counts as.
    pub(crate) const PANICKED: &str = "panicked";

    /// Every claim of the sweeps that return claims, over seeds 1-32
    /// (`partition` 1-64), as `held/n` and the seeds that violate it.
    /// A report, not a gate: `cargo test --release -p bristle-sim
    /// claims_over_seeds -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn claims_over_seeds() {
        for name in ["resilience", "partition", "durability", "attacks", "degradation"] {
            let n = if name == "partition" { 64 } else { 32 };
            let seeds: Vec<u64> = (1..=n).collect();
            let violated = violated(name, &seeds);
            let sweep = SWEEPS.iter().find(|s| s.name == name).expect("a sweep");
            let claims = (sweep.run)(&SweepArgs::default()).claims;
            // A pooled claim quotes its numbers after " (": cut them off.
            let stem = |text: &str| text.split(" (").next().unwrap_or(text).to_string();
            let mut stems: Vec<String> = claims.iter().map(|c| stem(&c.text)).collect();
            stems.push(PANICKED.to_string());
            for claim in stems {
                let at: Vec<u64> = violated
                    .iter()
                    .filter(|(_, v)| v.iter().any(|t| stem(t) == claim))
                    .map(|(&seed, _)| seed)
                    .collect();
                println!("{name} | {claim} | {}/{n} | {at:?}", n - at.len() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_render_their_verdict() {
        let mut claim = Claim::every_cell("x holds");
        assert_eq!(claim.render(), "x holds: ok in all cells");
        claim.ok &= false;
        assert_eq!(claim.render(), "x holds: VIOLATED");
        assert_eq!(Claim::pooled("a < b".into(), true).render(), "a < b: ok");
        assert_eq!(Claim::pooled("a < b".into(), false).render(), "a < b: VIOLATED");
    }

    #[test]
    fn run_renders_tables_then_lines_then_claims() {
        let mut run = SweepRun::new("demo", 8);
        run.tables.push(Table::new("one", &["x"]));
        run.tables.push(Table::new("two", &["y"]));
        run.lines.push("a line".into());
        run.claims.push(Claim::every_cell("c"));
        assert_eq!(
            run.render(),
            "== one ==\nx\n-\n\n== two ==\ny\n-\na line\nc: ok in all cells\n"
        );
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        let cli = |argv: &[&str]| cli(argv.iter().map(|s| s.to_string()));
        assert_eq!(cli(&[]), EXIT_USAGE);
        assert_eq!(cli(&["fig33"]), EXIT_USAGE);
        assert_eq!(cli(&["fig3", "--papr"]), EXIT_USAGE);
        assert_eq!(cli(&["resilience", "--seed", "2x7"]), EXIT_USAGE);
        assert_eq!(cli(&["all", "--json", "x.json"]), EXIT_USAGE);
        assert_eq!(cli(&["verify-reports", "--seed", "27"]), EXIT_USAGE);
        // The scale sweep's flags would be ignored anywhere else.
        assert_eq!(cli(&["fig3", "--smoke"]), EXIT_USAGE);
        assert_eq!(cli(&["fig3", "--stretch"]), EXIT_USAGE);
        assert_eq!(cli(&["fig3", "--workers", "3"]), EXIT_USAGE);
        assert_eq!(cli(&["all", "--smoke"]), EXIT_USAGE);
    }

    /// `--seed` reaches the sweeps that used to hard-code theirs (all
    /// but `ablation`, too slow to run twice here), and without it each
    /// keeps its own, so default stdout does not move.
    #[test]
    fn the_seed_reaches_every_sweep() {
        for name in ["table1", "fig3", "fig7", "fig8", "fig9", "dynamics"] {
            let sweep = SWEEPS.iter().find(|s| s.name == name).expect("a sweep");
            let at = |seed| (sweep.run)(&SweepArgs { seed, ..SweepArgs::default() });
            let (own, given) = (at(None), at(Some(27)));
            assert_eq!(given.report.seed, 27, "{name}");
            assert_ne!(given.render(), own.render(), "{name} ignored --seed 27");
            assert_eq!(at(Some(own.report.seed)).render(), own.render(), "{name}");
        }
    }
}
