//! Wall-clock benchmark for Bristle. See `README.md` beside this
//! package's manifest for the metric and workload tables.
//!
//! ```text
//! bristle-wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bristle-wallbench <name> [--seed n] [--seconds s] [--trace 0|1] [--json out] [--smoke]
//! bristle-wallbench all    [--seed n] [--seconds s] [--trace 0|1] [--json out] [--smoke]
//! bristle-wallbench agree <a.json> <b.json> [--benchmark BENCHMARK.json]
//! ```
//!
//! One workload runs in this process; `all` runs each in a child process
//! of its own, one at a time, so `VmHWM` is per workload. The last line
//! of standard output of a workload run is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod agree;
mod cells;
mod control;
mod env;
mod harness;
mod json;
mod metrics;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use harness::{Ctx, Outcome, Scratch, SCRATCH_ROOT};
use json::Json;
use metrics::{def_of, Values, PER_LAYER};
use workloads::Spec;

/// `--seconds` when none is given; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 12;
/// Times set-up and the untraced window are repeated in one run.
const REPS: usize = 5;

struct Opts {
    /// `all`, `agree` or a workload name.
    command: String,
    /// Positional arguments after the command.
    rest: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    json: Option<PathBuf>,
    benchmark: PathBuf,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        command: String::new(),
        rest: Vec::new(),
        seed: 8,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        json: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => o.command = value("--workload")?,
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if o.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--json" => o.json = Some(PathBuf::from(value("--json")?)),
            "--benchmark" => o.benchmark = PathBuf::from(value("--benchmark")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if o.command.is_empty() => o.command = a,
            _ => o.rest.push(a),
        }
    }
    if o.command.is_empty() {
        return Err("name a workload, `all` or `agree`".into());
    }
    Ok(o)
}

/// The op count of one window: `--seconds` worth of ops at the
/// workload's calibrated rate, shared among the [`REPS`] repetitions
/// (÷ 100 under `--smoke`, which runs one).
fn planned_ops(spec: &Spec, o: &Opts) -> usize {
    let ops = (spec.ops_per_second * o.seconds as f64).round() as usize;
    (if o.smoke { ops / 100 } else { ops / REPS }).max(10)
}

fn metrics_json(values: &Values) -> Json {
    Json::obj(values.0.iter().map(|&(name, v)| {
        let unit = def_of(name).expect("registered metric").unit;
        (name, Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]))
    }))
}

fn print_values(title: &str, values: &Values, samples: u64) {
    println!("{title}");
    for &(name, v) in &values.0 {
        let unit = def_of(name).expect("registered metric").unit;
        let note = if name == "op_p50_us" { format!("  (n={samples})") } else { String::new() };
        println!("  {name:<36} {v:>18.6} {unit}{note}");
    }
}

/// The per-workload object of a result file.
fn workload_json(spec: &Spec, o: &Opts, ops: usize, out: &Outcome) -> Json {
    let mut pairs = vec![
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("fail_share", Json::Num(out.failed as f64 / out.attempted.max(1) as f64)),
        ("seed", Json::Num(o.seed as f64)),
        ("ops", Json::Num(ops as f64)),
        ("why", Json::Str(spec.why.into())),
        ("errors", Json::Arr(out.errors.iter().cloned().map(Json::Str).collect())),
        ("end_to_end", metrics_json(&out.e2e)),
    ];
    pairs.push((
        "reps",
        Json::obj(
            out.reps
                .by_name()
                .map(|(name, v)| (name, Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()))),
        ),
    ));
    if o.trace {
        pairs.push(("per_layer", metrics_json(&out.layer)));
    }
    if let Some(spans) = &out.spans {
        pairs.push(("spans", spans.clone()));
    }
    Json::obj(pairs)
}

/// Runs one workload in this process and prints its result line.
fn run_one(spec: &Spec, o: &Opts) -> ExitCode {
    let ops = planned_ops(spec, o);
    let scratch = Scratch::create("bristle-bench-");
    let ctx = Ctx {
        seed: o.seed,
        ops,
        warmup: (ops / 50).max(1),
        trace: o.trace,
        reps: if o.smoke { 1 } else { REPS },
        scratch: scratch.path().to_path_buf(),
    };
    eprintln!(
        "{}: seed {}, {} ops (+{} warm-up), trace {}, {} core(s)",
        spec.name,
        o.seed,
        ctx.ops,
        ctx.warmup,
        u8::from(o.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = (spec.run)(&ctx);
    out.layer = out.layer.ordered(PER_LAYER);
    drop(scratch);

    print_values(&format!("{} end-to-end (untraced pass)", spec.name), &out.e2e, ctx.ops as u64);
    println!(
        "  {:<36} {:>18.6} op/s  (plain ops / window time, median of {} repetitions)",
        "bench.ops_per_s_median_rep",
        out.reps.median_ops_per_s(),
        out.reps.ops_per_s.len()
    );
    if o.trace {
        print_values(&format!("{} per-layer (traced pass and cells)", spec.name), &out.layer, 0);
    }
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    if let Some(path) = &o.json {
        let doc = workload_json(spec, o, ops, &out);
        std::fs::write(path, doc.render() + "\n").expect("result file is writable");
    }
    let line = Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        // The driver's line carries every metric of its section; layers
        // the workload did not execute read 0 there (and only there).
        (
            "metrics",
            metrics_json(&if o.trace { out.layer.complete(PER_LAYER) } else { out.e2e.clone() }),
        ),
    ]);
    println!("{}", line.render());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own, one at a time.
fn run_all(o: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let scratch = Scratch::create("bristle-bench-all-");
    let mut results = Vec::new();
    let mut all_correct = true;
    for spec in workloads::ALL {
        let result_path = scratch.path().join(format!("{}.json", spec.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--json")
            .arg(&result_path)
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit());
        if o.smoke {
            cmd.arg("--smoke");
        }
        let mut child = cmd.spawn().expect("child process starts");
        let child_scratch =
            PathBuf::from(SCRATCH_ROOT).join(format!("bristle-bench-{}", child.id()));
        let status = child.wait().expect("child process is waited for");
        // A killed child cannot clean up after itself.
        let _ = std::fs::remove_dir_all(child_scratch);
        let doc = std::fs::read_to_string(&result_path).ok().and_then(|t| Json::parse(&t).ok());
        let doc = match doc {
            Some(doc) if status.success() || status.code() == Some(1) => doc,
            _ => {
                // Died (OOM, panic, signal) before reporting: every op
                // it was to attempt counts as failed.
                eprintln!("{}: child died ({status}); reported as fail_share = 1", spec.name);
                let ops = planned_ops(spec, o) as f64;
                Json::obj([
                    ("correct", Json::Bool(false)),
                    ("attempted", Json::Num(ops)),
                    ("failed", Json::Num(ops)),
                    ("fail_share", Json::Num(1.0)),
                    ("seed", Json::Num(o.seed as f64)),
                    ("ops", Json::Num(ops)),
                    ("errors", Json::Arr(vec![Json::Str(format!("child died: {status}"))])),
                ])
            }
        };
        all_correct &= doc.get("correct") == Some(&Json::Bool(true));
        results.push((spec.name, doc));
    }
    println!(
        "\n{:<16} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "workload", "setup_s", "ops_per_s", "op_p50_us", "peak_rss_mib", "fail_share"
    );
    for (name, doc) in &results {
        let m = |k: &str| {
            doc.get("end_to_end")
                .and_then(|e| e.get(k)?.get("value")?.as_f64())
                .map_or("-".to_string(), |v| format!("{v:.3}"))
        };
        let fail = doc.get("fail_share").and_then(Json::as_f64).unwrap_or(1.0);
        println!(
            "{name:<16} {:>10} {:>12} {:>12} {:>12} {fail:>10.4}",
            m("setup_s"),
            m("ops_per_s"),
            m("op_p50_us"),
            m("peak_rss_mib")
        );
    }
    if let Some(path) = &o.json {
        let doc = Json::obj([
            ("schema", Json::Str("bristle-wallbench/v1".into())),
            ("seed", Json::Num(o.seed as f64)),
            ("seconds", Json::Num(o.seconds as f64)),
            (
                "cores",
                Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            ("workloads", Json::obj(results)),
        ]);
        std::fs::write(path, doc.render() + "\n").expect("result file is writable");
        eprintln!("results: {}", path.display());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_agree(o: &Opts) -> Result<ExitCode, String> {
    let [a, b] = o.rest.as_slice() else {
        return Err("usage: agree <a.json> <b.json> [--benchmark BENCHMARK.json]".into());
    };
    let rows = agree::compare(
        &read_json(&o.benchmark)?,
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
    )?;
    print!("{}", agree::render(&rows));
    let count = |s| rows.iter().filter(|r| r.status == s).count();
    let (regressed, unresolved) =
        (count(agree::Status::Regressed), count(agree::Status::Unresolved));
    println!("{} rows: {regressed} regressed, {unresolved} unresolved", rows.len());
    Ok(if regressed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let o = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bristle-wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    match o.command.as_str() {
        "all" => run_all(&o),
        "agree" => run_agree(&o).unwrap_or_else(|e| {
            eprintln!("bristle-wallbench agree: {e}");
            ExitCode::from(2)
        }),
        name => match workloads::find(name) {
            Some(spec) => run_one(spec, &o),
            None => {
                let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
                eprintln!("bristle-wallbench: no workload `{name}`; have {}", names.join(", "));
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::END_TO_END;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        read_json(&path).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, section: &str) -> Vec<(String, String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section present")
            .iter()
            .map(|m| {
                let f = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (f("name"), f("unit"), f("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = benchmark_json();
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<_> = defs
                .iter()
                .map(|d| {
                    let better = if d.higher_is_better { "higher" } else { "lower" };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(names(&doc, section), want, "{section}");
        }
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let have: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        assert_eq!(workloads, have);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS as f64));
    }

    #[test]
    fn result_line_round_trips_every_metric_name() {
        let fill = |defs: &[metrics::MetricDef]| {
            let mut v = Values::default();
            for (i, d) in defs.iter().enumerate() {
                v.set(d.name, i as f64 + 0.125);
            }
            v
        };
        for defs in [END_TO_END, PER_LAYER] {
            let values = fill(defs);
            let back = Json::parse(&metrics_json(&values).render()).expect("own output parses");
            let Json::Obj(got) = back else { panic!("metrics render as an object") };
            assert_eq!(got.len(), defs.len());
            for (i, d) in defs.iter().enumerate() {
                assert_eq!(got[i].0, d.name);
                assert_eq!(got[i].1.get("value").and_then(Json::as_f64), Some(i as f64 + 0.125));
                assert_eq!(got[i].1.get("unit").and_then(Json::as_str), Some(d.unit));
            }
        }
    }

    #[test]
    fn op_lists_are_a_function_of_the_seed() {
        let ctx = |seed| Ctx {
            seed,
            ops: 100,
            warmup: 2,
            trace: false,
            reps: 1,
            scratch: PathBuf::new(),
        };
        let keys: Vec<_> = (0..50u64).map(bristle_overlay::key::Key).collect();
        let a = ctx(8).random_pairs(&keys, 200, 1);
        assert_eq!(a, ctx(8).random_pairs(&keys, 200, 1));
        assert_ne!(a, ctx(27).random_pairs(&keys, 200, 1));
        assert_ne!(a, ctx(8).random_pairs(&keys, 200, 2), "streams are independent");
        assert!(a.iter().all(|(s, d)| s != d));
    }

    #[test]
    fn flags_parse_as_the_driver_passes_them() {
        let args = ["--workload", "lookup-5e4", "--seed", "3", "--seconds", "8", "--trace", "1"];
        let o = parse_args(args.iter().map(|s| s.to_string())).unwrap();
        assert_eq!((o.command.as_str(), o.seed, o.seconds, o.trace), ("lookup-5e4", 3, 8, true));
        let o = parse_args(["agree", "a.json", "b.json"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!((o.command.as_str(), o.rest.len()), ("agree", 2));
        assert!(parse_args(["--trace", "2"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(std::iter::empty()).is_err());
    }
}
