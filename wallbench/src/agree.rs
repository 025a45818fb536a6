//! `agree <a.json> <b.json>`: applies the bounds in `BENCHMARK.json` to
//! two result files written by `all --json` and prints one row per
//! (workload, metric), `fail_share` first.
//!
//! * `ok` — `b` is no worse than `a` by more than the metric's bound.
//! * `regressed` — it is. `fail_share` (`failed` ÷ `attempted`) has no
//!   bound: any rise regresses, and so does a workload that was correct
//!   in `a` and is not in `b` (a failed whole-run check, a dead child).
//!   Metrics whose unit is `count` are made by the program, not the
//!   clock: when both files ran the same seed and op count they must
//!   repeat exactly, so any worsening at all regresses.
//! * `unresolved` — the pair cannot be told apart from the host's own
//!   drift: a timing is beyond its bound, but no longer once the shift of
//!   the control kernel between the two files (see `control.rs`) is taken
//!   off. Or it cannot be compared at all: the metric is missing on one
//!   side, or a side's workload is incorrect.
//!
//! Metrics missing on both sides (layers the workload does not execute,
//! the traced pass not run) get no row.

use crate::json::Json;

/// Absolute slack on `setup_s`: a set-up of a tenth of a second jitters
/// by more than any relative bound allows.
const SETUP_SLACK_S: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
}

impl Status {
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    pub status: Status,
}

/// One metric's rule, from `BENCHMARK.json`.
struct Rule {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// `None` for per-layer metrics (they carry no bound).
    bound: Option<f64>,
}

fn rules(benchmark: &Json, section: &str) -> Result<Vec<Rule>, String> {
    let list = benchmark
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k).and_then(Json::as_str).ok_or_else(|| format!("{section}: missing `{k}`"))
            };
            Ok(Rule {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(rule: &Rule, a: f64, b: f64) -> f64 {
    let delta = if rule.higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// `host_shift` is how much slower the control kernel ran beside `b`
/// than beside `a`, as a share (0 when it ran no slower, or is unknown).
fn judge(rule: &Rule, a: f64, b: f64, same_inputs: bool, host_shift: f64) -> Status {
    let worse = worse_by(rule, a, b);
    if rule.unit == "count" && same_inputs {
        return if worse > 0.0 { Status::Regressed } else { Status::Ok };
    }
    let Some(bound) = rule.bound else {
        // An unbounded, clock-made layer metric cannot regress.
        return Status::Ok;
    };
    if worse <= bound || (rule.name == "setup_s" && (b - a) <= SETUP_SLACK_S) {
        return Status::Ok;
    }
    // Only the clock-made metrics follow the host's speed.
    if CLOCK_MADE.contains(&rule.name.as_str()) && worse - host_shift <= bound {
        return Status::Unresolved;
    }
    Status::Regressed
}

/// End-to-end metrics read off the clock, which drift with the host.
const CLOCK_MADE: &[&str] = &["setup_s", "ops_per_s", "op_p50_us"];

/// One side's workload object.
struct Side<'a>(Option<&'a Json>);

impl<'a> Side<'a> {
    fn of(file: &'a Json, workload: &str) -> Side<'a> {
        Side(file.get("workloads").and_then(|w| w.get(workload)))
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.0?.get(key)?.as_f64()
    }

    fn correct(&self) -> bool {
        self.0.is_some_and(|r| r.get("correct") == Some(&Json::Bool(true)))
    }

    fn metric(&self, section: &str, name: &str) -> Option<f64> {
        self.0?.get(section)?.get(name)?.get("value")?.as_f64()
    }

    fn fail_share(&self) -> Option<f64> {
        Some(self.num("failed")? / self.num("attempted")?.max(1.0))
    }

    /// The control kernel's fastest time beside this run.
    fn control_ms(&self) -> Option<f64> {
        let samples = self.0?.get("reps")?.get("control_ms")?.as_arr()?;
        samples.iter().filter_map(Json::as_f64).reduce(f64::min)
    }
}

/// Compares result files `a` and `b` under `benchmark`'s rules.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `workloads` list")?;
    let e2e = rules(benchmark, "end_to_end")?;
    let layer = rules(benchmark, "per_layer")?;
    let mut rows = Vec::new();
    for wl in workloads {
        let name = wl.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        let (ra, rb) = (Side::of(a, name), Side::of(b, name));
        let mut row = |metric: &str, a, b, status| {
            rows.push(Row { workload: name.to_string(), metric: metric.to_string(), a, b, status });
        };

        let (fa, fb) = (ra.fail_share(), rb.fail_share());
        let status = match (fa, fb) {
            (Some(x), Some(y)) if y > x || (ra.correct() && !rb.correct()) => Status::Regressed,
            (Some(_), Some(_)) => Status::Ok,
            _ => Status::Unresolved,
        };
        row("fail_share", fa, fb, status);

        let same_inputs = ra.num("seed").is_some()
            && ra.num("seed") == rb.num("seed")
            && ra.num("ops") == rb.num("ops");
        let host_shift = match (ra.control_ms(), rb.control_ms()) {
            (Some(ca), Some(cb)) if ca > 0.0 => (cb / ca - 1.0).max(0.0),
            _ => 0.0,
        };
        for (section, list) in [("end_to_end", &e2e), ("per_layer", &layer)] {
            for rule in list {
                // Clock-made layer metrics have no bound to apply; rows
                // for them would all read `ok`.
                if section == "per_layer" && rule.unit != "count" {
                    continue;
                }
                let (va, vb) = (ra.metric(section, &rule.name), rb.metric(section, &rule.name));
                let status = match (va, vb) {
                    // Not executed by this workload, or no traced pass.
                    (None, None) if section == "per_layer" => continue,
                    (Some(x), Some(y)) if ra.correct() && rb.correct() => {
                        judge(rule, x, y, same_inputs, host_shift)
                    }
                    _ => Status::Unresolved,
                };
                row(&rule.name, va, vb, status);
            }
        }
    }
    Ok(rows)
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<32} {:>18} {:>18}  {}\n",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            r.status.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Json {
        Json::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[
                  {"name":"setup_s","unit":"s","better":"lower","bound":0.2},
                  {"name":"ops_per_s","unit":"op/s","better":"higher","bound":0.1},
                  {"name":"msgs_per_op","unit":"count","better":"lower","bound":0.02}],
                "per_layer":[
                  {"name":"sim.events_per_op","unit":"count","better":"lower"},
                  {"name":"net.drops","unit":"count","better":"lower"},
                  {"name":"overlay.next_hop_ns","unit":"ns","better":"lower"}]}"#,
        )
        .unwrap()
    }

    /// One workload's result object.
    struct Run {
        seed: u64,
        failed: u64,
        correct: bool,
        setup: f64,
        ops_per_s: f64,
        msgs: f64,
        events: Option<f64>,
        control_ms: f64,
    }

    const BASE: Run = Run {
        seed: 8,
        failed: 0,
        correct: true,
        setup: 1.0,
        ops_per_s: 1000.0,
        msgs: 7.0,
        events: Some(50.0),
        control_ms: 50.0,
    };

    fn file(r: &Run) -> Json {
        let m = |v: f64| Json::obj([("value", Json::Num(v))]);
        let mut layer = Vec::new();
        if let Some(e) = r.events {
            layer.push(("sim.events_per_op", m(e)));
            layer.push(("overlay.next_hop_ns", m(e * 3.0)));
        }
        let workload = Json::obj([
            ("correct", Json::Bool(r.correct)),
            ("attempted", Json::Num(500.0)),
            ("failed", Json::Num(r.failed as f64)),
            ("seed", Json::Num(r.seed as f64)),
            ("ops", Json::Num(100.0)),
            (
                "end_to_end",
                Json::obj([
                    ("setup_s", m(r.setup)),
                    ("ops_per_s", m(r.ops_per_s)),
                    ("msgs_per_op", m(r.msgs)),
                ]),
            ),
            (
                "reps",
                Json::obj([(
                    "control_ms",
                    Json::Arr(vec![Json::Num(r.control_ms * 1.3), Json::Num(r.control_ms)]),
                )]),
            ),
            ("per_layer", Json::obj(layer)),
        ]);
        Json::obj([("workloads", Json::obj([("w", workload)]))])
    }

    fn statuses(a: &Run, b: &Run) -> Vec<(String, Status)> {
        let rows = compare(&benchmark(), &file(a), &file(b)).unwrap();
        rows.into_iter().map(|r| (r.metric, r.status)).collect()
    }

    #[test]
    fn within_bounds_is_ok_and_beyond_is_regressed() {
        let same = statuses(&BASE, &Run { setup: 1.1, ops_per_s: 950.0, ..BASE });
        assert!(same.iter().all(|(_, s)| *s == Status::Ok), "{same:?}");
        // fail_share, three end-to-end rows, and the one deterministic
        // layer metric the workload executed.
        let names: Vec<&str> = same.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["fail_share", "setup_s", "ops_per_s", "msgs_per_op", "sim.events_per_op"]
        );

        let worse = statuses(&BASE, &Run { setup: 1.3, ops_per_s: 880.0, ..BASE });
        assert_eq!(worse[1], ("setup_s".into(), Status::Regressed));
        assert_eq!(worse[2], ("ops_per_s".into(), Status::Regressed));
        assert_eq!(worse[3].1, Status::Ok);
    }

    #[test]
    fn a_slower_host_makes_a_timing_unresolved_not_regressed() {
        // 14 % fewer ops per second, but the control ran 10 % slower too:
        // what is left is inside the 10 % bound.
        let b = Run { ops_per_s: 860.0, control_ms: 55.0, ..BASE };
        assert_eq!(statuses(&BASE, &b)[2].1, Status::Unresolved);
        // 30 % fewer is beyond what the host explains.
        let b = Run { ops_per_s: 700.0, control_ms: 55.0, ..BASE };
        assert_eq!(statuses(&BASE, &b)[2].1, Status::Regressed);
        // A faster host excuses nothing, and a count is never excused.
        let b = Run { ops_per_s: 860.0, control_ms: 40.0, ..BASE };
        assert_eq!(statuses(&BASE, &b)[2].1, Status::Regressed);
        let b = Run { msgs: 7.5, control_ms: 100.0, ..BASE };
        assert_eq!(statuses(&BASE, &b)[3].1, Status::Regressed);
    }

    #[test]
    fn counts_must_repeat_exactly_on_the_same_inputs() {
        let drift = statuses(&BASE, &Run { msgs: 7.001, events: Some(50.5), ..BASE });
        assert_eq!(drift[3], ("msgs_per_op".into(), Status::Regressed));
        assert_eq!(drift[4], ("sim.events_per_op".into(), Status::Regressed));
        // Fewer messages is not a regression.
        assert_eq!(statuses(&BASE, &Run { msgs: 6.9, ..BASE })[3].1, Status::Ok);
        // Another seed: the relative bound applies instead.
        assert_eq!(statuses(&BASE, &Run { seed: 9, msgs: 7.001, ..BASE })[3].1, Status::Ok);
    }

    #[test]
    fn any_rise_in_fail_share_regresses_and_so_does_a_run_gone_incorrect() {
        let rows = statuses(&BASE, &Run { failed: 1, correct: false, ..BASE });
        assert_eq!(rows[0], ("fail_share".into(), Status::Regressed));
        // The incorrect side's other numbers are not compared.
        assert!(rows[1..].iter().all(|(_, s)| *s == Status::Unresolved), "{rows:?}");
        // A failed whole-run check (or a dead child) with no failed op.
        assert_eq!(statuses(&BASE, &Run { correct: false, ..BASE })[0].1, Status::Regressed);
        // Failing no more than before is not a regression.
        let bad = Run { failed: 3, correct: false, ..BASE };
        assert_eq!(statuses(&bad, &Run { failed: 2, correct: false, ..BASE })[0].1, Status::Ok);
        assert_eq!(statuses(&bad, &BASE)[0].1, Status::Ok);
    }

    #[test]
    fn setup_gets_absolute_slack_and_gaps_are_unresolved() {
        let a = Run { setup: 0.10, events: None, ..BASE };
        // +40 % but only +0.04 s.
        let rows = statuses(&a, &Run { setup: 0.14, ..a });
        assert_eq!(rows[1], ("setup_s".into(), Status::Ok));
        assert_eq!(rows.len(), 4, "no layer rows when neither side traced");

        let missing = Json::obj([("workloads", Json::obj::<String>([]))]);
        let rows = compare(&benchmark(), &file(&a), &missing).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.status == Status::Unresolved));
    }
}
