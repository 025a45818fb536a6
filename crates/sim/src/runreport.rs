//! Machine-readable run reports: a dependency-free JSON writer and the
//! `bristle-run-report/v1` document `bristle-sim <sweep>` emits under
//! `--json <path>`.
//!
//! A report captures one sweep run at a fixed seed: per-cell parameters,
//! the per-kind meter tallies, and the snapshots (count/p50/p99/max,
//! micro-clock ticks) of the driver registry's histogram series. The workspace has
//! no serde, so [`Json`] is a small ordered value tree rendered with
//! stable two-space indentation — committed artifacts diff cleanly and
//! identical runs produce byte-identical files.

use std::io::Write as _;
use std::path::Path;

use bristle_overlay::meter::MessageKind;
use bristle_overlay::obs::{Hist, Registry};

use crate::workload::Telemetry;

/// The `schema` tag stamped on every report.
pub const SCHEMA: &str = "bristle-run-report/v1";

/// An ordered JSON value. Object keys keep insertion order so rendering
/// is deterministic without sorting.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the report's native counter type).
    U64(u64),
    /// A finite float, rendered with Rust's shortest round-trip form.
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value with two-space indentation and a trailing
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(v) => {
                // JSON has no NaN/Infinity; clamp to null like serde_json.
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included) into `out`.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Per-kind meter tallies as `{Kind: {count, cost}}`, zero rows skipped.
pub fn meter_json(tallies: &[(MessageKind, u64, u64)]) -> Json {
    Json::Obj(
        tallies
            .iter()
            .filter(|&&(_, count, cost)| count > 0 || cost > 0)
            .map(|&(k, count, cost)| {
                (
                    k.name().to_string(),
                    Json::obj([("count", Json::U64(count)), ("cost", Json::U64(cost))]),
                )
            })
            .collect(),
    )
}

/// The registry's histogram series, in declaration order, as
/// `{name: {count, p50, p99, max}}` (empty without a registry). Its
/// counters and gauges are not part of v1.
pub fn histograms_json(registry: Option<&Registry>) -> Json {
    Json::Obj(
        registry
            .into_iter()
            .flat_map(|r| Hist::ALL.map(|h| (h.name(), r.histogram(h).snapshot())))
            .map(|(name, s)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::U64(s.count)),
                        ("p50", Json::U64(s.p50)),
                        ("p99", Json::U64(s.p99)),
                        ("max", Json::U64(s.max)),
                    ]),
                )
            })
            .collect(),
    )
}

/// One sweep's machine-readable report, accumulated cell by cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The emitting sweep ("resilience", "partition", "ablation").
    pub bin: String,
    /// The seed every cell was run at.
    pub seed: u64,
    /// One entry per sweep cell.
    pub cells: Vec<Json>,
}

impl RunReport {
    /// An empty report for `bin` at `seed`.
    pub fn new(bin: impl Into<String>, seed: u64) -> Self {
        RunReport { bin: bin.into(), seed, cells: Vec::new() }
    }

    /// Appends one sweep cell: its parameters, meter tallies, histogram
    /// snapshots, and scenario-specific outcome fields.
    pub fn push_cell(&mut self, params: Json, telemetry: &Telemetry, outcome: Json) {
        self.cells.push(Json::obj([
            ("params", params),
            ("meter", meter_json(&telemetry.tallies)),
            ("histograms", histograms_json(telemetry.registry.as_ref())),
            ("outcome", outcome),
        ]));
    }

    /// The whole report as a [`Json`] document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            ("bin", Json::Str(self.bin.clone())),
            ("seed", Json::U64(self.seed)),
            ("cells", Json::Arr(self.cells.clone())),
        ])
    }

    /// Renders the report (two-space indent, trailing newline).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Writes the rendered report to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("n", Json::U64(3)),
            ("rate", Json::F64(0.5)),
            ("flag", Json::Bool(true)),
            ("items", Json::Arr(vec![Json::U64(1), Json::Null])),
            ("empty", Json::Obj(vec![])),
        ]);
        let s = doc.render();
        assert!(s.contains("\"schema\": \"bristle-run-report/v1\""));
        assert!(s.contains("\"rate\": 0.5"));
        assert!(s.contains("\"empty\": {}"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let mut out = String::new();
        escape_into("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null\n");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn report_shape_and_determinism() {
        let mut registry = Registry::default();
        registry.record(Hist::Route, 3);
        registry.record(Hist::Route, 7);
        let telemetry = Telemetry {
            registry: Some(registry),
            tallies: vec![
                (MessageKind::RouteHop, 5, 10),
                (MessageKind::Timeout, 0, 0), // zero rows are skipped
            ],
        };
        let mut r = RunReport::new("resilience", 8);
        r.push_cell(
            Json::obj([("loss", Json::F64(0.1))]),
            &telemetry,
            Json::obj([("ok", Json::Bool(true))]),
        );
        let a = r.render();
        assert_eq!(a, r.render(), "rendering is deterministic");
        assert!(a.contains("\"RouteHop\""));
        assert!(!a.contains("\"Timeout\""));
        assert!(a.contains("\"p50\": 3"));
        assert!(a.contains("\"p99\": 7"));
        assert!(a.contains("\"rejoin\""), "every histogram series is rendered");
        assert!(!a.contains("reseeds") && !a.contains("seen"), "counters and gauges are not v1");
        assert!(a.contains("\"bin\": \"resilience\""));
    }
}
