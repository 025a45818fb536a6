//! The one flag parser behind every `bristle-sim <sweep>` invocation.
//!
//! | flag | meaning |
//! |------|---------|
//! | `--paper`        | the paper's populations instead of the quick scale |
//! | `--json <path>`  | also write a `bristle-run-report/v1` document |
//! | `--seed <n>`     | master seed (default: the sweep's own — 8, the committed-report seed, for the report sweeps) |
//! | `--smoke`        | smallest cell only (scale sweep) |
//! | `--stretch`      | add the largest cell (scale sweep) |
//! | `--workers <k>`  | wiring/sampling threads (scale sweep) |
//!
//! An unknown flag, a flag missing its value, or a value that does not
//! parse is an error: a typo must not silently regenerate the seed-8
//! report under another name. So is a scale-sweep flag given to any
//! other subcommand (checked by the dispatcher): it would be ignored.

use std::path::PathBuf;

use crate::experiments::Scale;

/// The seed the committed `BENCH_*.json` artifacts are generated at.
pub const DEFAULT_SEED: u64 = 8;

/// Parsed sweep arguments. See the module docs for the flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// Population scale (`--paper` ⇒ [`Scale::Paper`]).
    pub scale: Scale,
    /// Where to write the machine-readable run report, if anywhere.
    pub json: Option<PathBuf>,
    /// `--seed`, if given; each sweep falls back to its own
    /// ([`Self::seed_or`]).
    pub seed: Option<u64>,
    /// Scale sweep only: run the smallest population cell only.
    pub smoke: bool,
    /// Scale sweep only: add the largest (stretch) population cell.
    pub stretch: bool,
    /// Scale sweep only: worker-thread count override (`None` lets the
    /// sweep pick from `available_parallelism`).
    pub workers: Option<usize>,
}

impl Default for SweepArgs {
    /// The arguments the committed reports are generated with.
    fn default() -> Self {
        SweepArgs {
            scale: Scale::Quick,
            json: None,
            seed: None,
            smoke: false,
            stretch: false,
            workers: None,
        }
    }
}

impl SweepArgs {
    /// Parses the flags that follow the subcommand name. The error is a
    /// one-line reason for the usage message.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<SweepArgs, String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            args: &mut impl Iterator<Item = String>,
        ) -> Result<T, String> {
            let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        let mut out = SweepArgs::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--paper" => out.scale = Scale::Paper,
                "--smoke" => out.smoke = true,
                "--stretch" => out.stretch = true,
                "--json" => out.json = Some(value("--json", &mut args)?),
                "--seed" => out.seed = Some(value("--seed", &mut args)?),
                "--workers" => out.workers = Some(value("--workers", &mut args)?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }

    /// The seed to run at: `--seed` if given, else the sweep's `own` (its
    /// historic seed, so default stdout never moves).
    pub fn seed_or(&self, own: u64) -> u64 {
        self.seed.unwrap_or(own)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_the_committed_artifacts() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, SweepArgs::default());
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seed_or(DEFAULT_SEED), DEFAULT_SEED);
        assert_eq!(a.seed_or(42), 42, "each sweep keeps its own default");
        assert_eq!(a.json, None);
        assert!(!a.smoke && !a.stretch);
        assert_eq!(a.workers, None);
    }

    #[test]
    fn all_flags_parse() {
        let a = parse(&[
            "--paper",
            "--json",
            "out.json",
            "--seed",
            "27",
            "--smoke",
            "--stretch",
            "--workers",
            "4",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.json, Some(PathBuf::from("out.json")));
        assert_eq!(a.seed_or(42), 27);
        assert!(a.smoke && a.stretch);
        assert_eq!(a.workers, Some(4));
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors() {
        assert!(parse(&["--verbose"]).unwrap_err().contains("--verbose"));
        assert!(parse(&["--seed", "2x7"]).unwrap_err().contains("2x7"));
        assert!(parse(&["--seed", "not-a-number"]).is_err());
        assert!(parse(&["--workers"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--paper", "--json"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["stray"]).is_err());
    }
}
