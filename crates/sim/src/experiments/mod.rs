//! Experiment drivers — one module per table/figure of the paper.
//!
//! Every driver follows the same shape: a `*Config` with `quick()` (CI- and
//! laptop-friendly) and `paper()` (the paper's scale) constructors, a
//! `run()` producing a typed result, a `to_table()` rendering the rows
//! the paper's figure plots, and a `sweep()` that is the module's row in
//! the [`crate::sweeps::SWEEPS`] table behind `bristle-sim <name>`.

pub mod ablation;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;

/// Runs `point` at every x-axis value, one scoped thread each, and
/// returns the rows in axis order. Each point owns its RNGs and builds
/// its own overlays, so the rows do not depend on how the threads
/// interleave.
fn per_point<R: Send>(axis: &[f64], point: impl Fn(f64) -> R + Sync) -> Vec<R> {
    let point = &point;
    std::thread::scope(|s| {
        let handles: Vec<_> = axis.iter().map(|&x| s.spawn(move || point(x))).collect();
        handles.into_iter().map(|h| h.join().expect("sweep point")).collect()
    })
}

/// Experiment scale selector shared by the sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced populations; finishes in seconds, preserves every shape.
    Quick,
    /// The paper's populations (minutes of runtime).
    Paper,
}

impl Scale {
    /// The value for this scale: `quick` or `paper`.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }
}
