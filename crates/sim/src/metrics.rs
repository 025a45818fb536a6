//! Statistics collection for experiments.

/// Accumulates samples and answers mean / percentile / extrema queries.
///
/// Stores the raw samples (experiment scales are modest) so percentiles
/// are exact rather than sketched.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample {v}");
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Exact percentile by nearest-rank (`p` in `[0, 100]`).
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p}");
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * (self.values.len() as f64 - 1.0)).round() as usize;
        self.values[rank]
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        finite_or_zero(self.values.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        finite_or_zero(self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// All samples, sorted ascending — for pooling collectors.
    pub fn sorted_values(&mut self) -> &[f64] {
        if !self.sorted {
            self.values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            self.sorted = true;
        }
        &self.values
    }
}

/// `x`, or 0 for the infinities an empty fold leaves behind.
fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// An integer-bucket histogram (e.g. tree levels, hop counts).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `bucket`.
    pub fn record(&mut self, bucket: usize) {
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Count in `bucket` (0 when beyond the recorded range).
    pub fn count(&self, bucket: usize) -> u64 {
        self.counts.get(bucket).copied().unwrap_or(0)
    }

    /// Fraction of observations in `bucket` (0 when empty).
    pub fn fraction(&self, bucket: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(bucket) as f64 / self.total as f64
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of buckets covering the recorded range.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_sum() {
        let mut s = Samples::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.len(), 8);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn empty_collector_is_calm() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn percentiles_exact() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(50.0), 51.0); // nearest rank on 0-indexed
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn percentile_after_push_resorts() {
        let mut s = Samples::new();
        s.push(5.0);
        assert_eq!(s.percentile(100.0), 5.0);
        s.push(1.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn histogram_counts_and_fractions() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(3);
        h.record(0);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.count(9), 0);
        assert_eq!(h.total(), 4);
        assert!((h.fraction(1) - 0.5).abs() < 1e-12);
        assert_eq!(h.buckets(), 4);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.fraction(0), 0.0);
        assert_eq!(h.total(), 0);
    }
}
