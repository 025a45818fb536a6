//! Order statistics over timing samples. The benchmark keeps its own
//! (nearest rank, on integer nanoseconds) and does not borrow
//! `bristle_sim::metrics::Samples`: a later change to the program's
//! statistics must not redefine what `op_p50_us` means.

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by nearest rank: the
/// smallest sample with at least `p` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; the mean of the two middle values for even counts.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median_f64(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timing samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-slice rates: `samples` (nanoseconds per op, in execution order)
/// cut into `slices` runs of equal op count, each reported as ops per
/// second. A trailing remainder shorter than a slice is dropped.
pub fn slice_rates(samples: &[u64], slices: usize) -> Vec<f64> {
    let per = samples.len() / slices.max(1);
    if per == 0 {
        let total: u64 = samples.iter().sum();
        return vec![samples.len() as f64 / (total.max(1) as f64 / 1e9)];
    }
    samples
        .chunks_exact(per)
        .map(|c| per as f64 / (c.iter().sum::<u64>().max(1) as f64 / 1e9))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_by_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn medians_pick_the_middle() {
        assert_eq!(percentile_sorted(&[1, 5, 9], 0.5), 5);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.5), 2, "lower median: a measured sample");
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slice_rates_cut_equal_op_counts() {
        // 4 ops of 1 ms then 4 ops of 2 ms: 1000/s then 500/s.
        let mut ns = vec![1_000_000u64; 4];
        ns.extend([2_000_000u64; 4]);
        let r = slice_rates(&ns, 2);
        assert_eq!(r.len(), 2);
        assert!((r[0] - 1000.0).abs() < 1e-6 && (r[1] - 500.0).abs() < 1e-6);
        // Fewer samples than slices: one rate over everything.
        assert_eq!(slice_rates(&[1_000_000_000], 10), vec![1.0]);
    }
}
