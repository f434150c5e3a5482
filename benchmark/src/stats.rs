//! Order statistics over timing samples. Every caller measures at least
//! one operation, so an empty sample is a bug and panics.

use edgelet_util::stats::percentile;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sample`, interpolated between ranks.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    percentile(&mut sample.to_vec(), q * 100.0).expect("quantile of an empty sample")
}

/// The median of `sample`.
pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

/// The smallest value of `sample`.
pub fn min(sample: &[f64]) -> f64 {
    quantile(sample, 0.0)
}

/// The largest value of `sample`.
pub fn max(sample: &[f64]) -> f64 {
    quantile(sample, 1.0)
}

/// `min=.. median=.. max=.. [v, v, ..]` — a sample in the order taken,
/// for the run's log.
pub fn spread_line(sample: &[f64]) -> String {
    format!(
        "min={:.6} median={:.6} max={:.6} {:.6?}",
        min(sample),
        median(sample),
        max(sample),
        sample
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_ranked_values() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!((min(&xs), max(&xs)), (1.0, 5.0));
        assert_eq!(quantile(&xs, 0.75), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(spread_line(&xs).starts_with("min=1.000000 median=3.000000 max=5.000000 [5.0"));
    }
}
