//! Order statistics over one run's samples.

/// Samples a reported percentile must leave above it, so that the tail it
/// names rests on more than a handful of observations.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of `samples` by nearest rank, or an
/// error when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs {} samples above it; {n} samples leave {}",
            p * 100.0,
            MIN_BEYOND,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_requires_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(
            percentile(&xs, 0.9).is_err(),
            "99 samples leave 9 above p90"
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(
            percentile(&xs, 0.5).is_err(),
            "19 samples leave 9 above p50"
        );
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Ok(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        assert_eq!(percentile(&xs, 0.5), Ok(99.0));
        assert_eq!(percentile(&xs, 0.9), Ok(179.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
