//! Order statistics over small sample sets.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the two
/// nearest order statistics. `samples` need not be sorted.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are bugs in the caller.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interquartile range as a share of the median (0 for a single sample).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let mid = median(samples);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&s, 0.0), 10.0);
        assert_eq!(quantile(&s, 0.25), 20.0);
        assert_eq!(quantile(&s, 0.9), 46.0);
        assert_eq!(quantile(&s, 1.0), 50.0);
        assert_eq!(quantile(&s, 7.0), 50.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((iqr_share(&s) - 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
