//! Nearest-rank percentiles that refuse to report a tail they cannot see.
//!
//! A percentile is only published when at least [`MIN_BEYOND`] samples lie
//! beyond it; with fewer, one outlier more or less moves the value, so the
//! benchmark treats such a percentile as a failed check rather than a number.

/// Samples that must lie beyond a published percentile.
pub const MIN_BEYOND: usize = 10;

/// One published percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Its value.
    pub value: f64,
    /// Samples it was computed over.
    pub samples: usize,
    /// Samples ranked strictly after it.
    pub beyond: usize,
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples ranked after percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Checks that percentile `p` of `n` samples has [`MIN_BEYOND`] samples
/// beyond it.
pub fn require_beyond(n: usize, p: f64) -> Result<(), String> {
    let b = beyond(n, p);
    if b < MIN_BEYOND {
        Err(format!("p{p} of {n} samples has {b} beyond it; at least {MIN_BEYOND} are needed"))
    } else {
        Ok(())
    }
}

/// Nearest-rank percentile `p` of `values` (sorted here), or an error when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Result<Percentile, String> {
    require_beyond(values.len(), p)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(sorted.len(), p);
    Ok(Percentile { value: sorted[r - 1], samples: sorted.len(), beyond: sorted.len() - r })
}

/// Median of `values` (mean of the middle two for an even count); `NaN`
/// for an empty slice. Used for repeated timings, where every sample is a
/// whole run and the ten-beyond rule does not apply.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let p50 = percentile(&ramp(100), 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&ramp(100), 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        // Input order does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 90.0).unwrap(), p90);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 has exactly 10 beyond; of 99 it has 9.
        assert!(percentile(&ramp(100), 90.0).is_ok());
        assert!(percentile(&ramp(99), 90.0).is_err());
        // p99 needs 1000 samples, p95 needs 200.
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert!(percentile(&ramp(1000), 99.0).is_ok());
        assert!(percentile(&ramp(199), 95.0).is_err());
        assert!(percentile(&ramp(200), 95.0).is_ok());
        assert!(require_beyond(0, 50.0).is_err());
        assert!(require_beyond(19, 50.0).is_err());
        assert!(require_beyond(20, 50.0).is_ok());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
