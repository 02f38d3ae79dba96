//! Order statistics over a run's samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks; `NaN` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p90, p99 and p99.9 that still has at least ten samples
/// beyond it, as `(label, value)`; `None` below a hundred samples, where
/// not even p90 has.
pub fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    // `d` is the share of samples beyond the percentile, as 1/d.
    [("p99.9", 1000), ("p99", 100), ("p90", 10)]
        .into_iter()
        .find(|&(_, d)| samples.len() / d >= 10)
        .map(|(label, d)| (label, quantile(samples, 1.0 - 1.0 / d as f64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail(&[1.0; 99]).is_none());
        assert_eq!(tail(&[1.0; 100]).map(|t| t.0), Some("p90"));
        assert_eq!(tail(&[1.0; 1000]).map(|t| t.0), Some("p99"));
    }
}
