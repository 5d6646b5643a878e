//! Order statistics over latency samples.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Smallest sample count at which percentile `p` (in `(0, 1)`) has
/// [`TAIL_SAMPLES`] samples beyond it: 20 for p50, 100 for p90, 1000 for
/// p99.
pub fn needed(p: f64) -> usize {
    (TAIL_SAMPLES as f64 / (1.0 - p)).round() as usize
}

/// Nearest-rank percentile of unsorted `values`; `None` when there are
/// too few samples to report it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.len() < needed(p) {
        return None;
    }
    Some(rank(values, p))
}

/// Nearest-rank percentile without the tail-sample rule (for per-layer
/// medians over whatever the layer saw; `0` when there were no samples).
pub fn rank(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

pub fn median(values: &[f64]) -> f64 {
    rank(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_matches_the_stated_sample_counts() {
        assert_eq!(needed(0.5), 20);
        assert_eq!(needed(0.9), 100);
        assert_eq!(needed(0.99), 1000);
        assert!(percentile(&[1.0; 99], 0.9).is_none());
        assert_eq!(percentile(&[1.0; 100], 0.9), Some(1.0));
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(rank(&v, 0.5), 50.0);
        assert_eq!(rank(&v, 0.9), 90.0);
        assert_eq!(rank(&v, 0.99), 99.0);
    }
}
