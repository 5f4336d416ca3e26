//! Order statistics.

/// Percentiles the tail metric may use, highest last.
const TAIL_LADDER: [f64; 7] = [0.9, 0.95, 0.98, 0.99, 0.995, 0.998, 0.999];

/// The highest ladder percentile that leaves at least 10 of `samples`
/// beyond it (the median when even p90 has fewer).
///
/// Workloads pass their *planned* sample count, not the count a run happens
/// to reach, so the percentile a metric reports does not flip between runs.
pub fn tail_quantile(samples: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|q| (samples as f64) * (1.0 - q) + 1e-9 >= 10.0)
        .unwrap_or(0.5)
}

/// Nearest-rank quantile of `values` (sorted in place). `NaN` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(50), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(700), 0.98);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(20_000), 0.999);
    }

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }
}
