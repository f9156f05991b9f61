//! Order statistics over measured samples.

/// The `p`-quantile (0 < p <= 1) by nearest rank: the smallest sample
/// with at least `p` of all samples at or below it. `0.0` when empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank, so always a measured sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly beyond the `p`-quantile.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let q = quantile(samples, p);
    samples.iter().filter(|&&v| v > q).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(beyond(&v, 0.9), 1);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
    }
}
