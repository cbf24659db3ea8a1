//! Order statistics for the report.

/// Nearest-rank percentile `q` (0..=1) of `values`, sorting them in
/// place: the value at rank `ceil(q·n)`. Matches the scale executor's
/// own p99. 0 for an empty slice.
pub fn nearest_rank(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).saturating_sub(1);
    values[rank.min(values.len() - 1)]
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie strictly beyond a percentile before the
/// report trusts it as a tail estimate.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `q` of `values`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it — a tail read off a
/// handful of samples is one outlier, not a percentile.
pub fn tail_percentile(values: &mut [f64], q: f64) -> Option<f64> {
    let v = nearest_rank(values, q);
    let beyond = values.iter().filter(|&&x| x > v).count();
    (beyond >= MIN_BEYOND).then_some(v)
}

/// The highest of `candidates` (percentiles as fractions, highest
/// first) that [`tail_percentile`] keeps, with its value.
pub fn highest_trusted(values: &mut [f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates
        .iter()
        .find_map(|&q| tail_percentile(values, q).map(|v| (q, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_executor_definition() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&mut v, 0.99), 198.0);
        assert_eq!(nearest_rank(&mut v, 0.5), 100.0);
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(nearest_rank(&mut few, 0.99), 3.0);
    }

    #[test]
    fn percentile_with_fewer_than_ten_samples_beyond_is_omitted() {
        // 500 distinct samples: 5 lie beyond p99, 50 beyond p90.
        let mut v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail_percentile(&mut v, 0.99), None);
        assert_eq!(tail_percentile(&mut v, 0.9), Some(450.0));
        // 1000 samples: exactly 10 beyond p99 — kept.
        let mut w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&mut w, 0.99), Some(990.0));
        // A dozen samples: not even the median has ten beyond it.
        let mut d: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(highest_trusted(&mut d, &[0.99, 0.9, 0.5]), None);
        assert_eq!(
            highest_trusted(&mut v, &[0.999, 0.99, 0.95, 0.5]),
            Some((0.95, 475.0))
        );
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
