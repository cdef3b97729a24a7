//! The workspace's one nearest-rank percentile.

/// Nearest-rank percentile `p` (in percent) over an ascending-sorted slice:
/// the smallest value whose rank covers `p`% of the observations, `rank =
/// clamp(ceil(p/100 · n), 1, n)`. This is the convention the telemetry
/// histogram's p50/p95/p99 use, so columns computed from either source are
/// comparable. Unlike `xs[n/2]` (the *upper* median) or a truncating
/// `(n·q) as usize` (which turns p95 into the max for small n), it is exact
/// at the boundaries: n=1 gives the value, n=2 gives the lower one at p50.
///
/// `p` stays in percent because `99.9 / 100.0` and `0.999` are different
/// `f64`s. An empty slice yields NaN, the telemetry convention for an
/// unpublished number, so it can never pass for a measured 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn nearest_rank_in_percent_with_nan_for_no_samples() {
        // n=2: the median is the LOWER value (rank ceil(1) = 1).
        assert_eq!(percentile(&[2.0, 8.0], 50.0), 2.0);
        // Out-of-range p clamps to the first and last rank.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 150.0), 3.0);
        // `99.9 / 100.0` rounds just above 0.999, so at n=1000 p99.9 lands
        // on rank 1000; a fraction-based variant would pick rank 999.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.9), 1000.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
