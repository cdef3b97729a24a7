//! The q-error metric (Moerkotte, Neumann & Steidl, PVLDB 2009).
//!
//! `q(e, a) = max(e/a, a/e)` — the *multiplicative* estimation error, ≥ 1,
//! symmetric in over- and under-estimation. The paper proves plan-quality
//! bounds in terms of the maximum q-error over all intermediate results; the
//! seminar's estimation break-outs adopt it (alongside the additive Metric1/2
//! of Nica et al.) as the estimation-robustness currency. E08 and E19 report
//! q-error summaries.

use rqp_common::percentile;

/// The q-error of estimate `e` against actual `a`.
///
/// Both values are floored at one row (the convention of the paper) so that
/// empty results don't produce infinities; the result is always ≥ 1.
pub fn q_error(estimate: f64, actual: f64) -> f64 {
    let e = estimate.max(1.0);
    let a = actual.max(1.0);
    (e / a).max(a / e)
}

/// Aggregate q-error statistics over a set of (estimate, actual) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct QErrorSummary {
    /// Number of observations.
    pub count: usize,
    /// Maximum q-error (the bound-relevant statistic).
    pub max: f64,
    /// Geometric mean of q-errors.
    pub geo_mean: f64,
    /// Median q-error.
    pub median: f64,
    /// 95th percentile q-error.
    pub p95: f64,
}

impl QErrorSummary {
    /// Summarize `(estimate, actual)` pairs. Empty input yields the identity
    /// summary (all statistics 1).
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Self {
        if pairs.is_empty() {
            return QErrorSummary { count: 0, max: 1.0, geo_mean: 1.0, median: 1.0, p95: 1.0 };
        }
        let mut qs: Vec<f64> = pairs.iter().map(|&(e, a)| q_error(e, a)).collect();
        qs.sort_by(f64::total_cmp);
        let count = qs.len();
        let max = *qs.last().expect("non-empty");
        let geo_mean = (qs.iter().map(|q| q.ln()).sum::<f64>() / count as f64).exp();
        let median = percentile(&qs, 50.0);
        let p95 = percentile(&qs, 95.0);
        QErrorSummary { count, max, geo_mean, median, p95 }
    }
}

impl std::fmt::Display for QErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "q-error n={} median={:.2} geo-mean={:.2} p95={:.2} max={:.2}",
            self.count, self.median, self.geo_mean, self.p95, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_and_floored() {
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(50.0, 50.0), 1.0);
        // floor at 1 row avoids infinities
        assert_eq!(q_error(0.0, 100.0), 100.0);
        assert_eq!(q_error(100.0, 0.0), 100.0);
        assert_eq!(q_error(0.0, 0.0), 1.0);
    }

    #[test]
    fn always_at_least_one() {
        for (e, a) in [(1.0, 1.0), (0.5, 0.7), (3.0, 2.0), (1e9, 1.0)] {
            assert!(q_error(e, a) >= 1.0);
        }
    }

    #[test]
    fn summary_statistics() {
        let pairs = vec![(10.0, 10.0), (20.0, 10.0), (10.0, 40.0), (1.0, 1000.0)];
        let s = QErrorSummary::from_pairs(&pairs);
        assert_eq!(s.count, 4);
        assert_eq!(s.max, 1000.0);
        assert!(s.median >= 2.0 && s.median <= 4.0);
        assert!(s.geo_mean > 1.0 && s.geo_mean < s.max);
    }

    /// A pair whose q-error is exactly `q` (q ≥ 1).
    fn pair(q: f64) -> (f64, f64) {
        (q, 1.0)
    }

    #[test]
    fn quantiles_use_nearest_rank_boundaries() {
        // n=1: every quantile is the single observation.
        let s = QErrorSummary::from_pairs(&[pair(7.0)]);
        assert_eq!((s.median, s.p95, s.max), (7.0, 7.0, 7.0));

        // n=2: nearest-rank median is the LOWER of the two (rank ceil(1)=1),
        // not the upper one qs[n/2] would give; p95 is the upper.
        let s = QErrorSummary::from_pairs(&[pair(2.0), pair(8.0)]);
        assert_eq!(s.median, 2.0, "lower median, not qs[1]");
        assert_eq!(s.p95, 8.0);

        // n=4: median is rank ceil(2)=2 → qs[1]; p95 rank ceil(3.8)=4 → max
        // (for n=4 the 95th percentile legitimately is the max).
        let s = QErrorSummary::from_pairs(&[pair(1.0), pair(2.0), pair(4.0), pair(1000.0)]);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.p95, 1000.0);

        // n=20: the truncating (n*0.95) as usize = 19 indexed the max; the
        // nearest-rank 95th is rank ceil(19)=19 → qs[18], below the max.
        let pairs: Vec<(f64, f64)> = (1..=20).map(|i| pair(i as f64)).collect();
        let s = QErrorSummary::from_pairs(&pairs);
        assert_eq!(s.median, 10.0, "rank ceil(10)=10 → qs[9]");
        assert_eq!(s.p95, 19.0, "p95 is not the max once n covers 5% tails");
        assert_eq!(s.max, 20.0);
    }

    #[test]
    fn quantile_convention_matches_telemetry_histogram() {
        // The scoreboard mixes quantiles from QErrorSummary and from the
        // telemetry histogram; both must resolve the same rank. The
        // histogram returns bucket *upper bounds*, so feed it values that
        // are themselves power-of-two bounds shifted down: a value v in
        // (2^i, 2^(i+1)] reports bound 2^(i+1).
        let qs = [1.5, 3.0, 3.0, 12.0, 100.0];
        let hist = rqp_telemetry::Histogram::default();
        for q in qs {
            hist.observe(q);
        }
        let pairs: Vec<(f64, f64)> = qs.iter().map(|&q| (q, 1.0)).collect();
        let s = QErrorSummary::from_pairs(&pairs);
        // Median: rank ceil(2.5)=3 → third-smallest in both conventions.
        assert_eq!(s.median, 3.0);
        assert_eq!(hist.p50(), 4.0, "same rank, reported as its bucket bound");
        // p95: rank ceil(4.75)=5 → the largest, in both conventions.
        assert_eq!(s.p95, 100.0);
        assert_eq!(hist.p95(), 128.0);
    }

    #[test]
    fn empty_summary_is_identity() {
        let s = QErrorSummary::from_pairs(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 1.0);
        assert_eq!(s.geo_mean, 1.0);
    }

    #[test]
    fn display_contains_fields() {
        let s = QErrorSummary::from_pairs(&[(2.0, 1.0)]);
        let out = s.to_string();
        assert!(out.contains("max=2.00"), "{out}");
    }
}
