//! Order statistics over latency samples.
//!
//! A tail percentile is only worth printing when enough samples lie
//! beyond it to be more than one unlucky outlier, so the tail the
//! benchmark reports is the highest rung of [`LADDER`] that leaves at
//! least [`MIN_BEYOND`] samples above it.

/// Percentiles the tail is chosen from, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it, together
/// with the number of samples strictly beyond that rank.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    // The epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank one place up.
    let rank = ((pct / 100.0) * n as f64 - 1e-9)
        .ceil()
        .clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// A reported percentile: which one, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pctl {
    pub pct: f64,
    pub value: f64,
}

/// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`]
/// samples beyond it; `None` when even the median has fewer.
pub fn tail(sorted: &[f64]) -> Option<Pctl> {
    if sorted.is_empty() {
        return None;
    }
    LADDER.iter().rev().find_map(|&pct| {
        let (value, beyond) = nearest_rank(sorted, pct);
        (beyond >= MIN_BEYOND).then_some(Pctl { pct, value })
    })
}

/// Median of an unsorted sample (mean of the middle pair for even
/// counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Sort samples ascending in place and return them.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: the median leaves only 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: the median (rank 10) leaves exactly 10.
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
        // 99 samples: p90 is rank 90, 9 beyond — still the median.
        assert_eq!(tail(&ramp(99)).unwrap().pct, 50.0);
        assert_eq!(tail(&ramp(100)).unwrap().pct, 90.0);
        assert_eq!(tail(&ramp(999)).unwrap().pct, 90.0);
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        assert_eq!(tail(&ramp(5000)).unwrap().pct, 99.0);
        assert_eq!(tail(&ramp(10_000)).unwrap().pct, 99.9);
        assert_eq!(tail(&ramp(100_000)).unwrap().pct, 99.99);
    }

    #[test]
    fn every_reported_tail_leaves_ten_beyond_and_the_next_rung_does_not() {
        for n in 1..3000 {
            let s = ramp(n);
            match tail(&s) {
                None => assert!(nearest_rank(&s, 50.0).1 < MIN_BEYOND, "n={n}"),
                Some(t) => {
                    assert!(nearest_rank(&s, t.pct).1 >= MIN_BEYOND, "n={n}");
                    if let Some(&next) = LADDER.iter().find(|&&p| p > t.pct) {
                        assert!(nearest_rank(&s, next).1 < MIN_BEYOND, "n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn nearest_rank_and_median() {
        assert_eq!(nearest_rank(&ramp(4), 50.0), (2.0, 2));
        assert_eq!(nearest_rank(&ramp(4), 100.0), (4.0, 0));
        assert_eq!(nearest_rank(&ramp(4), 0.0), (1.0, 3));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
