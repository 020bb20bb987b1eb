//! Summary statistics for timing samples.
//!
//! A timing is reported as its median plus a tail percentile. The tail
//! rule: report the highest of the standard levels (99.9, 99, 90, 50)
//! that still leaves at least ten samples beyond it, so a tail figure is
//! never one or two outliers.

/// Standard tail levels, highest first, as exact fractions `num / den`.
const LEVELS: [(usize, usize); 4] = [(999, 1000), (99, 100), (9, 10), (1, 2)];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based rank `ceil(n * num / den)`) of a level.
fn rank(n: usize, num: usize, den: usize) -> usize {
    (n * num).div_ceil(den)
}

/// The highest standard level with at least [`MIN_BEYOND`] of `n` samples
/// beyond its nearest-rank percentile, or `None` when even the median
/// leaves fewer.
pub fn tail_level(n: usize) -> Option<f64> {
    LEVELS
        .iter()
        .find(|&&(num, den)| n - rank(n, num, den) >= MIN_BEYOND)
        .map(|&(num, den)| num as f64 / den as f64)
}

/// The exact fraction of a standard level (or of `1.0`, the maximum).
fn fraction(level: f64) -> (usize, usize) {
    LEVELS
        .iter()
        .copied()
        .chain([(1, 1)])
        .find(|&(num, den)| (num as f64 / den as f64 - level).abs() < 1e-12)
        .expect("percentile levels are 0.5, 0.9, 0.99, 0.999 or 1.0")
}

/// Nearest-rank percentile of ascending `sorted` at a standard `level`.
pub fn percentile(sorted: &[f64], level: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let (num, den) = fraction(level);
    sorted[rank(sorted.len(), num, den).max(1) - 1]
}

/// Median: the middle sample, or the mean of the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `pct`-th percentile: the value at rank
/// `ceil(n * pct / 100)`, and the smallest value when that rank is below
/// one.
pub fn low_percentile(values: &[f64], pct: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() * pct).div_ceil(100).max(1) - 1]
}

/// The quiet profile of repeated work: for every position (a round's or a
/// window's index within one repetition), the low `pct`-th percentile of
/// the values the repetitions hold there. Repetitions run at different
/// moments, so each position's figure comes from moments when the shared
/// host interfered least, and positions whose work differs (a growing
/// history, a checkpoint round, the replay buffer's warm-up) are compared
/// only with themselves. Positions beyond the shortest repetition are
/// left out.
pub fn quiet_profile(reps: &[Vec<f64>], pct: usize) -> Vec<f64> {
    let positions = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..positions)
        .map(|p| low_percentile(&reps.iter().map(|r| r[p]).collect::<Vec<_>>(), pct))
        .collect()
}

/// A timing summary: median, a tail percentile and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub median: f64,
    /// The percentile at `tail_level`.
    pub tail: f64,
    /// The tail level used (fraction, e.g. `0.99`).
    pub tail_level: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values` with the tail at `level`; `None` when there are
    /// no samples. Callers that name a fixed level check [`beyond`] first.
    pub fn at(values: &[f64], level: f64) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            median: median(&sorted),
            tail: percentile(&sorted, level),
            tail_level: level,
            n: sorted.len(),
        })
    }

    /// Summarises `values` with the tail at the highest level the rule
    /// allows (the median when there are too few samples for any tail).
    pub fn of(values: &[f64]) -> Option<Self> {
        Self::at(values, tail_level(values.len()).unwrap_or(0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples beyond the nearest-rank percentile at a standard `level`.
    fn beyond(n: usize, level: f64) -> usize {
        let (num, den) = fraction(level);
        n - rank(n, num, den)
    }

    #[test]
    fn tail_level_leaves_ten_samples_beyond() {
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(9_999), Some(0.99));
        assert_eq!(tail_level(1_000), Some(0.99));
        assert_eq!(tail_level(999), Some(0.9));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(99), Some(0.5));
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(0), None);
        for n in [20, 99, 100, 999, 1_000, 5_000, 10_000, 123_457] {
            let level = tail_level(n).unwrap();
            assert!(beyond(n, level) >= MIN_BEYOND, "n={n} level={level}");
        }
    }

    #[test]
    fn beyond_counts_samples_past_the_nearest_rank() {
        assert_eq!(beyond(1_000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1_500, 0.99), 15);
        assert_eq!(beyond(11, 0.5), 5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn low_percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(low_percentile(&v, 10), 3.0);
        assert_eq!(low_percentile(&v[..20], 10), 12.0);
        assert_eq!(low_percentile(&v[..20], 25), 15.0);
        assert_eq!(low_percentile(&[9.0, 1.5, 5.0, 3.0, 7.0], 10), 1.5);
        assert_eq!(low_percentile(&[9.0, 1.5, 5.0, 3.0, 7.0], 25), 3.0);
        assert_eq!(low_percentile(&[5.0], 25), 5.0);
    }

    #[test]
    fn quiet_profile_compares_each_position_with_itself() {
        // Position 1 costs ten times position 0. Eleven repetitions: the
        // 10th percentile is the second smallest value at each position
        // (the 25th the third), so the one disturbed repetition (the
        // last) never sets it, and the one exceptionally quick value
        // (position 0 of the first) does not either.
        let mut reps: Vec<Vec<f64>> = (0..10)
            .map(|k| vec![1.0 + 0.1 * f64::from(k), 10.0 + f64::from(k), 5.0])
            .collect();
        reps[0][0] = 0.5;
        reps.push(vec![3.0, 30.0]);
        assert_eq!(quiet_profile(&reps, 10), vec![1.1, 11.0]);
        assert_eq!(quiet_profile(&reps, 25), vec![1.2, 12.0]);
        assert!(quiet_profile(&[], 10).is_empty());
    }

    #[test]
    fn summary_of_uses_the_rule_and_counts_samples() {
        let v: Vec<f64> = (0..1_000).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.tail_level, s.n, s.tail), (0.99, 1_000, 989.0));
        assert_eq!(s.median, 499.5);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[1.0, 2.0]).unwrap().tail_level, 0.5);
    }
}
