//! Order statistics over timing samples, and the tail-percentile rule.
//!
//! Percentiles use the nearest-rank definition on integer percents, so a
//! percentile's rank — and therefore how many samples lie beyond it — is
//! exact integer arithmetic, never a float rounding question.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [u32; 4] = [99, 90, 75, 50];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` among `n` samples:
/// `ceil(pct · n / 100)`, at least 1.
pub fn rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// Samples strictly beyond the percentile's rank.
pub fn beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER.into_iter().find(|&pct| beyond(n, pct) >= MIN_BEYOND)
}

/// The smallest sample count at which `pct` has [`MIN_BEYOND`] samples
/// beyond it.
pub fn min_samples_for(pct: u32) -> usize {
    (1..).find(|&n| beyond(n, pct) >= MIN_BEYOND).expect("some count qualifies")
}

/// Nearest-rank percentile; `0.0` for no samples.
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    sorted[rank(sorted.len(), pct) - 1]
}

/// The median (mean of the middle pair for an even count); `0.0` for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let sorted = sorted(samples);
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The largest sample; `0.0` for no samples.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
