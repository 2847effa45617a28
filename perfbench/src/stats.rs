//! Order statistics used by every metric: medians, nearest-rank
//! percentiles and the tail-percentile rule.

/// Percentiles the tail metric may report, highest last.
pub const TAIL_CANDIDATES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly beyond a percentile before it may be
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Latency samples per group: within a group of 100 the tail is the p90.
pub const LATENCY_GROUP: usize = 100;

/// Index of the nearest-rank `p`-th percentile in a sorted slice of `n`.
fn rank_index(n: usize, p: f64) -> usize {
    // Shave the rounding error off `p · n / 100` before taking the
    // ceiling: 99.9 % of 10 000 is rank 9 990, not 9 991.
    let exact = p * n as f64 / 100.0;
    let rank = (exact - exact * 1e-12).ceil() as usize;
    rank.clamp(1, n.max(1)) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// The nearest-rank `p`-th percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank_index(sorted.len(), p)]
}

/// The median of an ascending slice (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Sorts a copy and returns its median.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median and tail of a latency sample, in the sample's unit.
///
/// The samples are cut, in the order they were taken, into groups of a
/// fixed size (a short remainder joins the last group). Within each
/// group the tail is the highest percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; the reported median and tail
/// are the medians over groups, so a burst of interference from outside
/// the program moves a few groups, not the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples summarised.
    pub count: usize,
    /// Groups the samples were cut into.
    pub groups: usize,
    /// Samples in the smallest group.
    pub group_min: usize,
    /// Median over groups of each group's median.
    pub p50: f64,
    /// The tail percentile: [`tail_percentile`] of the smallest group.
    pub tail_pct: f64,
    /// Median over groups of each group's value at `tail_pct`.
    pub tail: f64,
}

impl Latency {
    /// Summarises `samples` in groups of `group`; `None` when a group is
    /// too small for a tail.
    pub fn grouped(samples: &[f64], group: usize) -> Option<Latency> {
        let group = group.max(1);
        let mut groups: Vec<Vec<f64>> = samples.chunks(group).map(<[f64]>::to_vec).collect();
        if groups.len() > 1 && groups.last().is_some_and(|g| g.len() < group) {
            let rest = groups.pop().expect("more than one group");
            groups.last_mut().expect("at least one group").extend(rest);
        }
        for g in &mut groups {
            g.sort_by(f64::total_cmp);
        }
        let group_min = groups.iter().map(Vec::len).min().unwrap_or(0);
        let tail_pct = tail_percentile(group_min)?;
        let p50s: Vec<f64> = groups.iter().map(|g| median(g)).collect();
        let tails: Vec<f64> = groups.iter().map(|g| percentile(g, tail_pct)).collect();
        Some(Latency {
            count: samples.len(),
            groups: groups.len(),
            group_min,
            p50: median_of(&p50s),
            tail_pct,
            tail: median_of(&tails),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // Below 20 samples not even the median has 10 beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p90 of 100 is rank 90: exactly 10 beyond.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
        for n in 20..5_000 {
            let p = tail_percentile(n).expect("n >= 20 has a tail");
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            let higher = TAIL_CANDIDATES.iter().find(|&&q| q > p);
            if let Some(&q) = higher {
                assert!(beyond(n, q) < TAIL_MIN_BEYOND, "n={n} skipped p{q}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        let l = Latency::grouped(&v, 1000).expect("100 samples");
        assert_eq!(
            (l.count, l.groups, l.tail_pct, l.tail),
            (100, 1, 90.0, 90.0)
        );
    }

    #[test]
    fn grouped_latency_takes_the_median_over_groups() {
        // Three groups of 100 samples; the middle one is a burst of
        // interference 10x slower.
        let group = |scale: f64| (1..=100).map(move |x| f64::from(x) * scale);
        let samples: Vec<f64> = group(1.0).chain(group(10.0)).chain(group(1.0)).collect();
        let l = Latency::grouped(&samples, 100).expect("three groups");
        assert_eq!(
            (l.count, l.groups, l.group_min, l.tail_pct),
            (300, 3, 100, 90.0)
        );
        assert_eq!((l.p50, l.tail), (50.5, 90.0));
        // A short remainder joins the last group rather than forming its own.
        let samples: Vec<f64> = group(1.0).chain(group(1.0)).chain([5.0; 30]).collect();
        let l = Latency::grouped(&samples, 100).expect("two groups");
        assert_eq!((l.groups, l.group_min), (2, 100));
        // Too few samples for a tail.
        assert_eq!(Latency::grouped(&[1.0; 10], 100), None);
    }
}
