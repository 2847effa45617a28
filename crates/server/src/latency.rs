//! Bounded latency telemetry: a fixed-bucket log-scale histogram.
//!
//! The scheduler records one latency per session step, forever, so the
//! telemetry must not grow with run length. Each shard keeps one
//! [`LatencyHistogram`] of fixed size; shards merge by adding counts
//! bucket by bucket (the same merge-by-index rule as `exec`), so the
//! merged histogram cannot depend on shard order.

/// Linear sub-buckets per power of two: bucket widths stay within 25% of
/// the values they hold.
const SUB_BITS: u32 = 2;
const SUB: u64 = 1 << SUB_BITS;

/// Buckets: values below [`SUB`] exactly, then [`SUB`] per octave up to
/// `u64::MAX`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB as usize;

/// Counts of nanosecond latencies in fixed log-scale buckets.
///
/// Values `0..4` have a bucket each; above that every power of two
/// `[2^m, 2^(m+1))` splits into four equal-width buckets. The size is
/// fixed whatever is recorded.
/// Read one back with
/// [`DiagnosticsServer::drain_latency_histogram`](crate::DiagnosticsServer::drain_latency_histogram).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// The number of buckets.
    pub const BUCKETS: usize = BUCKETS;

    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
        }
    }

    /// Counts one latency.
    pub(crate) fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
    }

    /// Adds `other`'s counts, bucket by bucket.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// The bucket counts, in ascending bucket order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The number of latencies recorded.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// An upper bound on the `q`-quantile (`q` in `[0, 1]`): the largest
    /// value of the bucket holding the sample of rank `round((n − 1)·q)`
    /// in ascending order. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.total();
        if n == 0 {
            return 0;
        }
        let rank = ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_max(b);
            }
        }
        bucket_max(BUCKETS - 1)
    }

    /// Empties the histogram, returning what it held.
    pub(crate) fn take(&mut self) -> LatencyHistogram {
        core::mem::take(self)
    }
}

fn bucket_of(nanos: u64) -> usize {
    if nanos < SUB {
        return nanos as usize;
    }
    let msb = 63 - nanos.leading_zeros();
    let sub = (nanos >> (msb - SUB_BITS)) & (SUB - 1);
    (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub as usize
}

/// The largest value bucket `b` holds.
fn bucket_max(b: usize) -> u64 {
    if (b as u64) < SUB {
        return b as u64;
    }
    let octave = (b >> SUB_BITS) as u32;
    let sub = b as u64 & (SUB - 1);
    let width = 1u64 << (octave - 1);
    // The lowest value is (SUB + sub)·width; the top bucket ends exactly
    // at u64::MAX.
    (SUB + sub) * width + (width - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_max(BUCKETS - 1), u64::MAX);
        for b in 0..BUCKETS - 1 {
            let top = bucket_max(b);
            assert_eq!(bucket_of(top), b, "bucket {b} ends at {top}");
            assert_eq!(
                bucket_of(top + 1),
                b + 1,
                "bucket {} starts at {}",
                b + 1,
                top + 1
            );
        }
    }

    #[test]
    fn bucket_width_is_within_a_quarter_of_its_values() {
        for b in SUB as usize..BUCKETS {
            let lo = if b == 0 { 0 } else { bucket_max(b - 1) + 1 };
            let hi = bucket_max(b);
            assert!(
                (hi - lo) as f64 <= 0.25 * lo as f64,
                "bucket {b}: [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn merge_is_order_free() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for ns in [0, 5, 700, 12_345, 9_999_999] {
            a.record(ns);
            b.record(ns * 3 + 1);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), 10);
    }

    #[test]
    fn quantiles_bound_the_samples_from_above() {
        let mut h = LatencyHistogram::new();
        let samples: Vec<u64> = (1..=1000).map(|k| k * 997).collect();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let exact = samples[((samples.len() - 1) as f64 * q).round() as usize];
            let bound = h.quantile(q);
            assert!(
                bound >= exact && bound as f64 <= 1.25 * exact as f64,
                "q {q}"
            );
        }
        assert_eq!(LatencyHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn median_is_the_upper_edge_of_its_bucket() {
        let mut h = LatencyHistogram::new();
        for ns in [900, 1_000, 250_000] {
            h.record(ns);
        }
        // 1 000 ns lies in the bucket [896, 1023].
        assert_eq!(h.quantile(0.5), 1_023);
        assert!(h.quantile(1.0) >= 250_000);
    }

    #[test]
    fn take_empties_and_counts_stay_fixed_size() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        assert_eq!(h.counts().len(), LatencyHistogram::BUCKETS);
        assert_eq!(h.take().total(), 1);
        assert_eq!(h.total(), 0);
    }
}
