//! Log-linear duration histograms.
//!
//! The server (`mayad`) answers `stats` requests with per-request latency
//! percentiles. Each power-of-two octave is split into 16 equal
//! sub-buckets, so a bucket is at most 1/16 of its lower bound wide, and
//! a percentile interpolated inside its bucket lies within 6.25% of the
//! exact order statistic. Values below 16 get a bucket each. Only the
//! window of buckets between the lowest and the highest sample is stored,
//! allocated on the first sample: a histogram with one sample holds one
//! counter, which keeps the one a telemetry session starts per request
//! cheap to create and to merge.

use std::fmt::Write as _;

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// A histogram of non-negative integer samples (nanoseconds, by
/// convention). Exact count/sum/min/max are tracked alongside the buckets
/// so means and extremes are not bucket-quantized.
#[derive(Clone)]
pub struct Histogram {
    /// Index of the bucket `counts[0]` counts.
    first: usize,
    /// Counts of the buckets `first..first + counts.len()`.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(count={}, min={}, max={}, p50={})",
            self.count,
            self.min(),
            self.max(),
            self.percentile(50.0)
        )
    }
}

/// The bucket index of a sample: the value itself below 16; above, 16
/// buckets per octave, indexed by the octave and the four bits after the
/// leading one.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = (v >> (octave - SUB_BITS)) as usize & (SUB - 1);
    SUB + (octave - SUB_BITS) as usize * SUB + sub
}

/// The half-open value range `[lo, hi)` of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64 + 1);
    }
    let octave = ((i - SUB) / SUB) as u32 + SUB_BITS;
    let width = 1u64 << (octave - SUB_BITS);
    let lo = (1u64 << octave) + ((i - SUB) % SUB) as u64 * width;
    (lo, lo.saturating_add(width))
}

impl Histogram {
    /// An empty histogram (allocates nothing).
    pub fn new() -> Histogram {
        Histogram {
            first: 0,
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Widens the stored window to cover buckets `lo..=hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.first = lo;
        } else if lo < self.first {
            let grow = self.first - lo;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = lo;
        }
        let len = hi + 1 - self.first;
        if self.counts.len() < len {
            self.counts.resize(len, 0);
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let i = bucket_of(v);
        self.cover(i, i);
        self.counts[i - self.first] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.is_empty() {
            return;
        }
        self.cover(other.first, other.first + other.counts.len() - 1);
        let at = other.first - self.first;
        for (a, b) in self.counts[at..].iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0–100), estimated by linear interpolation
    /// inside the winning bucket and clamped to the observed min/max.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let (lo, hi) = bucket_range(self.first + i);
                let into = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                let est = lo as f64 + into * (hi - lo) as f64;
                return (est as u64).clamp(self.min(), self.max);
            }
            seen += n;
        }
        self.max
    }

    /// The non-empty buckets as `(lo, hi, count)` triples, low to high
    /// (`[lo, hi)` half-open value ranges).
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_range(self.first + i);
                (lo, hi, n)
            })
            .collect()
    }

    /// A one-line human summary (`count`, mean, p50/p95/p99, max), with
    /// nanosecond samples rendered as durations.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count,
            crate::fmt_duration(self.mean() as u64),
            crate::fmt_duration(self.percentile(50.0)),
            crate::fmt_duration(self.percentile(95.0)),
            crate::fmt_duration(self.percentile(99.0)),
            crate::fmt_duration(self.max())
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn percentiles_are_monotonic_and_bounded() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 100, 1000, 5000, 100_000] {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 >= h.min() && p99 <= h.max());
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn merge_equals_recording_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [5u64, 9, 17, 33] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 1000, 70] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.buckets(), all.buckets());
    }

    #[test]
    fn buckets_tile_the_value_range() {
        for v in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let (lo, hi) = bucket_range(bucket_of(v));
            assert!(lo <= v && (v < hi || hi == u64::MAX), "{v} in [{lo}, {hi})");
            assert!(
                hi - lo <= lo.max(16) / 16,
                "{v}: bucket [{lo}, {hi}) too wide"
            );
        }
        for i in 1..bucket_of(u64::MAX) {
            assert_eq!(
                bucket_range(i - 1).1,
                bucket_range(i).0,
                "gap before bucket {i}"
            );
        }
    }

    #[test]
    fn percentiles_stay_within_a_sixteenth_of_the_exact_order_statistic() {
        // A skewed latency-like sample: most requests between 2.1 and
        // 4.2 ms, a slower tail out to 60 ms.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut samples: Vec<u64> = (0..4001)
            .map(|i| {
                let r = next();
                if i % 8 == 0 {
                    4_200_000 + r % 56_000_000
                } else {
                    2_100_000 + r % 2_100_000
                }
            })
            .collect();
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
            let exact = samples[rank - 1] as f64;
            let est = h.percentile(p) as f64;
            assert!(
                (est - exact).abs() <= exact / 16.0,
                "p{p}: estimated {est}, exact {exact}"
            );
        }
    }

    #[test]
    fn one_sample_holds_one_bucket() {
        let mut h = Histogram::new();
        h.record(3_300_000);
        assert_eq!(h.counts.len(), 1);
        let mut merged = Histogram::new();
        merged.merge(&h);
        merged.merge(&Histogram::new());
        assert_eq!(merged.counts.len(), 1);
        assert_eq!(merged.percentile(50.0), 3_300_000);
    }

    #[test]
    fn buckets_cover_samples() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(7);
        h.record(8);
        let buckets = h.buckets();
        let total: u64 = buckets.iter().map(|(_, _, n)| n).sum();
        assert_eq!(total, 4);
        for (lo, hi, _) in buckets {
            assert!(lo < hi);
        }
    }
}
