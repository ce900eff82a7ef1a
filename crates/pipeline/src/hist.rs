//! Lock-free log-bucketed latency histograms (HDR-style, hand-rolled).
//!
//! A [`LatencyHistogram`] records per-operation service latencies into a
//! fixed array of [`AtomicU64`] buckets, so many worker threads (or many
//! connections) can record concurrently with nothing but relaxed atomic
//! adds — no locks, no allocation after construction.  Histograms with the
//! same (fixed) bucket layout merge by bucket-wise addition, which is what
//! lets per-connection or per-worker histograms roll up into one server-wide
//! view without losing information.
//!
//! # Bucket layout
//!
//! The layout is the classic exponent/mantissa split: values below
//! 2^[`SUB_BITS`] nanoseconds get one exact bucket each, and every power-of-
//! two octave above that is divided into 2^[`SUB_BITS`] linear sub-buckets.
//! With `SUB_BITS = 4` that bounds the relative quantisation error of any
//! recorded value by 1/16 (6.25%), which is far below the run-to-run noise
//! of any real latency distribution, while keeping the whole histogram at
//! [`BUCKET_COUNT`] (= 720) buckets — small enough to sit in a server's
//! shared stats block.  The top bucket absorbs overflow (values beyond
//! ~2^48 ns ≈ 3 days), so recording can never index out of bounds.
//!
//! Quantiles are answered by walking the cumulative counts to the target
//! rank and returning that bucket's lower bound; the estimate therefore
//! never exceeds the true value and sits within one bucket (≤ 6.25%
//! relative) below it — the same one-sided guarantee HDR histograms give.
//!
//! # Example
//!
//! ```
//! use iqft_pipeline::LatencyHistogram;
//! use std::time::Duration;
//!
//! let hist = LatencyHistogram::new();
//! for ms in [1u64, 2, 3, 40] {
//!     hist.record(Duration::from_millis(ms));
//! }
//! let summary = hist.summary();
//! assert_eq!(summary.count, 4);
//! assert!(summary.p50_ns >= 1_000_000 && summary.p50_ns <= 2_000_000);
//! assert!(summary.max_ns == 40_000_000);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear buckets, bounding relative error by `2^-SUB_BITS`.
pub(crate) const SUB_BITS: u32 = 4;

/// Sub-buckets per octave (`2^SUB_BITS`).
const SUBS: usize = 1 << SUB_BITS;

/// Octaves tracked above the exact range; the top bucket absorbs overflow.
const OCTAVES: usize = 44;

/// Total number of buckets in the fixed layout.
pub(crate) const BUCKET_COUNT: usize = SUBS * (OCTAVES + 1);

/// A fixed-layout, lock-free, mergeable latency histogram (see the module
/// docs for the bucket layout).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram (one allocation; recording never
    /// allocates).
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// The bucket index a value in nanoseconds falls into.
    ///
    /// Values below `2^SUB_BITS` map to their own exact bucket; larger
    /// values map to `(octave, sub-bucket)` pairs; values beyond the layout
    /// clamp into the top bucket.
    pub(crate) fn bucket_index(nanos: u64) -> usize {
        if nanos < SUBS as u64 {
            return nanos as usize;
        }
        let msb = 63 - u64::from(nanos.leading_zeros());
        let shift = msb - u64::from(SUB_BITS);
        let octave = shift as usize;
        let sub = ((nanos >> shift) & (SUBS as u64 - 1)) as usize;
        ((octave + 1) * SUBS + sub).min(BUCKET_COUNT - 1)
    }

    /// The smallest value (nanoseconds) that maps into bucket `index` — the
    /// inverse of [`LatencyHistogram::bucket_index`] on bucket lower bounds.
    pub(crate) fn bucket_floor(index: usize) -> u64 {
        if index < SUBS {
            index as u64
        } else {
            let octave = index / SUBS - 1;
            let sub = index % SUBS;
            ((SUBS + sub) as u64) << octave
        }
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        self.record_nanos(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one latency sample given in nanoseconds.
    pub(crate) fn record_nanos(&self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The largest sample recorded, exact (not bucket-quantised).
    pub(crate) fn max_nanos(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// The latency (nanoseconds) at quantile `q` in `0.0..=1.0`: the lower
    /// bound of the bucket holding the sample of rank `ceil(q · count)`.
    /// Returns 0 for an empty histogram.
    pub(crate) fn value_at_quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_floor(idx);
            }
        }
        // Counts raced upward between the count() load and the walk; the
        // highest non-empty bucket is still the right answer.
        self.max_nanos()
    }

    /// Snapshots the headline percentiles into a plain value type.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            p50_ns: self.value_at_quantile(0.50),
            p90_ns: self.value_at_quantile(0.90),
            p99_ns: self.value_at_quantile(0.99),
            p999_ns: self.value_at_quantile(0.999),
            max_ns: self.max_nanos(),
        }
    }
}

/// A point-in-time percentile summary of a [`LatencyHistogram`] — the plain
/// (non-atomic) value that travels in reports and stats snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median service latency, nanoseconds (bucket lower bound).
    pub p50_ns: u64,
    /// 90th-percentile service latency, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile service latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile service latency, nanoseconds.
    pub p999_ns: u64,
    /// Largest recorded latency, nanoseconds (exact).
    pub max_ns: u64,
}

impl LatencySummary {
    /// Renders a percentile in milliseconds (for human-readable reports).
    pub fn ms(nanos: u64) -> f64 {
        nanos as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* stream for percentile cross-checks.
    struct XorShift(u64);

    impl XorShift {
        fn new(seed: u64) -> Self {
            Self(seed | 1)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn bucket_boundaries_are_exact_and_contiguous() {
        // The exact range: one bucket per value.
        for v in 0..SUBS as u64 {
            assert_eq!(LatencyHistogram::bucket_index(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_floor(v as usize), v);
        }
        // Every bucket's floor maps back to that bucket, and the value just
        // below the next floor still maps to this bucket: boundaries are
        // exact with no gaps and no overlaps.
        for idx in 0..BUCKET_COUNT - 1 {
            let floor = LatencyHistogram::bucket_floor(idx);
            let next = LatencyHistogram::bucket_floor(idx + 1);
            assert!(next > floor, "bucket {idx} floors must increase");
            assert_eq!(LatencyHistogram::bucket_index(floor), idx, "floor of {idx}");
            assert_eq!(
                LatencyHistogram::bucket_index(next - 1),
                idx,
                "last value of bucket {idx}"
            );
            assert_eq!(LatencyHistogram::bucket_index(next), idx + 1);
        }
        // Power-of-two edges land exactly on a fresh sub-bucket.
        assert_eq!(LatencyHistogram::bucket_index(16), SUBS);
        assert_eq!(LatencyHistogram::bucket_index(32), 2 * SUBS);
        // Overflow clamps into the top bucket instead of indexing out.
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn relative_quantisation_error_is_bounded() {
        let mut rng = XorShift::new(9);
        for _ in 0..10_000 {
            // Any magnitude inside the tracked range (beyond it, the top
            // bucket clamps and the error bound intentionally no longer
            // holds).
            let v = (rng.next() >> 17) >> (rng.next() % 40);
            let floor = LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(v));
            assert!(floor <= v, "floor never exceeds the sample");
            let err = (v - floor) as f64 / (v.max(1)) as f64;
            assert!(err <= 1.0 / SUBS as f64 + 1e-12, "value {v}: error {err}");
        }
    }

    #[test]
    fn percentiles_match_a_brute_force_sorted_reference() {
        for seed in [3u64, 17, 991] {
            let mut rng = XorShift::new(seed);
            let hist = LatencyHistogram::new();
            // A heavy-tailed latency-like distribution spanning ~6 decades.
            let samples: Vec<u64> = (0..5_000)
                .map(|_| 1_000 + (rng.next() % 1_000_000_000) / (1 + rng.next() % 997))
                .collect();
            for &s in &samples {
                hist.record_nanos(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let truth = sorted[rank - 1];
                let got = hist.value_at_quantile(q);
                // The histogram answers with the truth's own bucket.
                assert_eq!(
                    LatencyHistogram::bucket_index(got),
                    LatencyHistogram::bucket_index(truth),
                    "seed {seed} q {q}: got {got}, truth {truth}"
                );
                assert!(got <= truth, "one-sided: got {got} > truth {truth}");
            }
            assert_eq!(hist.max_nanos(), *sorted.last().unwrap(), "max is exact");
            assert_eq!(hist.count(), 5_000);
        }
    }

    #[test]
    fn empty_and_degenerate_histograms_answer_zero() {
        let hist = LatencyHistogram::new();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.value_at_quantile(0.5), 0);
        assert_eq!(hist.summary(), LatencySummary::default());
        hist.record_nanos(0);
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.value_at_quantile(0.999), 0);
        assert_eq!(hist.max_nanos(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let hist = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let hist = &hist;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        hist.record_nanos(t * 1_000_000 + i);
                    }
                });
            }
        });
        assert_eq!(hist.count(), 40_000);
        assert_eq!(hist.max_nanos(), 3 * 1_000_000 + 9_999);
    }

    #[test]
    fn summary_renders_milliseconds() {
        assert!((LatencySummary::ms(1_500_000) - 1.5).abs() < 1e-12);
    }
}
