//! Order statistics for the benchmark: medians over repetitions,
//! quartile spreads over seeds, per-call latency percentiles from a
//! lock-free histogram, and the direction-aware regression test.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter slots per shared counter. Each thread records into its own
/// slot (threads are numbered round-robin), so the worker threads of a
/// sharded run do not contend on one cache line; readers sum the slots.
pub const SLOTS: usize = 8;

/// This thread's counter slot.
pub fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
    }
    SLOT.with(|s| *s)
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three cut points of `values` into quartiles, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method); `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, cut) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread statistic a
/// set of seeded runs is judged by. `None` when undefined (fewer than
/// two values or a zero median).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Whether a metric improves by going down or up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Parses the `better` field of a metric declaration.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Self::Lower),
            "higher" => Some(Self::Higher),
            _ => None,
        }
    }

    /// How much worse `current` is than `baseline`, as a share of
    /// `baseline` (negative = better). `None` for a zero baseline.
    pub fn worsening(self, baseline: f64, current: f64) -> Option<f64> {
        if baseline == 0.0 {
            return None;
        }
        let change = (current - baseline) / baseline.abs();
        Some(match self {
            Self::Lower => change,
            Self::Higher => -change,
        })
    }

    /// Whether `current` is worse than `baseline` by more than `bound`
    /// (a share of `baseline`). A zero baseline regresses on any move in
    /// the bad direction.
    pub fn regressed(self, baseline: f64, current: f64, bound: f64) -> bool {
        match self.worsening(baseline, current) {
            Some(w) => w > bound,
            None => match self {
                Self::Lower => current > baseline,
                Self::Higher => current < baseline,
            },
        }
    }
}

/// Sub-buckets per power of two in [`LatencyHistogram`] (relative bucket
/// width 1/16, so a reported percentile is within ~3% of the truth).
const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
const BUCKETS: usize = 64 * SUB_BUCKETS;

/// A lock-free log-linear histogram of nanosecond latencies. Shared by
/// every instance and worker thread that records into it, so per-call
/// percentiles aggregate across per-shard protocol instances; each
/// thread counts into its own [`SLOTS`] row.
pub struct LatencyHistogram {
    counts: Box<[AtomicU64]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: (0..SLOTS * BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Bucket index of a nanosecond value.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (ns >> shift) as usize & (SUB_BUCKETS - 1);
    ((shift + 1) as usize) * SUB_BUCKETS + sub
}

/// `[low, high)` nanosecond range covered by bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    if b < SUB_BUCKETS {
        return (b as f64, b as f64 + 1.0);
    }
    let shift = (b / SUB_BUCKETS - 1) as i32;
    let sub = (b % SUB_BUCKETS) as f64;
    let width = 2f64.powi(shift);
    let low = (SUB_BUCKETS as f64 + sub) * width;
    (low, low + width)
}

impl LatencyHistogram {
    /// Records one latency.
    pub fn record(&self, ns: u64) {
        self.counts[thread_slot() * BUCKETS + bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-bucket counts summed over the slots.
    fn totals(&self) -> Vec<u64> {
        let mut totals = vec![0; BUCKETS];
        for row in self.counts.chunks(BUCKETS) {
            for (t, c) in totals.iter_mut().zip(row) {
                *t += c.load(Ordering::Relaxed);
            }
        }
        totals
    }

    /// Number of recorded samples.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.totals().iter().sum()
    }

    /// The `q`-quantile in nanoseconds (bucket midpoint), reported only
    /// when at least ten samples lie beyond it — a p99 needs 1000
    /// samples, a p50 needs 20 — see [`has_ten_beyond`].
    pub fn percentile_ns(&self, q: f64) -> Option<f64> {
        let counts = self.totals();
        let n: u64 = counts.iter().sum();
        if !has_ten_beyond(n, q) {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, high) = bucket_range(b);
                return Some((low + high) / 2.0);
            }
        }
        None
    }
}

/// Whether `n` samples leave at least ten beyond the `q`-quantile — the
/// condition under which a high percentile is more than its last few
/// samples.
pub fn has_ten_beyond(n: u64, q: f64) -> bool {
    assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
    n as f64 * (1.0 - q) >= 10.0 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), Some([1.0, 5.0, 9.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(relative_spread(&[2.0; 10]), Some(0.0));
    }

    #[test]
    fn direction_aware_comparison() {
        // Lower is better: a 20% rise is a 0.2 worsening.
        let w = Better::Lower.worsening(10.0, 12.0).unwrap();
        assert!((w - 0.2).abs() < 1e-12);
        assert!(Better::Lower.regressed(10.0, 12.0, 0.1));
        assert!(!Better::Lower.regressed(10.0, 12.0, 0.25));
        assert!(!Better::Lower.regressed(10.0, 5.0, 0.0));
        // Higher is better: a 20% drop is a 0.2 worsening; a rise is not.
        let w = Better::Higher.worsening(10.0, 8.0).unwrap();
        assert!((w - 0.2).abs() < 1e-12);
        assert!(Better::Higher.regressed(10.0, 8.0, 0.1));
        assert!(!Better::Higher.regressed(10.0, 20.0, 0.0));
        // A zero baseline regresses on any move in the bad direction.
        assert!(Better::Lower.regressed(0.0, 0.1, 0.25));
        assert!(!Better::Lower.regressed(0.0, 0.0, 0.25));
        assert!(Better::Higher.regressed(0.0, -0.1, 0.25));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("higher"), Some(Better::Higher));
        assert_eq!(Better::parse("up"), None);
    }

    #[test]
    fn ten_beyond_rule() {
        assert!(!has_ten_beyond(999, 0.99));
        assert!(has_ten_beyond(1000, 0.99));
        assert!(!has_ten_beyond(19, 0.5));
        assert!(has_ten_beyond(20, 0.5));
    }

    #[test]
    fn buckets_cover_values_contiguously() {
        for b in 0..bucket_of(u64::MAX) {
            let (low, high) = bucket_range(b);
            let (next_low, _) = bucket_range(b + 1);
            assert_eq!(high, next_low, "bucket {b} must abut its successor");
            assert_eq!(bucket_of(low as u64), b);
        }
        for ns in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u64::MAX / 3] {
            let (low, high) = bucket_range(bucket_of(ns));
            assert!(
                low <= ns as f64 && (ns as f64) < high,
                "{ns} in [{low}, {high})"
            );
        }
    }

    #[test]
    fn histogram_percentiles_track_the_samples() {
        let h = LatencyHistogram::default();
        for ns in 1..=1000u64 {
            h.record(ns * 1000);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile_ns(0.5).unwrap();
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.04, "p50 = {p50}");
        let p99 = h.percentile_ns(0.99).unwrap();
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.04, "p99 = {p99}");
        // One sample short of ten beyond the p99: not reported.
        let small = LatencyHistogram::default();
        for ns in 0..999 {
            small.record(ns);
        }
        assert_eq!(small.percentile_ns(0.99), None);
        assert!(small.percentile_ns(0.5).is_some());
    }

    #[test]
    fn histogram_sums_samples_from_every_thread() {
        let h = LatencyHistogram::default();
        std::thread::scope(|scope| {
            for _ in 0..SLOTS + 2 {
                scope.spawn(|| (0..500).for_each(|_| h.record(1_000)));
            }
        });
        assert_eq!(h.count(), 500 * (SLOTS as u64 + 2));
        let (low, high) = bucket_range(bucket_of(1_000));
        assert_eq!(h.percentile_ns(0.99), Some((low + high) / 2.0));
    }
}
