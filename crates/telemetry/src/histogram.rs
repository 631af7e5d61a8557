//! Log₂-µs histograms: the atomic [`StageHistogram`] pipeline stages
//! record into, and the plain-data [`HistogramSnapshot`] every reader
//! (and every single-threaded tally) does its math on.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of log₂ buckets: bucket 0 holds sub-µs durations, bucket
/// `i ≥ 1` holds `[2^(i-1), 2^i)` µs, bucket 39 absorbs overflow
/// (≥ 2³⁸ µs, ~76 h — far beyond any realistic latency).
pub const BUCKETS: usize = 40;

pub(crate) fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Whole microseconds of `d`, saturating at `u64::MAX`.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A lock-free histogram of stage durations, recorded in microseconds.
///
/// Writers are pipeline stages (one relaxed fetch-add per bucket plus
/// count/sum bookkeeping); readers take a [`snapshot`] and do all math
/// on the plain-data copy. A snapshot taken while writers are active
/// may be mid-observation skewed by a few events — acceptable for a
/// live stats scrape, never for correctness.
///
/// [`snapshot`]: StageHistogram::snapshot
pub struct StageHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl StageHistogram {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Records one duration in microseconds, if telemetry is enabled.
    #[inline]
    pub fn record_us(&self, us: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one [`Duration`], if telemetry is enabled.
    #[inline]
    pub fn record(&self, d: Duration) {
        if !crate::enabled() {
            return;
        }
        self.record_us(micros(d));
    }

    /// Starts a span over this stage: the returned guard records the
    /// elapsed time into the histogram when dropped. When telemetry is
    /// disabled at span start, the guard is inert (no clock read at
    /// either end).
    #[inline]
    pub fn span(&'static self) -> SpanGuard {
        SpanGuard {
            hist: self,
            start: crate::enabled().then(Instant::now),
        }
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
    }
}

/// Drop-guard returned by [`StageHistogram::span`]; records the span's
/// elapsed wall-clock on drop.
pub struct SpanGuard {
    hist: &'static StageHistogram,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record_us(micros(start.elapsed()));
        }
    }
}

/// A plain-data log₂-µs histogram: subtractable, mergeable,
/// percentile-extractable.
///
/// It is both the copy a [`StageHistogram::snapshot`] hands to readers
/// and the single-owner accumulator for per-query latencies (the
/// service's queue-wait and latency metrics, a load client's tally):
/// [`record`](Self::record) is O(1) into a fixed 40-counter array, so
/// every query can be recorded without a reservoir or allocation.
/// Percentiles interpolate linearly inside the bucket holding the
/// requested rank — exact to within the 2× bucket resolution, the
/// right precision for a p50/p90/p99 summary — and
/// [`delta`](Self::delta) turns two cumulative states into a
/// per-window histogram for interval stats.
///
/// # Examples
///
/// ```
/// use sc_telemetry::HistogramSnapshot;
/// use std::time::Duration;
///
/// let mut h = HistogramSnapshot::default();
/// for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count, 10);
/// assert!(h.percentile_us(50.0) < 3_000);
/// assert!(h.percentile_us(99.0) >= 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (log₂-µs layout, see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations in microseconds (saturating).
    pub sum_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one observation.
    pub fn record(&mut self, d: Duration) {
        let us = micros(d);
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }

    /// The observations recorded since `earlier` was taken: `self`
    /// minus `earlier`, bucket-wise (saturating, so a reset between
    /// the two snapshots degrades to the later snapshot rather than
    /// wrapping).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
        }
    }

    /// The `p`-th percentile (`0 < p ≤ 100`) in microseconds, linearly
    /// interpolated inside the terminal bucket: the rank's position
    /// within its bucket maps proportionally between the bucket's lower
    /// and upper edge (a rank at the very end of a bucket lands exactly
    /// on the upper edge). Zero on an empty snapshot.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = 1u64 << i;
                let within = rank - seen; // 1..=c
                return lower + ((upper - lower) * within).div_ceil(c);
            }
            seen += c;
        }
        1u64 << (BUCKETS - 1)
    }

    /// Mean of the recorded durations in microseconds (exact, not
    /// bucketed).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// One-line `p50/p90/p99 (mean, n)` summary in milliseconds.
    pub fn summary(&self) -> String {
        format!(
            "p50≤{:.1}ms p90≤{:.1}ms p99≤{:.1}ms (mean {:.1}ms, n={})",
            self.percentile_us(50.0) as f64 / 1e3,
            self.percentile_us(90.0) as f64 / 1e3,
            self.percentile_us(99.0) as f64 / 1e3,
            self.mean_us() as f64 / 1e3,
            self.count,
        )
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

type Registry = Mutex<BTreeMap<&'static str, &'static StageHistogram>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Returns the process-wide stage histogram named `name`, registering
/// it on first use. Like [`counter`](crate::counter), look it up once
/// and keep the `'static` reference.
pub fn stage(name: &'static str) -> &'static StageHistogram {
    let mut map = registry().lock().expect("telemetry stage registry");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(StageHistogram::new())))
}

/// Every registered stage as `(name, snapshot)`, name-sorted.
pub fn registered_stages() -> Vec<(&'static str, HistogramSnapshot)> {
    let map = registry().lock().expect("telemetry stage registry");
    map.iter().map(|(&name, h)| (name, h.snapshot())).collect()
}

pub(crate) fn reset_all() {
    let map = registry().lock().expect("telemetry stage registry");
    for h in map.values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_and_interpolated_percentiles() {
        let _g = crate::test_guard();
        let was = crate::enabled();
        crate::set_enabled(true);
        let h = stage("test_stage");
        h.reset();
        for _ in 0..3 {
            h.record_us(10); // bucket [8, 16)
        }
        let early = h.snapshot();
        h.record_us(12);
        h.record_us(50_000); // bucket [32768, 65536)
        let late = h.snapshot();
        let window = late.delta(&early);
        assert_eq!(window.count, 2);
        assert_eq!(window.sum_us, 50_012);
        // p50 of the window: the sole observation of bucket [8, 16)
        // interpolates to its upper edge.
        assert_eq!(window.percentile_us(50.0), 16);
        // p100 lands on the terminal bucket's upper edge.
        assert_eq!(window.percentile_us(100.0), 65_536);
        h.reset();
        crate::set_enabled(was);
    }

    #[test]
    fn percentiles_interpolate_inside_a_bucket() {
        let mut s = HistogramSnapshot::default();
        s.buckets[4] = 4; // four observations in [8, 16) µs
        s.count = 4;
        s.sum_us = 40;
        // Ranks 1..=4 spread proportionally across the bucket.
        assert_eq!(s.percentile_us(25.0), 10);
        assert_eq!(s.percentile_us(50.0), 12);
        assert_eq!(s.percentile_us(75.0), 14);
        assert_eq!(s.percentile_us(100.0), 16);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let _g = crate::test_guard();
        let was = crate::enabled();
        crate::set_enabled(true);
        let h = stage("test_span_stage");
        h.reset();
        let before = h.snapshot().count;
        {
            let _g = h.span();
        }
        assert_eq!(h.snapshot().count, before + 1);

        crate::set_enabled(false);
        {
            let _g = h.span();
        }
        assert_eq!(h.snapshot().count, before + 1, "disabled span is inert");
        crate::set_enabled(true);
        h.reset();
        crate::set_enabled(was);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.percentile_us(99.0), 0);
        assert_eq!(s.mean_us(), 0);
    }

    #[test]
    fn buckets_are_log2_in_microseconds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // A duration past u64::MAX µs lands in the overflow bucket and
        // saturates the sum instead of wrapping it.
        let mut h = HistogramSnapshot::default();
        h.record(Duration::MAX);
        h.record(Duration::from_micros(1));
        assert_eq!(h.buckets[BUCKETS - 1], 1);
        assert_eq!(h.sum_us, u64::MAX);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = HistogramSnapshot::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket [8, 16)
        }
        h.record(Duration::from_millis(50)); // bucket [32768, 65536) µs
        assert_eq!(h.count, 100);
        // Rank 50 of the 99 observations in [8, 16) interpolates to
        // 8 + ceil(8·50/99) = 13; rank 99 lands on the upper edge.
        assert_eq!(h.percentile_us(50.0), 13);
        assert_eq!(h.percentile_us(99.0), 16);
        assert_eq!(h.percentile_us(100.0), 65_536);
    }

    #[test]
    fn delta_reports_the_window_only() {
        let mut h = HistogramSnapshot::default();
        for _ in 0..50 {
            h.record(Duration::from_millis(30)); // slow warm-up phase
        }
        let earlier = h;
        for _ in 0..50 {
            h.record(Duration::from_micros(10)); // fast steady state
        }
        // The cumulative p90 still remembers the warm-up…
        assert!(h.percentile_us(90.0) >= 16_000);
        // …the window does not.
        let window = h.delta(&earlier);
        assert_eq!(window.count, 50);
        assert_eq!(window.mean_us(), 10);
        assert!(window.percentile_us(99.0) <= 16);
        // Delta against an unchanged state is empty.
        assert_eq!(h.delta(&h).count, 0);
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        a.record(Duration::from_micros(3));
        b.record(Duration::from_micros(5));
        b.record(Duration::from_micros(7));
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.mean_us(), 5);
        assert_eq!(a.buckets[2] + a.buckets[3], 3);
    }

    #[test]
    fn summary_mentions_all_percentiles() {
        let mut h = HistogramSnapshot::default();
        h.record(Duration::from_millis(2));
        let s = h.summary();
        assert!(s.contains("p50") && s.contains("p90") && s.contains("p99"));
        assert_eq!(s, "p50≤2.0ms p90≤2.0ms p99≤2.0ms (mean 2.0ms, n=1)");
        assert_eq!(h.to_string(), s);
    }
}
