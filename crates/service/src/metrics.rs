//! Aggregate service counters and per-query latency histograms.

use sc_telemetry::HistogramSnapshot;
use std::time::Duration;

/// Aggregate counters of one service run.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Physical scans of the repository the service actually performed
    /// — the number scan sharing is measured against (compare with the
    /// sum of per-query `logical_passes`).
    pub physical_scans: usize,
    /// Queries completed (cache hits included).
    pub queries_completed: usize,
    /// Largest number of queries concurrently inside scan epochs.
    pub max_inflight_seen: usize,
    /// Queries admitted as fresh jobs — the units that actually pay
    /// per-scan CPU. `queries_completed = jobs + cache_hits +
    /// coalesced` once a run drains.
    pub jobs: usize,
    /// Queries admitted into a scan already in flight (pass-aligned
    /// mid-stream admission) instead of waiting for the next epoch.
    pub mid_stream_admissions: usize,
    /// The subset of [`mid_stream_admissions`] spliced into a *later*
    /// pass of an in-flight epoch group (the group's scan index was ≥ 2
    /// when the joiner's first pass rode it) — the joins only per-pass
    /// alignment makes possible; a pass-1-only scheduler would have
    /// made these queries wait for the next epoch boundary.
    ///
    /// [`mid_stream_admissions`]: ServiceMetrics::mid_stream_admissions
    pub aligned_joins: usize,
    /// Repository hot swaps the scheduler performed
    /// ([`ServiceHandle::reload`](crate::ServiceHandle::reload) /
    /// the `!reload` protocol line).
    pub reloads: usize,
    /// Outcome-cache entries evicted during this run, all causes
    /// (the LRU capacity bound plus generation reaping).
    pub evictions: usize,
    /// Entries the cache's capacity bound evicted (least recently used
    /// first).
    pub capacity_evictions: usize,
    /// Entries reaped because their repository generation died in a
    /// hot swap ([`OutcomeCache::evict_fingerprint`](crate::OutcomeCache::evict_fingerprint)).
    pub reload_evictions: usize,
    /// Queries answered from the outcome cache in zero physical scans.
    pub cache_hits: usize,
    /// Queries that missed the cache and became their own jobs
    /// (coalesced followers are counted in
    /// [`coalesced`](ServiceMetrics::coalesced), not here).
    pub cache_misses: usize,
    /// Queries that coalesced onto an identical in-flight job
    /// ([`ServiceConfig::coalesce`](crate::ServiceConfig)): they ride
    /// that job's scans and CPU, and its retirement fans one reply out
    /// per follower.
    pub coalesced: usize,
    /// `(tenant, shard)` work units absorbed through the shard-granular
    /// interleaved fan-out
    /// ([`InterleaveMode::Shard`](crate::InterleaveMode)). Zero under
    /// epoch-granular gating and in batch runs, where a whole epoch is
    /// one exclusive grant.
    pub shard_grants: usize,
    /// Submission → admission wait, one observation per query.
    pub queue_wait: HistogramSnapshot,
    /// Submission → completion latency, one observation per query.
    pub latency: HistogramSnapshot,
    /// Wall-clock from first admission to last retirement.
    pub elapsed: Duration,
}

impl ServiceMetrics {
    /// Folds another run's (or another tenant lane's) metrics into this
    /// one: counts add, histograms merge, and the concurrency peak and
    /// wall-clock take the maximum — the lanes of a multi-tenant serve
    /// run side by side, so their elapsed times overlap rather than
    /// accumulate.
    pub fn merge(&mut self, other: &ServiceMetrics) {
        self.physical_scans += other.physical_scans;
        self.queries_completed += other.queries_completed;
        self.max_inflight_seen = self.max_inflight_seen.max(other.max_inflight_seen);
        self.jobs += other.jobs;
        self.mid_stream_admissions += other.mid_stream_admissions;
        self.aligned_joins += other.aligned_joins;
        self.reloads += other.reloads;
        self.evictions += other.evictions;
        self.capacity_evictions += other.capacity_evictions;
        self.reload_evictions += other.reload_evictions;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.coalesced += other.coalesced;
        self.shard_grants += other.shard_grants;
        self.queue_wait.merge(&other.queue_wait);
        self.latency.merge(&other.latency);
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_metrics_merge_adds_counts_and_overlaps_time() {
        let mut a = ServiceMetrics {
            physical_scans: 3,
            queries_completed: 2,
            max_inflight_seen: 4,
            jobs: 2,
            elapsed: Duration::from_millis(10),
            ..Default::default()
        };
        let mut b = ServiceMetrics {
            physical_scans: 5,
            queries_completed: 1,
            max_inflight_seen: 1,
            jobs: 1,
            cache_hits: 7,
            elapsed: Duration::from_millis(30),
            ..Default::default()
        };
        b.latency.record(Duration::from_micros(9));
        a.merge(&b);
        assert_eq!(a.physical_scans, 8);
        assert_eq!(a.queries_completed, 3);
        assert_eq!(a.jobs, 3);
        assert_eq!(a.cache_hits, 7);
        assert_eq!(a.max_inflight_seen, 4, "peaks take the max");
        assert_eq!(a.elapsed, Duration::from_millis(30), "lanes overlap");
        assert_eq!(a.latency.count, 1);
    }
}
