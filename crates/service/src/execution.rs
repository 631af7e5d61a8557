//! Pipeline stage 3 — **execution**: the sharded work-stealing fan-out
//! of one shared physical scan across the worker pool.
//!
//! The feed ([`sc_stream::ShardedPass`]) exposes the repository as
//! zero-copy contiguous shards; [`sc_stream::FeedCursor`] hands
//! `(job, shard)` units to whichever worker is free, with every job
//! observing every shard in repository order — so per-query state
//! evolves exactly as in a solo run while a heavy query no longer pins
//! a static chunk of the pool. With a single worker the fan-out runs
//! shard-major on the epoch thread itself (cache-hot across jobs).
//!
//! Under shard-granular gating
//! ([`InterleaveMode::Shard`](crate::InterleaveMode)), the fan-out
//! additionally attaches this lane's grid to the service-wide
//! [`sc_stream::InterleavedCursor`] and holds one [`FairGate`] unit
//! per absorbed shard ([`ShardInterleave`]): all granted tenant lanes
//! advance their in-flight epochs through the machine concurrently,
//! with deficit round robin charged per `(tenant, shard)` unit instead
//! of per epoch.
//!
//! In serve mode the epoch thread is not idle while the workers run:
//! it drains the submission channel into the pending-arrival buffer
//! (the **non-blocking accept** half of the pipeline — see
//! [`alignment`](crate::alignment) for the splice that happens at the
//! scan boundary). The single-worker path drains between shards
//! instead, so responsiveness does not depend on the worker count.

use crate::admission::{Inflight, Intake, PendingArrival};
use crate::fairness::FairGate;
use crate::metrics::ServiceMetrics;
use crate::service::Service;
use crate::tenants::{RepositoryGeneration, TenantCounters};
use sc_stream::{Claim, InterleavedCursor, LaneFeed, ShardedPass};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How long the epoch thread blocks on the channel per drain round
/// while the threaded fan-out runs — the upper bound on how late it
/// notices the feed finished, and the floor of a pending arrival's
/// drain latency under an idle channel.
const DRAIN_TICK: Duration = Duration::from_micros(200);

/// Everything the epoch thread needs to accept arrivals while the
/// fan-out runs: the intake to drain, the pending buffer the splice
/// will consume, and the service context for answering cache hits on
/// the spot (a hit needs neither a slot nor the scan, so it never
/// waits for the boundary).
pub(crate) struct ArrivalDrain<'x, 'rx> {
    pub service: &'x Service,
    pub gen: &'x RepositoryGeneration,
    pub intake: &'x mut Intake<'rx>,
    pub pending: &'x mut Vec<PendingArrival>,
    pub limit: usize,
    pub metrics: &'x mut ServiceMetrics,
}

impl ArrivalDrain<'_, '_> {
    /// One drain round: pull arrivals (blocking at most `wait` on the
    /// channel), answer the cache hits among the *newly* drained ones
    /// immediately, keep the misses pending for the splice. Arrivals
    /// that already missed are not re-probed every round — only
    /// retirement on this same thread can insert, so a pending miss
    /// stays a miss until the scan boundary (where the splice probes
    /// once more, covering the shared-cache twin case).
    fn tick(&mut self, wait: Duration) {
        let fresh_from = self.pending.len();
        self.intake.poll_into(self.pending, self.limit, wait);
        self.service
            .answer_drained_hits(self.gen, self.pending, fresh_from, self.metrics);
    }

    /// `true` while another arrival could still be accepted.
    fn more_expected(&self) -> bool {
        self.intake.draining_rx() && self.pending.len() < self.limit
    }
}

/// Everything the shard-granular fan-out needs to interleave this
/// lane's scan with its neighbours': the machine-wide [`FairGate`]
/// (in [`GrantUnit::Shard`](crate::fairness::GrantUnit) mode) metering
/// `(tenant, shard)` units, the shared [`InterleavedCursor`] registry
/// every lane attaches its feed to, and the tenant's counters for the
/// per-tenant `shard_grants` tally.
pub(crate) struct ShardInterleave<'x> {
    pub gate: &'x FairGate,
    pub lane: usize,
    pub fanout: &'x InterleavedCursor,
    pub counters: &'x TenantCounters,
}

/// Runs one scan's fan-out to completion. With `drain` set (serve
/// mode, aligned admission), the epoch thread concurrently drains
/// arrivals into the pending buffer. With `interleave` set (serve
/// mode, shard-granular gating), the fan-out goes through the shared
/// multi-lane cursor with one gate unit held per absorbed shard;
/// returns the number of units granted (zero on the epoch-granular
/// paths, where the whole epoch was one grant).
pub(crate) fn fan_out<'g>(
    feed: &ShardedPass<'g>,
    inflight: &mut [(usize, Inflight<'g>)],
    workers: usize,
    drain: Option<&mut ArrivalDrain<'_, '_>>,
    interleave: Option<&ShardInterleave<'_>>,
) -> usize {
    if let Some(il) = interleave {
        return interleaved(feed, inflight, workers, drain, il);
    }
    let workers = workers.min(inflight.len());
    if workers > 1 {
        threaded(feed, inflight, workers, drain);
    } else {
        // Single worker: shard-major order keeps each shard's
        // repository slices cache-hot across the jobs, and every job
        // still sees shards in ascending (= repository) order. The
        // channel is drained between shards (pure try_recv).
        let mut drain = drain;
        for s in 0..feed.num_shards() {
            for (_, fl) in inflight.iter_mut() {
                fl.job.absorb_shard(&mut feed.shard(s));
            }
            if let Some(drain) = drain.as_mut() {
                drain.tick(Duration::ZERO);
            }
        }
    }
    0
}

/// Shard-granular fan-out: this lane's `(job, shard)` grid attaches to
/// the shared [`InterleavedCursor`] registry, and every absorbed shard
/// holds one RAII unit from the machine-wide gate — so while this
/// epoch runs, the box is concurrently advancing every *other* granted
/// lane's epoch too, with DRR deciding whose units go next. Claim
/// before acquire: a worker blocked on the gate already holds its
/// consumer's claim, so its lane siblings steal other consumers
/// instead of racing it for this one, and no grant is ever wasted on a
/// worker with nothing to feed.
///
/// Per-lane scheduling semantics (every job sees every shard of its
/// own tenant's repository exactly once, in order) are [`LaneFeed`]'s
/// invariants — identical to the solo [`sc_stream::FeedCursor`], which
/// is what keeps per-query observables bit-identical to epoch mode.
fn interleaved<'g>(
    feed: &ShardedPass<'g>,
    inflight: &mut [(usize, Inflight<'g>)],
    workers: usize,
    mut drain: Option<&mut ArrivalDrain<'_, '_>>,
    il: &ShardInterleave<'_>,
) -> usize {
    let workers = workers.min(inflight.len());
    let lane_feed = il.fanout.attach(inflight.len(), feed.num_shards());
    if workers > 1 {
        let slots: Vec<Mutex<&mut Inflight<'g>>> =
            inflight.iter_mut().map(|(_, fl)| Mutex::new(fl)).collect();
        let units = AtomicUsize::new(0);
        /// Lane-scoped twin of `AbortOnUnwind`: a dying worker aborts
        /// only its own lane's feed (a cross-lane abort would let a
        /// healthy lane's fan-out return with an incomplete scan).
        struct AbortLaneOnUnwind<'c, 'f>(&'c LaneFeed<'f>);
        impl Drop for AbortLaneOnUnwind<'_, '_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.abort();
                }
            }
        }
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let _guard = AbortLaneOnUnwind(&lane_feed);
                    loop {
                        match lane_feed.claim() {
                            Claim::Shard { consumer, shard } => {
                                let _unit = il.gate.acquire_unit(il.lane);
                                let mut fl = slots[consumer].lock().expect("job slot poisoned");
                                fl.job.absorb_shard(&mut feed.shard(shard));
                                drop(fl);
                                il.counters.bump_shard_grant();
                                units.fetch_add(1, Ordering::Relaxed);
                                lane_feed.complete(consumer, shard);
                            }
                            Claim::Retry => std::thread::yield_now(),
                            Claim::Done => break,
                        }
                    }
                });
            }
            // Same non-blocking accept as the epoch-granular path.
            if let Some(drain) = drain.as_mut() {
                while lane_feed.remaining() > 0 && !lane_feed.is_aborted() {
                    if !drain.more_expected() {
                        break;
                    }
                    drain.tick(DRAIN_TICK);
                }
            }
        });
        units.into_inner()
    } else {
        // Single worker: the claim loop runs on the epoch thread, one
        // gate unit per shard, draining the channel between units so
        // responsiveness matches the epoch-granular single-worker path.
        let mut units = 0;
        loop {
            match lane_feed.claim() {
                Claim::Shard { consumer, shard } => {
                    let _unit = il.gate.acquire_unit(il.lane);
                    inflight[consumer]
                        .1
                        .job
                        .absorb_shard(&mut feed.shard(shard));
                    il.counters.bump_shard_grant();
                    units += 1;
                    lane_feed.complete(consumer, shard);
                    if let Some(drain) = drain.as_mut() {
                        drain.tick(Duration::ZERO);
                    }
                }
                Claim::Retry => std::thread::yield_now(),
                Claim::Done => break,
            }
        }
        units
    }
}

/// Work-stealing fan-out: the feed cursor hands `(job, shard)` units
/// to whichever worker is free — each job still observes every shard
/// in repository order with at most one worker inside it at a time
/// (the cursor's claim is the exclusivity protocol; the mutex
/// satisfies the borrow checker and is uncontended by construction),
/// so per-query state evolves exactly as in a solo run while a heavy
/// query no longer stalls a statically assigned worker's whole chunk.
fn threaded<'g>(
    feed: &ShardedPass<'g>,
    inflight: &mut [(usize, Inflight<'g>)],
    workers: usize,
    mut drain: Option<&mut ArrivalDrain<'_, '_>>,
) {
    let slots: Vec<Mutex<&mut Inflight<'g>>> =
        inflight.iter_mut().map(|(_, fl)| Mutex::new(fl)).collect();
    let cursor = feed.cursor(slots.len());
    /// Aborts the feed if the owning worker unwinds mid-unit: its
    /// consumer would stay claimed forever, and siblings would spin on
    /// `Retry` instead of letting the scope join and propagate the
    /// panic.
    struct AbortOnUnwind<'c>(&'c sc_stream::FeedCursor);
    impl Drop for AbortOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.abort();
            }
        }
    }
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let _guard = AbortOnUnwind(&cursor);
                loop {
                    match cursor.claim() {
                        Claim::Shard { consumer, shard } => {
                            let mut fl = slots[consumer].lock().expect("job slot poisoned");
                            fl.job.absorb_shard(&mut feed.shard(shard));
                            drop(fl);
                            cursor.complete(consumer, shard);
                        }
                        Claim::Retry => std::thread::yield_now(),
                        Claim::Done => break,
                    }
                }
            });
        }
        // Non-blocking accept: while the workers chew through the
        // feed, the epoch thread drains arrivals (answering cache hits
        // immediately, queueing the rest for the splice at the scan
        // boundary), blocking at most DRAIN_TICK per round so the
        // feed's completion is noticed promptly. Once nothing more can
        // arrive (channel idle at limit, closed, or a reload pending),
        // fall through to the scope join.
        if let Some(drain) = drain.as_mut() {
            while cursor.remaining() > 0 && !cursor.is_aborted() {
                if !drain.more_expected() {
                    break;
                }
                drain.tick(DRAIN_TICK);
            }
        }
    });
}
