//! Pipeline stage 1 — **admission**: intake from the submission
//! channel, cache probe, coalesce-or-build disposition.
//!
//! Every submission is disposed of exactly once, through
//! [`Service::admit_or_answer`]: answered from the outcome cache in
//! zero scans, attached to an identical in-flight job as a follower
//! ([`ServiceConfig::coalesce`](crate::ServiceConfig)), or built into a
//! fresh [`Inflight`] job the scheduler owns until retirement. The
//! [`Intake`] wraps the channel with the two pieces of state admission
//! threads through the pipeline: a *backlog* of query submissions
//! already pulled but deferred (a full inflight window), and the
//! pending [`ReloadRequest`] that ends the current repository
//! generation — once one is captured, no further channel pulls happen
//! until the scheduler swaps generations, so every query keeps running
//! against the repository it was submitted under.

use crate::job::{make_job, CoverJob};
use crate::metrics::ServiceMetrics;
use crate::query::{QueryOutcome, QuerySpec};
use crate::service::Service;
use crate::telemetry::tel;
use crate::tenants::RepositoryGeneration;
use sc_setsystem::SetSystem;
use sc_stream::SetStream;
use sc_telemetry::EventKind;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::time::{Duration, Instant};

/// What clients push down the submission channel.
pub(crate) enum Submission {
    /// A cover query to answer.
    Query(QuerySubmission),
    /// A repository hot swap
    /// ([`ServiceHandle::reload`](crate::ServiceHandle::reload)).
    Reload(ReloadRequest),
}

/// One submitted query, as carried by the channel.
pub(crate) struct QuerySubmission {
    pub id: u64,
    pub spec: QuerySpec,
    pub submitted: Instant,
    pub reply: SyncSender<QueryOutcome>,
}

/// A pending repository swap: the next generation's content plus the
/// channel the new generation id is announced on once in-flight work
/// drained.
pub(crate) struct ReloadRequest {
    pub system: SetSystem,
    pub reply: SyncSender<u64>,
}

/// One admitted query inside the epoch loop.
pub(crate) struct Inflight<'a> {
    pub id: u64,
    pub spec: QuerySpec,
    pub job: Box<dyn CoverJob<'a> + 'a>,
    pub submitted: Instant,
    pub admitted: Instant,
    /// `None` in batch mode (outcomes are returned positionally).
    pub reply: Option<SyncSender<QueryOutcome>>,
    /// Identical queries coalesced onto this job
    /// ([`ServiceConfig::coalesce`](crate::ServiceConfig)); retirement
    /// fans a reply out per follower.
    pub followers: Vec<Follower>,
}

/// A query riding an identical in-flight job instead of running.
pub(crate) struct Follower {
    /// Batch-mode outcome slot (mirrors the id in serve mode).
    pub slot: usize,
    pub id: u64,
    pub submitted: Instant,
    /// When the query attached to the job (its queue wait ends here).
    pub attached: Instant,
    /// `None` in batch mode.
    pub reply: Option<SyncSender<QueryOutcome>>,
}

/// How one submission was disposed of by
/// [`Service::admit_or_answer`].
pub(crate) enum Admitted<'a> {
    /// A fresh job the caller must admit into the scan epochs.
    Job(Inflight<'a>),
    /// Attached to an identical in-flight job as a follower; that
    /// job's retirement answers it.
    Coalesced,
    /// Answered immediately from the outcome cache.
    Answered,
}

/// The serve-mode intake: the submission channel plus the deferred-work
/// state admission threads through the pipeline stages.
pub(crate) struct Intake<'rx> {
    rx: &'rx Receiver<Submission>,
    /// `false` once every [`ServiceHandle`](crate::ServiceHandle)
    /// clone was dropped — the channel yields nothing further.
    pub open: bool,
    /// A captured reload: ends the current generation. While set, no
    /// further channel pulls happen (submissions behind the reload wait
    /// for the next generation), but the backlog — pulled *before* the
    /// reload — still drains on the current one.
    pub reload: Option<ReloadRequest>,
    /// Query submissions pulled but deferred by a full inflight window;
    /// consumed before the channel so arrival order is preserved.
    pub backlog: VecDeque<QuerySubmission>,
}

impl<'rx> Intake<'rx> {
    pub fn new(rx: &'rx Receiver<Submission>) -> Self {
        Self {
            rx,
            open: true,
            reload: None,
            backlog: VecDeque::new(),
        }
    }

    /// `true` while the channel may still yield submissions for the
    /// *current* generation (open, and no reload pending).
    pub fn draining_rx(&self) -> bool {
        self.open && self.reload.is_none()
    }

    /// Routes one received submission: queries come back, a reload is
    /// captured into [`reload`](Intake::reload) (ending channel pulls).
    fn route(&mut self, sub: Submission) -> Option<QuerySubmission> {
        match sub {
            Submission::Query(q) => Some(q),
            Submission::Reload(r) => {
                self.reload = Some(r);
                None
            }
        }
    }

    /// Pulls the next query without blocking: backlog first, then the
    /// channel. `None` when nothing is immediately available (or the
    /// channel closed / a reload was captured).
    pub fn pull_nonblocking(&mut self) -> Option<QuerySubmission> {
        if let Some(q) = self.backlog.pop_front() {
            return Some(q);
        }
        if !self.draining_rx() {
            return None;
        }
        match self.rx.try_recv() {
            Ok(sub) => self.route(sub),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.open = false;
                None
            }
        }
    }

    /// Pulls the next query, blocking on the channel while it can still
    /// yield one (an idle scheduler waiting for work). `None` when the
    /// channel closed or a reload was captured.
    pub fn pull_blocking(&mut self) -> Option<QuerySubmission> {
        if let Some(q) = self.backlog.pop_front() {
            return Some(q);
        }
        if !self.draining_rx() {
            return None;
        }
        match self.rx.recv() {
            Ok(sub) => self.route(sub),
            Err(_) => {
                self.open = false;
                None
            }
        }
    }

    /// Pulls the next query from the *channel only*, blocking until
    /// `deadline` at most — the admission-window wait. `None` on
    /// timeout, channel close, or a captured reload (the caller
    /// distinguishes timeout by the clock). The backlog is left
    /// untouched: backlog entries were already examined and deferred
    /// (no slot, no leader), so re-pulling them would cycle them
    /// through the splice forever without ever reaching the deadline
    /// check; only a genuinely new arrival can release the window.
    pub fn pull_channel_deadline(&mut self, deadline: Instant) -> Option<QuerySubmission> {
        if !self.draining_rx() {
            return None;
        }
        match self
            .rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(sub) => self.route(sub),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                self.open = false;
                None
            }
        }
    }

    /// Drains arrivals into `pending` while a scan's fan-out runs — the
    /// non-blocking accept path. Blocks at most `wait` (once, on the
    /// channel) so the caller can interleave this with progress checks;
    /// `Duration::ZERO` makes it a pure `try_recv` drain. Stops at
    /// `limit` pending arrivals, on an empty channel, and on
    /// close/reload.
    pub fn poll_into(&mut self, pending: &mut Vec<PendingArrival>, limit: usize, wait: Duration) {
        let mut may_block = wait > Duration::ZERO;
        while pending.len() < limit {
            if let Some(q) = self.backlog.pop_front() {
                pending.push(PendingArrival {
                    drained: Instant::now(),
                    sub: q,
                });
                continue;
            }
            if !self.draining_rx() {
                return;
            }
            let sub = if may_block {
                may_block = false;
                match self.rx.recv_timeout(wait) {
                    Ok(sub) => Ok(sub),
                    Err(RecvTimeoutError::Timeout) => return,
                    Err(RecvTimeoutError::Disconnected) => Err(()),
                }
            } else {
                match self.rx.try_recv() {
                    Ok(sub) => Ok(sub),
                    Err(TryRecvError::Empty) => return,
                    Err(TryRecvError::Disconnected) => Err(()),
                }
            };
            match sub {
                Ok(sub) => {
                    if let Some(q) = self.route(sub) {
                        pending.push(PendingArrival {
                            drained: Instant::now(),
                            sub: q,
                        });
                    } else {
                        return; // reload captured: stop pulling
                    }
                }
                Err(()) => {
                    self.open = false;
                    return;
                }
            }
        }
    }
}

/// A query that arrived while a scan's fan-out was running, committed
/// to that scan and waiting to be spliced at its boundary
/// ([`alignment::splice_pending`](crate::alignment::splice_pending)).
pub(crate) struct PendingArrival {
    pub sub: QuerySubmission,
    /// When the scheduler accepted it into the in-flight scan — the
    /// end of its queue wait (the scan it will observe, via the
    /// boundary replay, is already running on its behalf).
    pub drained: Instant,
}

impl Service {
    /// Attaches a query to an identical in-flight job as a follower
    /// (when [`ServiceConfig::coalesce`](crate::ServiceConfig) is on
    /// and such a job exists). Returns `true` when the query was
    /// coalesced — it will be answered by that job's retirement and
    /// must not become a job of its own. The cache is consulted
    /// *before* this (a retired answer in zero scans beats waiting for
    /// an in-flight job), so coalescing only ever sees cache misses.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn try_coalesce<'a>(
        &self,
        gen: &RepositoryGeneration,
        spec: &QuerySpec,
        slot: usize,
        id: u64,
        submitted: Instant,
        attached: Instant,
        reply: Option<SyncSender<QueryOutcome>>,
        inflight: &mut [(usize, Inflight<'a>)],
    ) -> bool {
        if !self.config().coalesce {
            return false;
        }
        let Some((_, leader)) = inflight.iter_mut().find(|(_, fl)| fl.spec == *spec) else {
            return false;
        };
        debug_assert_eq!(
            leader.spec.to_string(),
            spec.to_string(),
            "coalesce keys must agree on the canonical spec"
        );
        tel().coalesced.incr();
        sc_telemetry::event(EventKind::Coalesced, id, gen.id, 0, 0);
        leader.followers.push(Follower {
            slot,
            id,
            submitted,
            attached,
            reply,
        });
        true
    }

    /// Answers one submission from the cache (delivering the outcome
    /// immediately), coalesces it onto an identical in-flight job, or
    /// builds its job; only the last case hands work back to the
    /// caller. `at` is the admission instant recorded for the query —
    /// "now" at an epoch boundary, the drain instant for an arrival
    /// committed to an in-flight scan.
    pub(crate) fn admit_or_answer<'g>(
        &self,
        gen: &RepositoryGeneration,
        sub: QuerySubmission,
        root: &SetStream<'g>,
        inflight: &mut [(usize, Inflight<'g>)],
        metrics: &mut ServiceMetrics,
        at: Instant,
    ) -> Admitted<'g> {
        if let Some(answer) = self.cache_lookup(gen, &sub.spec) {
            let outcome = self.cached_outcome(gen, sub.id, sub.spec, sub.submitted, answer);
            self.deliver_cached(gen, &outcome, metrics);
            // The client may have dropped its ticket; that is fine.
            let _ = sub.reply.send(outcome);
            return Admitted::Answered;
        }
        if self.try_coalesce(
            gen,
            &sub.spec,
            sub.id as usize,
            sub.id,
            sub.submitted,
            at,
            Some(sub.reply.clone()),
            inflight,
        ) {
            metrics.coalesced += 1;
            return Admitted::Coalesced;
        }
        if self.cache_enabled() {
            metrics.cache_misses += 1;
            tel().cache_misses.incr();
        }
        metrics.jobs += 1;
        tel().jobs.incr();
        Admitted::Job(Inflight {
            id: sub.id,
            spec: sub.spec,
            job: make_job(&sub.spec, root),
            submitted: sub.submitted,
            admitted: at,
            reply: Some(sub.reply),
            followers: Vec::new(),
        })
    }

    /// Disposes of one submission that found the inflight window full:
    /// a duplicate of an in-flight leader still answers — from the
    /// cache first (a *shared* cache can hold a retired answer even
    /// while a twin job is in flight, and zero scans beats waiting on
    /// it), else by coalescing onto the leader. Returns `Err(sub)`
    /// when there is no leader (the submission must wait for a slot);
    /// the side-effecting cache lookup only runs when a leader
    /// guarantees disposal either way, so a deferred submission is
    /// never counted as a miss twice. `Ok(true)` means the query
    /// coalesced (the window's company arrived).
    pub(crate) fn dispose_past_full_window<'g>(
        &self,
        gen: &RepositoryGeneration,
        sub: QuerySubmission,
        inflight: &mut [(usize, Inflight<'g>)],
        metrics: &mut ServiceMetrics,
        attached: Instant,
    ) -> Result<bool, QuerySubmission> {
        let has_leader =
            self.config().coalesce && inflight.iter().any(|(_, fl)| fl.spec == sub.spec);
        if !has_leader {
            return Err(sub);
        }
        if let Some(answer) = self.cache_lookup(gen, &sub.spec) {
            let outcome = self.cached_outcome(gen, sub.id, sub.spec, sub.submitted, answer);
            self.deliver_cached(gen, &outcome, metrics);
            let _ = sub.reply.send(outcome);
            return Ok(false);
        }
        let coalesced = self.try_coalesce(
            gen,
            &sub.spec,
            sub.id as usize,
            sub.id,
            sub.submitted,
            attached,
            Some(sub.reply.clone()),
            inflight,
        );
        debug_assert!(coalesced, "the leader cannot vanish mid-disposal");
        metrics.coalesced += 1;
        Ok(true)
    }

    /// Answers the cache hits among the arrivals drained at indices
    /// `from..` right away — a hit needs neither an inflight slot nor
    /// the scan, so making it wait for the splice at the scan boundary
    /// would add an epoch of latency for nothing. Each arrival is
    /// probed exactly once here; misses stay pending (the splice
    /// probes once more at the boundary, which can even catch an entry
    /// a twin job populated in the meantime; that second probe shows
    /// up only in [`OutcomeCache::stats`](crate::OutcomeCache::stats)
    /// miss counts, never in [`ServiceMetrics`]).
    pub(crate) fn answer_drained_hits(
        &self,
        gen: &RepositoryGeneration,
        pending: &mut Vec<PendingArrival>,
        from: usize,
        metrics: &mut ServiceMetrics,
    ) {
        if !self.cache_enabled() || from >= pending.len() {
            return;
        }
        let fresh = pending.split_off(from);
        for arrival in fresh {
            let Some(answer) = self.cache_lookup(gen, &arrival.sub.spec) else {
                pending.push(arrival);
                continue;
            };
            let outcome = self.cached_outcome(
                gen,
                arrival.sub.id,
                arrival.sub.spec,
                arrival.sub.submitted,
                answer,
            );
            self.deliver_cached(gen, &outcome, metrics);
            let _ = arrival.sub.reply.send(outcome);
        }
    }

    /// Builds the outcome of a cache hit: the stored solo observables
    /// (bit-identical to the run that populated the entry) under the
    /// caller's submission timing, in zero physical scans.
    pub(crate) fn cached_outcome(
        &self,
        gen: &RepositoryGeneration,
        id: u64,
        spec: QuerySpec,
        submitted: Instant,
        answer: crate::cache::CachedAnswer,
    ) -> QueryOutcome {
        QueryOutcome {
            id,
            spec,
            cover: answer.cover,
            covered: answer.covered,
            required: answer.required,
            logical_passes: answer.logical_passes,
            space_words: answer.space_words,
            epochs_joined: 0,
            queue_wait: submitted.elapsed(),
            latency: submitted.elapsed(),
            cached: true,
            coalesced: false,
            generation: gen.id,
            tenant: gen.tenant.name_handle(),
        }
    }

    /// Records a cache hit's metrics (service counters + histograms,
    /// plus the owning tenant's live counters).
    pub(crate) fn deliver_cached(
        &self,
        gen: &RepositoryGeneration,
        outcome: &QueryOutcome,
        metrics: &mut ServiceMetrics,
    ) {
        metrics.cache_hits += 1;
        metrics.queries_completed += 1;
        metrics.queue_wait.record(outcome.queue_wait);
        metrics.latency.record(outcome.latency);
        gen.tenant.counters().bump_cache_hit();
        gen.tenant.counters().bump_completed();
        tel().cache_hits.incr();
        tel().completed.incr();
        sc_telemetry::event(EventKind::CacheHit, outcome.id, outcome.generation, 0, 0);
    }

    /// Cache lookup under a generation's repository identity (the
    /// owning tenant's cache partition, keyed by fingerprint, plus the
    /// dimension cross-check).
    pub(crate) fn cache_lookup(
        &self,
        gen: &RepositoryGeneration,
        spec: &QuerySpec,
    ) -> Option<crate::cache::CachedAnswer> {
        self.cache().lookup(
            gen.tenant.id(),
            gen.fingerprint,
            gen.system.universe(),
            gen.system.num_sets(),
            spec,
        )
    }

    /// `true` when this service actually caches outcomes — a disabled
    /// cache neither stores answers nor counts traffic
    /// ([`ServiceMetrics::cache_misses`] stays zero, matching
    /// [`OutcomeCache::stats`](crate::OutcomeCache::stats)'s
    /// disabled-cache semantics).
    pub(crate) fn cache_enabled(&self) -> bool {
        self.cache().capacity() > 0
    }
}
