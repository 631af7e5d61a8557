//! The scan-epoch scheduler, restructured as a staged pipeline:
//! [`admission`](crate::admission) → [`alignment`](crate::alignment) →
//! [`execution`](crate::execution) → [`retirement`](crate::retirement),
//! orchestrated here around a narrow
//! [`EpochState`](crate::alignment::EpochState) handoff — one scheduler
//! *lane* per tenant, each over its own hot-swappable repository
//! generations ([`TenantRegistry`](crate::tenants::TenantRegistry)),
//! with the deficit-round-robin
//! [`FairGate`](crate::fairness::FairGate) arbitrating scan epochs
//! across lanes.

use crate::admission::{Admitted, Inflight, Intake, QuerySubmission, ReloadRequest, Submission};
use crate::alignment::{self, EpochState};
use crate::cache::OutcomeCache;
use crate::execution;
use crate::fairness::{FairGate, GrantUnit};
use crate::metrics::ServiceMetrics;
use crate::query::{QueryOutcome, QuerySpec};
use crate::telemetry::tel;
use crate::tenants::{RepositoryGeneration, Tenant, TenantMeta, TenantRegistry};
use sc_setsystem::SetSystem;
use sc_stream::{InterleavedCursor, ScanLedger, SetStream};
use sc_telemetry::EventKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The granularity at which tenant lanes share the machine (serve
/// mode; batch runs are a single ungated lane either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterleaveMode {
    /// Shard-granular interleaving (the default): every lane with an
    /// in-flight epoch advances through one shared work-stealing
    /// fan-out ([`sc_stream::InterleavedCursor`]), with the
    /// deficit-round-robin gate metering individual `(tenant, shard)`
    /// units under a machine-wide concurrency cap (the worker budget).
    /// A box serving many narrow tenants saturates its cores; the
    /// per-tenant observables (covers, passes, space, cache keys) are
    /// bit-identical to epoch mode — only the interleaving changes.
    #[default]
    Shard,
    /// The PR 8 baseline, kept for measurement (experiments E23/E25):
    /// one tenant's epoch holds the gate exclusively and runs to
    /// completion. Simple and strictly bounded, but a narrow epoch
    /// leaves the rest of the worker pool idle.
    Epoch,
}

impl InterleaveMode {
    /// Parses `"shard"` / `"epoch"` (the `sctool serve --interleave`
    /// grammar).
    ///
    /// # Errors
    ///
    /// A message naming the unknown mode.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "shard" => Ok(Self::Shard),
            "epoch" => Ok(Self::Epoch),
            other => Err(format!("unknown interleave mode {other:?} (shard|epoch)")),
        }
    }
}

/// Tuning knobs of the service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Queries admitted into concurrent scan epochs at once; admission
    /// beyond this waits for a slot (the scheduler's half of
    /// backpressure).
    pub max_inflight: usize,
    /// Worker threads fanning out per-query state updates within one
    /// scan (`std::thread::scope`; the queries are disjoint state, so
    /// the fan-out never touches accounting). `1` disables threading.
    pub workers: usize,
    /// Bound of the submission queue; [`ServiceHandle::submit`] blocks
    /// once this many queries wait unadmitted (the client's half of
    /// backpressure).
    pub queue_depth: usize,
    /// Entries the outcome cache may hold (`0` disables caching).
    /// Ignored when [`ServiceBuilder::shared_cache`] supplies the
    /// cache, which brings its own capacity.
    pub cache_capacity: usize,
    /// How long the scheduler holds the *first* scan of a fresh epoch
    /// group open for mid-stream joiners (serve mode only; zero — the
    /// default — admits mid-stream without ever holding a scan open).
    /// A burst arriving just behind the group's head then rides the
    /// same physical scan instead of paying an extra epoch of queue
    /// wait.
    ///
    /// This is a batching knob for bursty load, and it has a cost on
    /// sparse traffic: every query that starts a fresh group holds its
    /// first scan's boundary open up to the full window waiting for
    /// company, so a strict request-response client pays the window per
    /// query. The timer runs from the scan's *start*, so the fan-out
    /// overlaps it and the epoch thread idles only for the remainder.
    /// Leave it at zero unless clients submit in bursts.
    pub admission_window: Duration,
    /// Sets per shard of the zero-copy repository feed the epoch
    /// fan-out drives jobs with ([`sc_stream::ShardedPass`]): the
    /// work-stealing granularity of the worker pool. Smaller shards
    /// balance heterogeneous jobs better; larger shards amortise the
    /// per-claim bookkeeping. The observables are unaffected either
    /// way — every job sees every shard in repository order.
    pub shard_size: usize,
    /// Collapse identical in-flight queries into one job: a query
    /// whose spec matches a job already inside the scan epochs (and
    /// misses the outcome cache) attaches to that job as a *follower*
    /// instead of running — the job's retirement fans a reply out per
    /// follower and populates the cache once, so N identical
    /// concurrent clients cost one query's CPU as well as one query's
    /// scans. Off by default: coalescing changes the timing metrics
    /// (`epochs_joined`, queue waits) of duplicate queries, and the
    /// uncoalesced path is the baseline experiments E17/E18 pin.
    /// Covers, logical passes, and space peaks are bit-identical
    /// either way (the queries are deterministic given their spec).
    pub coalesce: bool,
    /// How tenant lanes share the machine: shard-granular interleaving
    /// (default) or exclusive epoch grants (see [`InterleaveMode`]).
    pub interleave: InterleaveMode,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8),
            queue_depth: 256,
            cache_capacity: 256,
            admission_window: Duration::ZERO,
            shard_size: 256,
            coalesce: false,
            interleave: InterleaveMode::Shard,
        }
    }
}

/// Error returned when the service has shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service closed")
    }
}

impl std::error::Error for ServiceClosed {}

/// Why a non-blocking submission ([`ServiceHandle::try_submit`]) did
/// not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySubmitError {
    /// The tenant's submission queue is full — the load-shedding
    /// signal the event-driven front-end turns into `err msg=busy`
    /// instead of blocking its whole event loop on one tenant's
    /// backpressure.
    Busy,
    /// The scheduler already exited.
    Closed,
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Busy => write!(f, "busy"),
            TrySubmitError::Closed => write!(f, "service closed"),
        }
    }
}

impl std::error::Error for TrySubmitError {}

/// A pending reply for one submitted query.
#[derive(Debug)]
pub struct QueryTicket {
    /// The service-assigned query id.
    pub id: u64,
    rx: Receiver<QueryOutcome>,
}

impl QueryTicket {
    /// Blocks until the query completes.
    ///
    /// # Errors
    ///
    /// [`ServiceClosed`] if the scheduler exited before serving it.
    pub fn wait(self) -> Result<QueryOutcome, ServiceClosed> {
        self.rx.recv().map_err(|_| ServiceClosed)
    }

    /// Non-blocking poll: `None` while the query is still in flight —
    /// what the event-driven front-end drains tickets with (the ticket
    /// stays valid across `None`s).
    ///
    /// # Errors
    ///
    /// `Some(Err(ServiceClosed))` if the scheduler exited before
    /// serving it.
    pub fn try_wait(&self) -> Option<Result<QueryOutcome, ServiceClosed>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(Ok(outcome)),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceClosed)),
        }
    }
}

/// A pending acknowledgement for a requested repository hot swap.
#[derive(Debug)]
pub struct ReloadTicket {
    rx: Receiver<u64>,
}

impl ReloadTicket {
    /// Blocks until the swap took effect — queries admitted before the
    /// reload have drained on their original generation — and returns
    /// the new generation id.
    ///
    /// # Errors
    ///
    /// [`ServiceClosed`] if the scheduler exited before swapping.
    pub fn wait(self) -> Result<u64, ServiceClosed> {
        self.rx.recv().map_err(|_| ServiceClosed)
    }

    /// Non-blocking poll: `None` while in-flight queries are still
    /// draining ahead of the swap.
    ///
    /// # Errors
    ///
    /// `Some(Err(ServiceClosed))` if the scheduler exited before
    /// swapping.
    pub fn try_wait(&self) -> Option<Result<u64, ServiceClosed>> {
        match self.rx.try_recv() {
            Ok(generation) => Some(Ok(generation)),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceClosed)),
        }
    }
}

/// Clonable submission endpoint handed to client code by
/// [`Service::serve`]. Dropping every clone closes every tenant's
/// queue; the lanes then drain what is inflight and exit.
///
/// A handle targets one tenant — the *default* (registry slot 0) as
/// handed out by [`Service::serve`] — and
/// [`with_tenant`](ServiceHandle::with_tenant) derives a handle
/// targeting another (the library form of the protocol's
/// `!use <name>`; a per-query `repo=<name>` is just a one-shot
/// `with_tenant`). Each tenant has its own bounded submission queue,
/// so a hot tenant's full queue blocks only submitters *to that
/// tenant* — backpressure never crosses tenants.
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    routes: Arc<[SyncSender<Submission>]>,
    route: usize,
    counter: Arc<AtomicU64>,
    registry: Arc<TenantRegistry>,
}

impl ServiceHandle {
    /// Enqueues a query for this handle's tenant; blocks when that
    /// tenant's submission queue is full.
    ///
    /// # Errors
    ///
    /// [`ServiceClosed`] if the scheduler already exited.
    pub fn submit(&self, spec: QuerySpec) -> Result<QueryTicket, ServiceClosed> {
        let (reply, rx) = mpsc::sync_channel(1);
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        tel().submitted.incr();
        // The serving generation is the scheduler's business; the
        // submit site tags generation 0 (= not yet assigned).
        sc_telemetry::event(EventKind::Submitted, id, 0, 0, 0);
        self.routes[self.route]
            .send(Submission::Query(QuerySubmission {
                id,
                spec,
                submitted: Instant::now(),
                reply,
            }))
            .map_err(|_| ServiceClosed)?;
        Ok(QueryTicket { id, rx })
    }

    /// Non-blocking [`submit`](ServiceHandle::submit): enqueues the
    /// query only if the tenant's submission queue has room *right
    /// now*. This is the shedding half of the front door — an event
    /// loop multiplexing many connections must not block on one
    /// tenant's full queue, so a full queue comes back as
    /// [`TrySubmitError::Busy`] for the caller to turn into
    /// `err msg=busy`.
    ///
    /// A shed attempt leaves no telemetry footprint (no `submitted`
    /// count, no journal event) — the query never entered the
    /// scheduler; the front-end's own shed counter is the record.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::Busy`] when the queue is full,
    /// [`TrySubmitError::Closed`] when the scheduler already exited.
    pub fn try_submit(&self, spec: QuerySpec) -> Result<QueryTicket, TrySubmitError> {
        let (reply, rx) = mpsc::sync_channel(1);
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        match self.routes[self.route].try_send(Submission::Query(QuerySubmission {
            id,
            spec,
            submitted: Instant::now(),
            reply,
        })) {
            Ok(()) => {
                tel().submitted.incr();
                sc_telemetry::event(EventKind::Submitted, id, 0, 0, 0);
                Ok(QueryTicket { id, rx })
            }
            Err(mpsc::TrySendError::Full(_)) => Err(TrySubmitError::Busy),
            Err(mpsc::TrySendError::Disconnected(_)) => Err(TrySubmitError::Closed),
        }
    }

    /// Requests a repository hot swap of this handle's tenant: queries
    /// submitted to it before this call drain on its current
    /// generation, queries submitted after run against `system` (once
    /// the drain completes). Other tenants' lanes — and their in-flight
    /// queries — are untouched. The returned ticket resolves to the
    /// tenant's new generation id.
    ///
    /// # Errors
    ///
    /// [`ServiceClosed`] if the scheduler already exited.
    pub fn reload(&self, system: SetSystem) -> Result<ReloadTicket, ServiceClosed> {
        let (reply, rx) = mpsc::sync_channel(1);
        self.routes[self.route]
            .send(Submission::Reload(ReloadRequest { system, reply }))
            .map_err(|_| ServiceClosed)?;
        Ok(ReloadTicket { rx })
    }

    /// A handle targeting the named tenant (`None` if no tenant of
    /// that name is served) — the library form of `!use <name>`.
    pub fn with_tenant(&self, name: &str) -> Option<ServiceHandle> {
        let route = self.registry.index_of(name)?;
        Some(ServiceHandle {
            route,
            ..self.clone()
        })
    }

    /// The name of the tenant this handle targets.
    pub fn tenant_name(&self) -> &str {
        self.registry.tenant(self.route).name()
    }

    /// The registry of tenants behind this service — what `!repos`
    /// formats.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }
}

/// A multi-tenant, in-process cover-query engine over a hot-swappable
/// repository.
///
/// The service holds its [`SetSystem`] as a fingerprint-versioned
/// *generation* ([`RepositoryGeneration`]) and serves streams of cover
/// queries by batching them through shared physical scans: pending
/// queries are admitted into *scan epochs*, every admitted query
/// registers the logical pass it needs next, and one shared physical
/// scan per epoch advances all of them — so the physical scan count of
/// a group of concurrent queries is the *max* of their logical pass
/// counts, not the sum, exactly the accounting the streaming model
/// charges for parallel branches. Queries arriving while a scan is in
/// flight splice into it **pass-aligned and non-blocking**, repeats
/// are answered from the **outcome cache** in zero physical scans, and
/// `!reload` swaps the repository mid-load with in-flight queries
/// draining on their original generation.
///
/// # Examples
///
/// ```
/// use sc_service::{QuerySpec, ServiceBuilder};
/// use sc_setsystem::gen;
///
/// let inst = gen::planted(256, 512, 8, 7);
/// let service = ServiceBuilder::new().tenant("corpus", inst.system).build();
/// let specs = vec![QuerySpec::IterCover { delta: 0.5, seed: 1 }; 8];
/// let (outcomes, metrics) = service.run_batch(&specs);
/// assert!(outcomes.iter().all(|o| o.goal_met()));
/// // Eight identical queries rode the same physical scans.
/// assert_eq!(metrics.physical_scans, outcomes[0].logical_passes);
/// ```
#[derive(Debug)]
pub struct Service {
    registry: Arc<TenantRegistry>,
    cfg: ServiceConfig,
    cache: Arc<OutcomeCache>,
    quantum: u64,
}

/// Builds a [`Service`]: the tenants it hosts (each a named
/// repository with an optional inflight quota) plus the shared tuning
/// knobs, replacing hand-assembled [`ServiceConfig`] field soup at the
/// call sites that grow tenants.
///
/// The first tenant added is the *default* — the one
/// [`Service::serve`]'s handle targets until
/// [`ServiceHandle::with_tenant`] (or the protocol's `!use` /
/// `repo=`) redirects it, and the one the batch/compat surfaces
/// ([`Service::run_batch`], [`Service::generation`]) address.
///
/// # Examples
///
/// ```
/// use sc_service::{QuerySpec, ServiceBuilder};
/// use sc_setsystem::gen;
///
/// let service = ServiceBuilder::new()
///     .tenant("wiki", gen::planted(128, 256, 8, 3).system)
///     .tenant_with_quota("logs", gen::planted(128, 256, 8, 4).system, 8)
///     .coalesce(true)
///     .build();
/// let ((), _metrics) = service.serve(|handle| {
///     let logs = handle.with_tenant("logs").expect("tenant exists");
///     let t = logs.submit(QuerySpec::IterCover { delta: 0.5, seed: 1 }).unwrap();
///     assert!(t.wait().unwrap().goal_met());
/// });
/// ```
#[derive(Debug)]
pub struct ServiceBuilder {
    cfg: ServiceConfig,
    quantum: Option<u64>,
    cache: Option<Arc<OutcomeCache>>,
    tenants: Vec<(String, SetSystem, Option<usize>)>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceBuilder {
    /// A builder with the [`ServiceConfig`] defaults and no tenants
    /// yet; add at least one with [`tenant`](Self::tenant) before
    /// [`build`](Self::build).
    pub fn new() -> Self {
        Self {
            cfg: ServiceConfig::default(),
            quantum: None,
            cache: None,
            tenants: Vec::new(),
        }
    }

    /// Replaces the whole [`ServiceConfig`] at once — for call sites
    /// that already hold an assembled config (tests sweeping config
    /// matrices, the CLI). Individual setters called afterwards still
    /// apply on top.
    #[must_use]
    pub fn config(mut self, cfg: ServiceConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Adds a named tenant serving `system` (as its generation 1) with
    /// the default inflight quota (`max_inflight`). The first tenant
    /// added is the service's default.
    #[must_use]
    pub fn tenant(self, name: impl Into<String>, system: SetSystem) -> Self {
        self.push_tenant(name.into(), system, None)
    }

    /// Adds a named tenant with its own inflight quota: the cap on
    /// queries it may hold inside scan epochs at once, independent of
    /// the service-wide `max_inflight` default — the sizing half of
    /// cross-tenant fairness (the `FairGate` is the scheduling
    /// half).
    #[must_use]
    pub fn tenant_with_quota(
        self,
        name: impl Into<String>,
        system: SetSystem,
        quota: usize,
    ) -> Self {
        self.push_tenant(name.into(), system, Some(quota))
    }

    fn push_tenant(mut self, name: String, system: SetSystem, quota: Option<usize>) -> Self {
        self.tenants.push((name, system, quota));
        self
    }

    /// Sets [`ServiceConfig::max_inflight`] (also the default tenant
    /// quota and the default fairness quantum).
    #[must_use]
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.cfg.max_inflight = n;
        self
    }

    /// Sets [`ServiceConfig::workers`].
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Sets [`ServiceConfig::queue_depth`] (per tenant — each tenant
    /// has its own bounded submission queue).
    #[must_use]
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.cfg.queue_depth = n;
        self
    }

    /// Sets [`ServiceConfig::cache_capacity`] (ignored when
    /// [`shared_cache`](Self::shared_cache) supplies the cache).
    #[must_use]
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cfg.cache_capacity = n;
        self
    }

    /// Sets [`ServiceConfig::admission_window`].
    #[must_use]
    pub fn admission_window(mut self, window: Duration) -> Self {
        self.cfg.admission_window = window;
        self
    }

    /// Sets [`ServiceConfig::shard_size`].
    #[must_use]
    pub fn shard_size(mut self, n: usize) -> Self {
        self.cfg.shard_size = n;
        self
    }

    /// Sets [`ServiceConfig::coalesce`].
    #[must_use]
    pub fn coalesce(mut self, on: bool) -> Self {
        self.cfg.coalesce = on;
        self
    }

    /// Sets [`ServiceConfig::interleave`].
    #[must_use]
    pub fn interleave(mut self, mode: InterleaveMode) -> Self {
        self.cfg.interleave = mode;
        self
    }

    /// Sets the fairness quantum: the credit a tenant lane is funded
    /// with per arbitration turn of the gate. Under
    /// [`InterleaveMode::Epoch`] it is banked per ring round against
    /// the epoch's inflight cost (default `max_inflight`: one round
    /// funds one full epoch); under [`InterleaveMode::Shard`] it is
    /// the lane's burst of `(tenant, shard)` units per turn (default
    /// `workers`: one turn refills the machine's worker budget). See
    /// the `fairness` module.
    #[must_use]
    pub fn quantum(mut self, q: u64) -> Self {
        self.quantum = Some(q);
        self
    }

    /// Supplies a shared outcome cache instead of the private one the
    /// builder would create — several services can point at the same
    /// [`OutcomeCache`]; the (tenant, fingerprint) pair in the cache
    /// key, backed by a per-hit dimension cross-check, keeps answers
    /// apart (see [`OutcomeCache`] for the caveats).
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<OutcomeCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Builds the service.
    ///
    /// # Panics
    ///
    /// Panics if no tenant was added, on a duplicate tenant name, or
    /// if `max_inflight`, `workers`, `queue_depth`, or any tenant
    /// quota is zero.
    pub fn build(self) -> Service {
        let cfg = self.cfg;
        assert!(cfg.max_inflight > 0, "max_inflight must be positive");
        assert!(cfg.workers > 0, "workers must be positive");
        assert!(cfg.queue_depth > 0, "queue_depth must be positive");
        assert!(
            !self.tenants.is_empty(),
            "a service needs at least one tenant"
        );
        let cache = self
            .cache
            .unwrap_or_else(|| Arc::new(OutcomeCache::new(cfg.cache_capacity)));
        let tenants = self
            .tenants
            .into_iter()
            .enumerate()
            .map(|(slot, (name, system, quota))| {
                let meta = TenantMeta::new(slot as u64, &name, quota.unwrap_or(cfg.max_inflight));
                Tenant::new(meta, system)
            })
            .collect();
        Service {
            registry: TenantRegistry::build(tenants),
            cfg,
            cache,
            quantum: self.quantum.unwrap_or(match cfg.interleave {
                InterleaveMode::Epoch => cfg.max_inflight as u64,
                InterleaveMode::Shard => cfg.workers as u64,
            }),
        }
    }
}

impl Service {
    /// The repository generation new queries of the *default* tenant
    /// are admitted under (tenant-addressed access goes through
    /// [`Service::tenants`]).
    pub fn generation(&self) -> Arc<RepositoryGeneration> {
        self.registry.default_tenant().store().current()
    }

    /// The registry of named tenants this service hosts.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The outcome cache answering repeat queries.
    pub fn cache(&self) -> &Arc<OutcomeCache> {
        &self.cache
    }

    /// The fingerprint of the default tenant's currently served
    /// repository generation — the cache-key half (with the tenant id)
    /// that keeps answers from different repositories apart.
    pub fn repository_fingerprint(&self) -> u64 {
        self.generation().fingerprint
    }

    /// Installs `system` as the *default* tenant's next repository
    /// generation and reaps the replaced generation's outcome-cache
    /// entries — but only when the fingerprint actually changed *and*
    /// this service is the cache's sole owner: another service sharing
    /// the cache ([`ServiceBuilder::shared_cache`]) may still be
    /// serving the "dead" fingerprint's repository, and its entries
    /// must survive (they stay reachable through its own generation; a
    /// shared cache relies on the capacity bound instead of the eager
    /// reap). Queries already running keep their generation and drain
    /// on it. Prefer [`ServiceHandle::reload`] while serving — it
    /// sequences the swap against the in-flight drain; this method is
    /// the direct form for between-batch swaps.
    pub fn install_repository(&self, system: SetSystem) -> Arc<RepositoryGeneration> {
        self.install_counted(self.registry.default_tenant(), system)
            .0
    }

    /// The swap plus how many dead-generation cache entries it reaped
    /// (from the swapped tenant's cache partition only — a reload of
    /// one tenant never touches a neighbour's entries).
    fn install_counted(
        &self,
        tenant: &Tenant,
        system: SetSystem,
    ) -> (Arc<RepositoryGeneration>, usize) {
        let old = tenant.store().swap(system);
        let fresh = tenant.store().current();
        // Strong count 1 = the cache is privately owned by this
        // service (a conservative test: any outstanding clone of the
        // Arc blocks the reap, whether or not it belongs to a service
        // presenting the old fingerprint).
        let sole_owner = Arc::strong_count(&self.cache) == 1;
        let reaped = if sole_owner && old.fingerprint != fresh.fingerprint && self.cache_enabled() {
            self.cache
                .evict_fingerprint(tenant.meta().id(), old.fingerprint)
        } else {
            0
        };
        (fresh, reaped)
    }

    /// Solves a batch of queries through shared scan epochs, all
    /// admitted before the first scan (up to `max_inflight` at a time;
    /// repeats of an already-retired spec are answered from the cache,
    /// and — with [`ServiceConfig::coalesce`] — repeats of an
    /// *in-flight* spec attach to its job, neither occupying a slot).
    /// Outcomes come back in submission order.
    pub fn run_batch(&self, specs: &[QuerySpec]) -> (Vec<QueryOutcome>, ServiceMetrics) {
        let start = Instant::now();
        let gen = self.registry.default_tenant().store().current();
        let root = SetStream::new(&gen.system);
        let ledger = ScanLedger::new();
        let mut outcomes: Vec<Option<QueryOutcome>> = (0..specs.len()).map(|_| None).collect();
        let mut metrics = ServiceMetrics::default();
        let mut next = 0usize;
        let mut state = EpochState::new();
        tel().submitted.add(specs.len() as u64);
        if sc_telemetry::enabled() {
            for slot in 0..specs.len() {
                sc_telemetry::event(EventKind::Submitted, slot as u64, gen.id, 0, 0);
            }
        }
        loop {
            if state.inflight.is_empty() {
                state.group_pass = 0;
            }
            let admitted_from = next;
            let admission_t0 = sc_telemetry::enabled().then(Instant::now);
            while next < specs.len() {
                let slot = next;
                if state.inflight.len() >= gen.tenant.quota() {
                    // Only a fresh job needs an inflight slot: an
                    // identical spec is still disposed of past a full
                    // window — from the cache first (a *shared* cache
                    // can hold a retired answer even while a twin job
                    // is in flight, and zero scans beats waiting on
                    // it), else as a follower of the in-flight job.
                    // Anything else waits for a retirement. The
                    // side-effecting cache lookup only runs when a
                    // leader guarantees the query is disposed of
                    // either way, so a slot blocked on the window is
                    // never counted as a miss twice.
                    let has_leader = self.cfg.coalesce
                        && state.inflight.iter().any(|(_, fl)| fl.spec == specs[slot]);
                    if !has_leader {
                        break;
                    }
                    if let Some(answer) = self.cache_lookup(&gen, &specs[slot]) {
                        let outcome =
                            self.cached_outcome(&gen, slot as u64, specs[slot], start, answer);
                        self.deliver_cached(&gen, &outcome, &mut metrics);
                        outcomes[slot] = Some(outcome);
                    } else {
                        let attached = self.try_coalesce(
                            &gen,
                            &specs[slot],
                            slot,
                            slot as u64,
                            start,
                            Instant::now(),
                            None,
                            &mut state.inflight,
                        );
                        debug_assert!(attached, "the leader cannot vanish mid-admission");
                        metrics.coalesced += 1;
                    }
                    next += 1;
                    continue;
                }
                next += 1;
                if let Some(answer) = self.cache_lookup(&gen, &specs[slot]) {
                    // The whole batch is "submitted" when run_batch
                    // starts, so a hit's latency covers the epochs it
                    // waited for a slot, same as a job's would.
                    let outcome =
                        self.cached_outcome(&gen, slot as u64, specs[slot], start, answer);
                    self.deliver_cached(&gen, &outcome, &mut metrics);
                    outcomes[slot] = Some(outcome);
                    continue;
                }
                if self.try_coalesce(
                    &gen,
                    &specs[slot],
                    slot,
                    slot as u64,
                    start,
                    Instant::now(),
                    None,
                    &mut state.inflight,
                ) {
                    metrics.coalesced += 1;
                    continue;
                }
                if self.cache_enabled() {
                    metrics.cache_misses += 1;
                    tel().cache_misses.incr();
                }
                metrics.jobs += 1;
                tel().jobs.incr();
                sc_telemetry::event(
                    EventKind::Admitted,
                    slot as u64,
                    gen.id,
                    ledger.scan_index() as u64,
                    state.group_pass as u32,
                );
                let fl = Inflight {
                    id: slot as u64,
                    spec: specs[slot],
                    job: crate::job::make_job(&specs[slot], &root),
                    submitted: start,
                    admitted: Instant::now(),
                    reply: None,
                    followers: Vec::new(),
                };
                state.inflight.push((slot, fl));
            }
            if let Some(t0) = admission_t0 {
                if next > admitted_from {
                    tel().stage_admission.record(t0.elapsed());
                }
            }
            metrics.max_inflight_seen = metrics.max_inflight_seen.max(state.inflight.len());
            let retire_from = state.inflight.len();
            let retire_t0 = sc_telemetry::enabled().then(Instant::now);
            self.retire(&gen, &mut state.inflight, &mut metrics, |slot, outcome| {
                outcomes[slot] = Some(outcome);
            });
            if let Some(t0) = retire_t0 {
                if state.inflight.len() < retire_from {
                    tel().stage_retirement.record(t0.elapsed());
                }
            }
            if state.inflight.is_empty() {
                if next >= specs.len() {
                    break;
                }
                continue;
            }
            self.epoch(
                &gen,
                &root,
                &ledger,
                &mut state,
                None,
                &mut metrics,
                false,
                None,
            );
        }
        metrics.physical_scans = ledger.physical_scans();
        metrics.elapsed = start.elapsed();
        (
            outcomes
                .into_iter()
                .map(|o| o.expect("all served"))
                .collect(),
            metrics,
        )
    }

    /// Serves queries submitted concurrently through a
    /// [`ServiceHandle`]: `clients` runs on the calling thread while
    /// one scheduler *lane* per tenant runs beside it; when `clients`
    /// returns (and every handle clone it made is dropped), the lanes
    /// drain the remaining queries and the call returns with the
    /// lanes' metrics merged.
    ///
    /// Each lane is the full single-tenant epoch pipeline over its
    /// tenant's generations — so every per-tenant stream of queries
    /// behaves bit-identically to a solo service — while the lanes
    /// share the outcome cache (tenant-partitioned) and arbitrate scan
    /// epochs through the deficit-round-robin `FairGate`: a hot
    /// tenant cannot starve a cold one, and a cold tenant's admission
    /// (stage 1, including cache hits) never waits on the gate at all.
    ///
    /// Admission happens at epoch boundaries *and* mid-stream: a query arriving while a scan is in flight
    /// splices into that scan — its first pass aligned to the group's
    /// current pass tag, the items observed through the zero-copy
    /// replay — instead of queueing for the next epoch. Repeat queries
    /// are answered from the outcome cache immediately, and
    /// [`ServiceHandle::reload`] hot-swaps the handle's tenant between
    /// epoch groups with in-flight queries draining on their original
    /// generation, other tenants untouched.
    pub fn serve<R, F>(&self, clients: F) -> (R, ServiceMetrics)
    where
        F: FnOnce(ServiceHandle) -> R,
    {
        let lanes = self.registry.len();
        let mut routes = Vec::with_capacity(lanes);
        let mut inboxes = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            let (tx, rx) = mpsc::sync_channel(self.cfg.queue_depth);
            routes.push(tx);
            inboxes.push(rx);
        }
        let handle = ServiceHandle {
            routes: routes.into(),
            route: 0,
            counter: Arc::new(AtomicU64::new(0)),
            registry: Arc::clone(&self.registry),
        };
        let gate = match self.cfg.interleave {
            InterleaveMode::Epoch => FairGate::new(lanes, self.quantum),
            InterleaveMode::Shard => {
                FairGate::sharded(lanes, self.quantum, self.cfg.workers as u64)
            }
        };
        let gate = &gate;
        let fanout = InterleavedCursor::new();
        let fanout = &fanout;
        std::thread::scope(|s| {
            let lanes: Vec<_> = inboxes
                .into_iter()
                .enumerate()
                .map(|(lane, rx)| s.spawn(move || self.lane_scheduler(lane, rx, gate, fanout)))
                .collect();
            let r = clients(handle);
            let mut metrics = ServiceMetrics::default();
            for lane in lanes {
                metrics.merge(&lane.join().expect("lane scheduler panicked"));
            }
            (r, metrics)
        })
    }

    /// One tenant's scheduler lane: an outer loop over that tenant's
    /// repository generations, each running the epoch pipeline until
    /// the tenant's channel closes or a reload ends the generation
    /// (in-flight queries drain on it first; the swap is acknowledged
    /// once it took effect). Scan work goes through the shared
    /// [`FairGate`] — per epoch or per `(tenant, shard)` unit,
    /// depending on [`InterleaveMode`].
    fn lane_scheduler(
        &self,
        lane: usize,
        rx: Receiver<Submission>,
        gate: &FairGate,
        fanout: &InterleavedCursor,
    ) -> ServiceMetrics {
        let tenant = self.registry.tenant(lane);
        let start = Instant::now();
        let mut metrics = ServiceMetrics::default();
        let mut physical = 0usize;
        let mut intake = Intake::new(&rx);
        loop {
            let gen = tenant.store().current();
            self.run_generation(
                &gen,
                &mut intake,
                &mut metrics,
                &mut physical,
                (gate, lane),
                fanout,
            );
            match intake.reload.take() {
                Some(req) => {
                    let (fresh, reaped) = self.install_counted(tenant, req.system);
                    metrics.reloads += 1;
                    metrics.evictions += reaped;
                    metrics.reload_evictions += reaped;
                    tel().reloads.incr();
                    tel().cache_evictions.add(reaped as u64);
                    // The requester may have dropped its ticket.
                    let _ = req.reply.send(fresh.id);
                }
                None => break,
            }
        }
        metrics.physical_scans = physical;
        metrics.elapsed = start.elapsed();
        metrics
    }

    /// Runs the epoch pipeline over one pinned repository generation:
    /// boundary admission, retirement, and scan epochs, until nothing
    /// further can arrive for this generation (channel closed, or a
    /// reload captured) and everything admitted has drained. Scan
    /// work is arbitrated across tenant lanes through `gate` —
    /// exclusive epoch holds in [`InterleaveMode::Epoch`], per-unit
    /// holds through the shared `fanout` registry in
    /// [`InterleaveMode::Shard`] (admission and retirement stay
    /// ungated — only the repository-walking stages contend).
    fn run_generation(
        &self,
        gen: &RepositoryGeneration,
        intake: &mut Intake<'_>,
        metrics: &mut ServiceMetrics,
        physical: &mut usize,
        gate: (&FairGate, usize),
        fanout: &InterleavedCursor,
    ) {
        let root = SetStream::new(&gen.system);
        let ledger = ScanLedger::new();
        let mut state = EpochState::new();
        loop {
            // Stage 1 — admission at the epoch boundary. Block only
            // when idle; past a full window, still dispose of cache
            // hits and coalescible duplicates (they need no slot).
            let fresh_group = state.inflight.is_empty();
            if fresh_group {
                state.group_pass = 0;
            }
            // The admission-stage span starts at the first pulled
            // submission (never inside the idle blocking wait) and
            // records once the boundary loop drains.
            let mut admission_t0: Option<Instant> = None;
            loop {
                let sub = if state.inflight.is_empty() {
                    intake.pull_blocking()
                } else {
                    intake.pull_nonblocking()
                };
                let Some(sub) = sub else { break };
                if admission_t0.is_none() && sc_telemetry::enabled() {
                    admission_t0 = Some(Instant::now());
                }
                if state.inflight.len() >= gen.tenant.quota() {
                    match self.dispose_past_full_window(
                        gen,
                        sub,
                        &mut state.inflight,
                        metrics,
                        Instant::now(),
                    ) {
                        Ok(_) => continue,
                        Err(sub) => {
                            // A fresh job with no slot: defer it (order
                            // preserved — the backlog is consumed
                            // first).
                            intake.backlog.push_front(sub);
                            break;
                        }
                    }
                }
                if let Admitted::Job(fl) = self.admit_or_answer(
                    gen,
                    sub,
                    &root,
                    &mut state.inflight,
                    metrics,
                    Instant::now(),
                ) {
                    sc_telemetry::event(
                        EventKind::Admitted,
                        fl.id,
                        gen.id,
                        ledger.scan_index() as u64,
                        state.group_pass as u32,
                    );
                    // The slot mirrors the submission id: serve mode
                    // routes outcomes by reply channel, but the slot
                    // stays meaningful either way.
                    state.inflight.push((fl.id as usize, fl));
                }
            }
            if let Some(t0) = admission_t0 {
                tel().stage_admission.record(t0.elapsed());
            }
            metrics.max_inflight_seen = metrics.max_inflight_seen.max(state.inflight.len());
            // Stage 4 — retirement (replies go out by channel).
            let retire_from = state.inflight.len();
            let retire_t0 = sc_telemetry::enabled().then(Instant::now);
            self.retire(gen, &mut state.inflight, metrics, |_slot, _outcome| {});
            if let Some(t0) = retire_t0 {
                if state.inflight.len() < retire_from {
                    tel().stage_retirement.record(t0.elapsed());
                }
            }
            if state.inflight.is_empty() {
                let drained_for_swap = intake.reload.is_some() && intake.backlog.is_empty();
                let closed_and_done = !intake.open && intake.backlog.is_empty();
                if drained_for_swap || closed_and_done {
                    break;
                }
                continue;
            }
            // Stages 2 + 3 — one scan epoch, gated across tenant
            // lanes (the RAII holds release even if the epoch
            // panics). Epoch mode holds the gate exclusively for the
            // whole scan, its cost the rider count — heavy epochs
            // spend proportionally more deficit credit. Shard mode
            // instead marks the lane live and lets the fan-out meter
            // individual (tenant, shard) units through the shared
            // cursor, so every granted lane advances concurrently.
            let (g, l) = gate;
            let interleave =
                matches!(g.unit(), GrantUnit::Shard).then(|| execution::ShardInterleave {
                    gate: g,
                    lane: l,
                    fanout,
                    counters: gen.tenant.counters(),
                });
            let _hold = interleave
                .is_none()
                .then(|| g.acquire(l, state.inflight.len() as u64));
            let _session = interleave.is_some().then(|| g.enter(l));
            self.epoch(
                gen,
                &root,
                &ledger,
                &mut state,
                Some(intake),
                metrics,
                fresh_group,
                interleave.as_ref(),
            );
        }
        *physical += ledger.physical_scans();
    }

    /// Runs one scan epoch: every inflight job joins one shared
    /// physical pass — exposed as a zero-copy sharded feed — queries
    /// arriving while the scan is in flight are drained during the
    /// fan-out and spliced in at its boundary, and the work-stealing worker pool fans the
    /// per-query state updates out shard by shard. With `interleave`
    /// set, the fan-out goes through the service-wide shared cursor
    /// with one gate unit held per shard (see
    /// [`execution::ShardInterleave`]).
    #[allow(clippy::too_many_arguments)]
    fn epoch<'g>(
        &self,
        gen: &RepositoryGeneration,
        root: &SetStream<'g>,
        ledger: &ScanLedger,
        state: &mut EpochState<'g>,
        intake: Option<&mut Intake<'_>>,
        metrics: &mut ServiceMetrics,
        fresh_group: bool,
        interleave: Option<&execution::ShardInterleave<'_>>,
    ) {
        state.group_pass += 1;
        for (_, fl) in state.inflight.iter_mut() {
            fl.job.begin_scan();
        }
        let feed = {
            let participants: Vec<&SetStream<'g>> = state
                .inflight
                .iter()
                .flat_map(|(_, fl)| fl.job.participants())
                .collect();
            ledger.scan_sharded(root, &participants, self.cfg.shard_size)
        };
        if sc_telemetry::enabled() {
            // One lifecycle event per rider of this physical scan,
            // tagged with the scan's ordinal and the group pass it
            // carries (mid-stream joiners get their own
            // `admitted`/`aligned_join` events at the splice instead).
            for (_, fl) in state.inflight.iter() {
                sc_telemetry::event(
                    EventKind::EpochScan,
                    fl.id,
                    gen.id,
                    ledger.scan_index() as u64,
                    state.group_pass as u32,
                );
            }
        }
        // The window only arms for a *lone* head of a fresh group: a
        // burst that already arrived together at the epoch boundary is
        // the company the window exists to wait for, so holding its
        // first scan open would stall every query in it for nothing.
        let lone_fresh_head = fresh_group && state.inflight.len() < 2;
        let window = (lone_fresh_head && self.cfg.admission_window > Duration::ZERO)
            .then(|| Instant::now() + self.cfg.admission_window);
        let parked = match intake {
            None => {
                // Batch mode: a pure fan-out, no mid-stream arrivals.
                let _span = tel().stage_execution.span();
                metrics.shard_grants += execution::fan_out(
                    &feed,
                    &mut state.inflight,
                    self.cfg.workers,
                    None,
                    interleave,
                );
                Vec::new()
            }
            Some(intake) => {
                // Non-blocking accept: the fan-out drains arrivals
                // concurrently (answering cache hits on the spot); the
                // splice lands the rest at the boundary.
                let scan_tag = ledger.scan_index();
                let mut pending = Vec::new();
                let units = {
                    let _span = tel().stage_execution.span();
                    let mut drain = execution::ArrivalDrain {
                        service: self,
                        gen,
                        intake,
                        pending: &mut pending,
                        limit: self.cfg.queue_depth,
                        metrics,
                    };
                    execution::fan_out(
                        &feed,
                        &mut state.inflight,
                        self.cfg.workers,
                        Some(&mut drain),
                        interleave,
                    )
                };
                metrics.shard_grants += units;
                let parked = {
                    let _span = tel().stage_alignment.span();
                    alignment::splice_pending(
                        self,
                        gen,
                        root,
                        ledger,
                        &feed,
                        scan_tag,
                        state,
                        intake,
                        &mut pending,
                        window,
                        metrics,
                    )
                };
                metrics.max_inflight_seen = metrics
                    .max_inflight_seen
                    .max(state.inflight.len() + parked.len());
                parked
            }
        };
        for (_, fl) in state.inflight.iter_mut() {
            fl.job.end_scan();
        }
        state.inflight.extend(parked);
    }
}
