//! The ε-partial `iterSetCover` as a pass state machine.
//!
//! [`crate::partial::PartialIterSetCover`] executes its guesses
//! sequentially, each performing its own physical scans. This module is
//! the driver-API form of the same algorithm: every guess becomes a
//! `PartialGuessRun` state machine
//!
//! ```text
//! ┌─> Pass1 ──(greedy on stored projections)──> Pass2 ─┐  (× ⌈1/δ⌉, or
//! └───────────────────<───────────────────────────────-┘   until the
//!        └──> GoalSweep ──> Finished(Done | Failed)         goal is met)
//! ```
//!
//! and [`PartialCoverDriver`] advances all of them through shared
//! physical scans, exactly as [`crate::multiplex::IterCoverDriver`]
//! does for the full-cover algorithm. Each guess keeps its own forked
//! [`SetStream`] counter, forked [`SpaceMeter`], and seeded RNG, and
//! performs the operations of the sequential path in the same order, so
//! covers, logical pass counts, and space peaks are identical — the
//! `partial_machine_equivalence` integration test pins all three.
//!
//! The driver exists for the serving layer: `sc_service` admits partial
//! queries into the same scan epochs as full-cover and baseline
//! queries, so one physical walk of the repository feeds them all.

use crate::iter_set_cover::sample_size_for;
use crate::partial::partial_guess_seed;
use crate::sampling::sample_from_bitset;
use crate::scan_driver::{GuessMachine, MachineOutcome, ScanDriver};
use crate::IterSetCoverConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_bitset::BitSet;
use sc_setsystem::{ElemId, SetId};
use sc_stream::{SetStream, SpaceMeter, Tracked};

/// What a partial guess is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Consuming a scan: size test + projection storage.
    Pass1,
    /// Consuming a scan: recompute the uncovered set from emitted ids.
    Pass2,
    /// Consuming a scan: buy arbitrary covering sets until the goal.
    GoalSweep,
    /// Released all state; `result` holds the outcome.
    Finished,
}

/// One guess `k` of the ε-partial algorithm, runnable one stream item
/// at a time. Mirrors `PartialIterSetCover::run_guess` operation for
/// operation (including the order of every meter charge and release).
struct PartialGuessRun<'a> {
    k: usize,
    universe: usize,
    allowed_residual: usize,
    max_iterations: usize,
    sample_want: usize,
    stream: SetStream<'a>,
    meter: SpaceMeter,
    rng: StdRng,
    phase: Phase,
    iteration: usize,
    result: Option<Vec<SetId>>,

    // Guess-lifetime tracked state (alive until `finish`).
    live: Option<Tracked<BitSet>>,
    in_sol: Option<Tracked<BitSet>>,
    sol: Option<Tracked<Vec<SetId>>>,

    // Pass-1 state (alive from `begin_iteration` to `finish_pass1`).
    sample: Option<Tracked<Vec<ElemId>>>,
    l_sample: Option<Tracked<BitSet>>,
    proj_sets: Option<Tracked<Vec<SetId>>>,
    proj_elems: Option<Tracked<Vec<Vec<ElemId>>>>,
    threshold: f64,

    /// Unmetered per-item gather buffer, as in the sequential path.
    scratch: Vec<ElemId>,
}

impl<'a> PartialGuessRun<'a> {
    fn new(
        cfg: &IterSetCoverConfig,
        k: usize,
        required: usize,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> Self {
        let n = stream.universe();
        let m = stream.num_sets();
        let child_stream = stream.fork();
        let child_meter = meter.fork();
        let rng = StdRng::seed_from_u64(partial_guess_seed(cfg.seed, k));
        // Same charges, same order as the sequential path.
        let live = Tracked::new(BitSet::full(n), &child_meter);
        let in_sol = Tracked::new(BitSet::new(m), &child_meter);
        let sol = Tracked::new(Vec::new(), &child_meter);
        let mut run = Self {
            k,
            universe: n,
            allowed_residual: n.saturating_sub(required),
            max_iterations: (1.0 / cfg.delta).ceil() as usize,
            sample_want: sample_size_for(cfg, k, n, m),
            stream: child_stream,
            meter: child_meter,
            rng,
            phase: Phase::Pass1, // placeholder; begin_iteration decides
            iteration: 0,
            result: None,
            live: Some(live),
            in_sol: Some(in_sol),
            sol: Some(sol),
            sample: None,
            l_sample: None,
            proj_sets: None,
            proj_elems: None,
            threshold: 0.0,
            scratch: Vec::new(),
        };
        run.begin_iteration();
        run
    }

    fn wants_scan(&self) -> bool {
        self.phase != Phase::Finished
    }

    fn absorb(&mut self, id: SetId, elems: &[ElemId]) {
        match self.phase {
            Phase::Pass1 => self.pass1_item(id, elems),
            Phase::Pass2 => self.pass2_item(id, elems),
            Phase::GoalSweep => self.goal_item(id, elems),
            Phase::Finished => unreachable!("finished guesses leave the scan group"),
        }
    }

    fn end_scan(&mut self) {
        match self.phase {
            Phase::Pass1 => self.finish_pass1(),
            Phase::Pass2 => self.finish_pass2(),
            Phase::GoalSweep => self.finish(),
            Phase::Finished => unreachable!("finished guesses leave the scan group"),
        }
    }

    /// Emits one set into the solution (id list + membership mask), in
    /// the exact order the sequential path charges them.
    fn emit(&mut self, id: SetId) {
        self.sol
            .as_mut()
            .expect("live until finish")
            .mutate(&self.meter, |s| s.push(id));
        self.in_sol
            .as_mut()
            .expect("live until finish")
            .mutate(&self.meter, |s| {
                s.insert(id);
            });
    }

    /// Starts iteration `self.iteration`, or moves on to the goal sweep
    /// / finish when the iteration budget or the goal is reached.
    fn begin_iteration(&mut self) {
        let live = self.live.as_ref().expect("live until finish");
        if self.iteration >= self.max_iterations || live.get().count() <= self.allowed_residual {
            self.maybe_goal_sweep();
            return;
        }
        let uncovered = live.get().count();
        let want = self.sample_want.min(uncovered);
        let sample = Tracked::new(
            sample_from_bitset(live.get(), want, &mut self.rng),
            &self.meter,
        );
        let sample_len = sample.get().len();
        let l_sample = Tracked::new(
            BitSet::from_iter(self.universe, sample.get().iter().copied()),
            &self.meter,
        );
        self.threshold = sample_len as f64 / self.k as f64;
        self.proj_sets = Some(Tracked::new(Vec::new(), &self.meter));
        self.proj_elems = Some(Tracked::new(Vec::new(), &self.meter));
        self.sample = Some(sample);
        self.l_sample = Some(l_sample);
        self.phase = Phase::Pass1;
    }

    /// Pass 1, one set: size test against the leftover sample; heavy
    /// sets are emitted, small sets store their projection.
    fn pass1_item(&mut self, id: SetId, elems: &[ElemId]) {
        let l_sample = self.l_sample.as_ref().expect("pass-1 state");
        self.scratch.clear();
        self.scratch.extend(
            elems
                .iter()
                .copied()
                .filter(|&e| l_sample.get().contains(e)),
        );
        if self.scratch.is_empty() {
            return;
        }
        if self.scratch.len() as f64 >= self.threshold {
            self.emit(id);
            let covered = std::mem::take(&mut self.scratch);
            self.l_sample
                .as_mut()
                .expect("pass-1 state")
                .mutate(&self.meter, |l| {
                    for &e in &covered {
                        l.remove(e);
                    }
                });
            self.scratch = covered;
        } else {
            self.proj_sets
                .as_mut()
                .expect("pass-1 state")
                .mutate(&self.meter, |p| p.push(id));
            let covered = self.scratch.clone();
            self.proj_elems
                .as_mut()
                .expect("pass-1 state")
                .mutate(&self.meter, |p| p.push(covered));
        }
    }

    /// After pass 1: greedy on the stored projections (the partial
    /// variant always uses the linear-space greedy oracle), then
    /// release the iteration's stores.
    fn finish_pass1(&mut self) {
        let sample = self.sample.take().expect("pass-1 state");
        let l_sample = self.l_sample.take().expect("pass-1 state");
        let proj_sets = self.proj_sets.take().expect("pass-1 state");
        let proj_elems = self.proj_elems.take().expect("pass-1 state");
        if !l_sample.get().is_empty() {
            let scratch_words = l_sample.get().as_words().len() + proj_sets.get().len();
            self.meter.charge(scratch_words);
            let elems = proj_elems.get();
            let picks =
                sc_offline::greedy_slices(elems.len(), |i| elems[i].as_slice(), l_sample.get());
            self.meter.release(scratch_words);
            let Some(picks) = picks else {
                // Some sampled element is in no set at all: abort.
                let _ = sample.release(&self.meter);
                let _ = l_sample.release(&self.meter);
                let _ = proj_sets.release(&self.meter);
                let _ = proj_elems.release(&self.meter);
                let _ = self
                    .live
                    .take()
                    .expect("live until finish")
                    .release(&self.meter);
                let _ = self
                    .in_sol
                    .take()
                    .expect("live until finish")
                    .release(&self.meter);
                let _ = self
                    .sol
                    .take()
                    .expect("live until finish")
                    .release(&self.meter);
                self.result = None;
                self.phase = Phase::Finished;
                return;
            };
            for idx in picks {
                let id = proj_sets.get()[idx];
                self.emit(id);
            }
        }
        let _ = sample.release(&self.meter);
        let _ = l_sample.release(&self.meter);
        let _ = proj_sets.release(&self.meter);
        let _ = proj_elems.release(&self.meter);
        self.phase = Phase::Pass2;
    }

    /// Pass 2, one set: recompute the uncovered set from emitted ids.
    fn pass2_item(&mut self, id: SetId, elems: &[ElemId]) {
        if self
            .in_sol
            .as_ref()
            .expect("live until finish")
            .get()
            .contains(id)
        {
            self.live
                .as_mut()
                .expect("live until finish")
                .mutate(&self.meter, |l| {
                    for &e in elems {
                        l.remove(e);
                    }
                });
        }
    }

    fn finish_pass2(&mut self) {
        self.iteration += 1;
        self.begin_iteration();
    }

    /// Decides between the goal sweep and finishing.
    fn maybe_goal_sweep(&mut self) {
        let live = self.live.as_ref().expect("live until finish");
        if live.get().count() > self.allowed_residual {
            self.phase = Phase::GoalSweep;
        } else {
            self.finish();
        }
    }

    /// Goal sweep, one set: like the cleanup pass, but only down to the
    /// goal — no-ops once the residual is small enough (the sequential
    /// path breaks out of the scan; skipping the remaining items is the
    /// same state transition).
    fn goal_item(&mut self, id: SetId, elems: &[ElemId]) {
        let live = self.live.as_ref().expect("live until finish");
        if live.get().count() <= self.allowed_residual {
            return;
        }
        if self
            .in_sol
            .as_ref()
            .expect("live until finish")
            .get()
            .contains(id)
        {
            return;
        }
        if elems.iter().any(|&e| live.get().contains(e)) {
            self.emit(id);
            self.live
                .as_mut()
                .expect("live until finish")
                .mutate(&self.meter, |l| {
                    for &e in elems {
                        l.remove(e);
                    }
                });
        }
    }

    /// Releases everything and records the outcome.
    fn finish(&mut self) {
        let live = self.live.take().expect("live until finish");
        let done = live.get().count() <= self.allowed_residual;
        let _ = live.release(&self.meter);
        let _ = self
            .in_sol
            .take()
            .expect("live until finish")
            .release(&self.meter);
        let sol = self
            .sol
            .take()
            .expect("live until finish")
            .release(&self.meter);
        self.result = done.then_some(sol);
        self.phase = Phase::Finished;
    }
}

/// Drives all guesses of one ε-partial `iterSetCover` query through
/// shared physical scans.
///
/// Same scan protocol as [`crate::multiplex::IterCoverDriver`]:
/// [`begin_scan`](Self::begin_scan), hand
/// [`participants`](Self::participants) to
/// [`SetStream::shared_pass`], [`absorb`](Self::absorb) every item,
/// [`end_scan`](Self::end_scan); once [`wants_scan`](Self::wants_scan)
/// turns false, [`finish_into`](Self::finish_into) merges the guesses
/// and absorbs pass/space accounting into the query's parent handles.
pub struct PartialCoverDriver<'a> {
    inner: ScanDriver<'a, PartialGuessRun<'a>>,
}

impl<'a> GuessMachine<'a> for PartialGuessRun<'a> {
    /// The ε-partial family shares no per-item state across guesses:
    /// every scanning guess absorbs every item itself (the default
    /// group hooks).
    type Shared = ();

    fn make_shared(_machines: &[Self]) -> Self::Shared {}

    fn wants_scan(&self) -> bool {
        PartialGuessRun::wants_scan(self)
    }

    fn stream(&self) -> &SetStream<'a> {
        &self.stream
    }

    fn absorb(&mut self, id: SetId, elems: &[ElemId]) {
        PartialGuessRun::absorb(self, id, elems);
    }

    fn end_scan(&mut self) {
        PartialGuessRun::end_scan(self);
    }

    fn into_outcome(self) -> MachineOutcome {
        debug_assert_eq!(self.phase, Phase::Finished);
        MachineOutcome {
            result: self.result,
            traces: Vec::new(),
            passes: self.stream.passes(),
            peak: self.meter.peak(),
        }
    }
}

impl<'a> PartialCoverDriver<'a> {
    /// Spawns the guess machines for a query that must cover at least
    /// `required` elements. With `required == 0` (or an empty universe)
    /// no guess is spawned and the query finishes with an empty cover,
    /// exactly as the sequential path returns early.
    pub fn new(
        cfg: &IterSetCoverConfig,
        required: usize,
        stream: &SetStream<'a>,
        meter: &SpaceMeter,
    ) -> Self {
        let n = stream.universe();
        let mut guesses = Vec::new();
        if n > 0 && required > 0 {
            let mut i = 0u32;
            loop {
                let k = 1usize << i;
                guesses.push(PartialGuessRun::new(cfg, k, required, stream, meter));
                if k >= n {
                    break;
                }
                i += 1;
            }
        }
        Self {
            inner: ScanDriver::new(guesses),
        }
    }

    /// `true` while at least one guess still needs a physical scan.
    pub fn wants_scan(&self) -> bool {
        self.inner.wants_scan()
    }

    /// The 1-based index of the logical pass the query needs next (see
    /// [`ScanDriver::pass_index`]) — what a pass-aligned scheduler
    /// matches against the scan it splices this query into.
    pub fn pass_index(&self) -> usize {
        self.inner.pass_index()
    }

    /// Collects the guesses participating in the next scan.
    pub fn begin_scan(&mut self) {
        self.inner.begin_scan();
    }

    /// The forked streams of the participating guesses — hand these to
    /// [`SetStream::shared_pass`] so each logs its logical pass. Valid
    /// after [`begin_scan`](Self::begin_scan).
    pub fn participants(&self) -> Vec<&SetStream<'a>> {
        self.inner.participants()
    }

    /// Feeds one stream item to every participating guess.
    pub fn absorb(&mut self, id: SetId, elems: &[ElemId]) {
        self.inner.absorb(id, elems);
    }

    /// Feeds a run of stream items (see [`ScanDriver::absorb_items`]);
    /// items must arrive in repository order across the calls of one
    /// scan.
    pub fn absorb_items(&mut self, items: impl IntoIterator<Item = (SetId, &'a [ElemId])>) {
        self.inner.absorb_items(items);
    }

    /// Runs every participating guess's between-scan transition.
    pub fn end_scan(&mut self) {
        self.inner.end_scan();
    }

    /// Merges the finished guesses (k ascending, first minimal cover
    /// wins — the sequential tie-break) and absorbs pass counts (max)
    /// and space peaks (sum) into the parent stream and meter. See
    /// [`ScanDriver::finish_into`] for the single-source merge rule.
    pub fn finish_into(self, stream: &SetStream<'a>, meter: &SpaceMeter) -> Vec<SetId> {
        self.inner.finish_into(stream, meter).0
    }
}
