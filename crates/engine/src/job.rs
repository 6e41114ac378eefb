//! Job state: the unit of work the engine's worker pool executes.
//!
//! A job is `policies × chunks` independent slots (exactly the work
//! decomposition of [`drhw_sim::IterationPlan::run`]). Workers claim slots
//! from an atomic counter and record [`ChunkStats`] results; a fold cursor
//! advances strictly in (policy, chunk) order, which is what makes the final
//! reports — and the [`ProgressEvent`] stream — bit-identical regardless of
//! worker count, claim interleaving or how many other jobs share the pool.
//!
//! Cancellation is cooperative: [`JobHandle::cancel`] flips a flag checked
//! before every claim, so a cancelled job stops within one chunk of work per
//! worker and resolves to [`EngineError::Cancelled`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use drhw_prefetch::PolicyKind;
use drhw_sim::{ChunkStats, IterationPlan, SimError, SimulationReport};

use crate::error::EngineError;
use crate::spec::JobSpec;

/// Identifier of a submitted job, unique within one [`Engine`](crate::Engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Wraps a raw id.
    pub fn new(id: u64) -> Self {
        JobId(id)
    }

    /// The raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One step of a job's progress stream: a chunk of consecutive iterations
/// finished folding.
///
/// Events arrive in strict (policy, chunk) order with deterministic
/// contents: the same `JobSpec` produces the same event sequence on any
/// engine. The final event of each policy carries `iterations_done ==
/// iterations` and `partial_stats` equal to the policy's report in the final
/// result.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEvent {
    /// The job this event belongs to.
    pub job: JobId,
    /// The policy currently being folded.
    pub policy: PolicyKind,
    /// Index of the chunk that finished folding (within this policy).
    pub chunk: usize,
    /// Chunks per policy in this job.
    pub chunks_per_policy: usize,
    /// Iterations of this policy folded so far.
    pub iterations_done: usize,
    /// The policy's statistics folded so far, sealed over `iterations_done`
    /// iterations.
    pub partial_stats: SimulationReport,
}

/// What a finished job resolves to.
pub type JobResult = Result<Vec<SimulationReport>, EngineError>;

/// The ordered fold of chunk results, guarded by one mutex.
struct FoldState {
    /// One slot per (policy, chunk), in (policy, chunk) order.
    slots: Vec<Option<Result<ChunkStats, SimError>>>,
    /// Next slot to fold; everything before it has been merged.
    cursor: usize,
    /// Running fold of the policy the cursor is inside.
    running: ChunkStats,
    /// Finished per-policy reports, in policy order.
    reports: Vec<SimulationReport>,
    /// Progress sink; dropped (closing the receiver) at finalisation.
    progress: Option<mpsc::Sender<ProgressEvent>>,
    /// Whether the job has been finalised.
    finalized: bool,
}

/// Shared state of one submitted job.
pub(crate) struct JobState {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) workload: String,
    pub(crate) policies: Vec<PolicyKind>,
    /// The cached plan with this job's run configuration stamped on; its
    /// configuration and platform size the job's slots and seal its reports.
    pub(crate) plan: IterationPlan,
    /// Whether this job's plan came out of the cache without preparation.
    pub(crate) cache_hit: bool,
    next_slot: AtomicUsize,
    in_flight: AtomicUsize,
    cancelled: AtomicBool,
    failed: AtomicBool,
    fold: Mutex<FoldState>,
    outcome: Mutex<Option<JobResult>>,
    done: Condvar,
}

impl JobState {
    pub(crate) fn new(
        id: JobId,
        spec: JobSpec,
        workload: String,
        plan: IterationPlan,
        cache_hit: bool,
        progress: mpsc::Sender<ProgressEvent>,
    ) -> Self {
        let policies = spec.resolved_policies();
        let slots = policies.len() * plan.chunk_count();
        JobState {
            id,
            spec,
            workload,
            policies,
            plan,
            cache_hit,
            next_slot: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            fold: Mutex::new(FoldState {
                slots: std::iter::repeat_with(|| None).take(slots).collect(),
                cursor: 0,
                running: ChunkStats::default(),
                reports: Vec::new(),
                progress: Some(progress),
                finalized: false,
            }),
            outcome: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    pub(crate) fn total_slots(&self) -> usize {
        self.policies.len() * self.plan.chunk_count()
    }

    /// Whether a worker could still claim a slot right now.
    pub(crate) fn claimable(&self) -> bool {
        !self.cancelled.load(Ordering::SeqCst)
            && !self.failed.load(Ordering::SeqCst)
            && self.next_slot.load(Ordering::SeqCst) < self.total_slots()
    }

    /// Claims the next slot, or `None` when the job stopped accepting work
    /// (exhausted, failed or cancelled). A successful claim **must** be
    /// followed by [`record`](Self::record).
    pub(crate) fn claim(&self) -> Option<usize> {
        // Count the attempt as in-flight *before* taking a slot so no
        // observer can see a claimed-but-unaccounted slot (the finalisation
        // condition relies on `in_flight == 0` implying every claimed slot
        // has been recorded).
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.cancelled.load(Ordering::SeqCst) || self.failed.load(Ordering::SeqCst) {
            self.abandon_claim();
            return None;
        }
        let slot = self.next_slot.fetch_add(1, Ordering::SeqCst);
        if slot >= self.total_slots() {
            self.abandon_claim();
            return None;
        }
        Some(slot)
    }

    fn abandon_claim(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.try_finalize();
        }
    }

    /// The (policy, chunk) pair a slot index denotes.
    pub(crate) fn slot_work(&self, slot: usize) -> (PolicyKind, usize) {
        let chunks = self.plan.chunk_count();
        (self.policies[slot / chunks], slot % chunks)
    }

    /// Records a claimed slot's result, advances the ordered fold (emitting
    /// progress events) and finalises the job when it was the last
    /// outstanding slot.
    pub(crate) fn record(&self, slot: usize, result: Result<ChunkStats, SimError>) {
        {
            let mut fold = self.fold.lock().expect("job fold lock is never poisoned");
            if result.is_err() {
                self.failed.store(true, Ordering::SeqCst);
            }
            fold.slots[slot] = Some(result);
            self.advance_fold(&mut fold);
        }
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.try_finalize();
        }
    }

    /// Folds every contiguously-available `Ok` slot past the cursor, in
    /// (policy, chunk) order — the exact fold `IterationPlan::run` performs,
    /// so the final reports are bit-identical to its.
    fn advance_fold(&self, fold: &mut FoldState) {
        while fold.cursor < fold.slots.len() {
            let Some(Ok(stats)) = &fold.slots[fold.cursor] else {
                // A hole (chunk still running) or an error: the fold stops
                // here. Errors are resolved at finalisation so the *first*
                // error in slot order wins deterministically.
                break;
            };
            fold.running.merge(stats);
            let slot = fold.cursor;
            fold.cursor += 1;
            let (policy, chunk) = self.slot_work(slot);
            let iterations = self.plan.config().iterations;
            let iterations_done = ((chunk + 1) * self.plan.config().chunk_size).min(iterations);
            let tiles = self.plan.platform().tile_count();
            let partial = fold.running.clone().finish(policy, tiles, iterations_done);
            let chunks_per_policy = self.plan.chunk_count();
            if chunk + 1 == chunks_per_policy {
                // Policy complete: seal its report and restart the fold.
                fold.reports
                    .push(std::mem::take(&mut fold.running).finish(policy, tiles, iterations));
            }
            if let Some(sender) = &fold.progress {
                // A dropped receiver just means nobody is listening.
                let _ = sender.send(ProgressEvent {
                    job: self.id,
                    policy,
                    chunk,
                    chunks_per_policy,
                    iterations_done,
                    partial_stats: partial,
                });
            }
        }
    }

    /// Requests cooperative cancellation. Claimed chunks finish; no further
    /// chunk starts.
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        if self.in_flight.load(Ordering::SeqCst) == 0 {
            self.try_finalize();
        }
    }

    /// Finalises the job if every claimed slot has been recorded and no more
    /// will be claimed. Idempotent; callable from any thread.
    pub(crate) fn try_finalize(&self) {
        let mut fold = self.fold.lock().expect("job fold lock is never poisoned");
        if fold.finalized {
            return;
        }
        // Read the stop flags and the slot counter BEFORE `in_flight`. A
        // claim raises `in_flight` before it checks the flags and takes a
        // slot, so a zero read after them proves every claim they count has
        // been recorded. Read the other way round, a claim of the last slot
        // can land between the two reads, and a live job resolves as
        // cancelled while that slot is still running.
        let total = self.total_slots();
        let claimed = self.next_slot.load(Ordering::SeqCst).min(total);
        let stopped = self.cancelled.load(Ordering::SeqCst)
            || self.failed.load(Ordering::SeqCst)
            || claimed >= total;
        if !stopped || self.in_flight.load(Ordering::SeqCst) != 0 {
            return;
        }
        // Workers claim slots in increasing order with no gaps and record
        // every claim, so with in_flight == 0 the filled slots are exactly
        // 0..claimed and the first error in slot order is deterministic.
        let first_error = fold.slots[..claimed]
            .iter()
            .flatten()
            .find_map(|r| r.as_ref().err())
            .cloned();
        let result: JobResult = if let Some(error) = first_error {
            Err(EngineError::Sim {
                workload: self.workload.clone(),
                source: error,
            })
        } else if fold.cursor == total {
            Ok(fold.reports.clone())
        } else {
            debug_assert!(self.cancelled.load(Ordering::SeqCst));
            Err(EngineError::Cancelled { job: self.id })
        };
        fold.finalized = true;
        // Close the progress stream so receivers observe the end.
        fold.progress = None;
        drop(fold);
        *self
            .outcome
            .lock()
            .expect("job outcome lock is never poisoned") = Some(result);
        self.done.notify_all();
    }

    /// Blocks until the job resolves and returns (a clone of) its result.
    pub(crate) fn wait(&self) -> JobResult {
        let mut outcome = self
            .outcome
            .lock()
            .expect("job outcome lock is never poisoned");
        loop {
            if let Some(result) = outcome.as_ref() {
                return result.clone();
            }
            outcome = self
                .done
                .wait(outcome)
                .expect("job outcome lock is never poisoned");
        }
    }

    /// The result if the job already resolved.
    pub(crate) fn poll(&self) -> Option<JobResult> {
        self.outcome
            .lock()
            .expect("job outcome lock is never poisoned")
            .clone()
    }
}

/// Client-side handle of a submitted job.
///
/// Dropping the handle does **not** cancel the job; call
/// [`cancel`](Self::cancel) for that.
pub struct JobHandle {
    pub(crate) state: Arc<JobState>,
    pub(crate) progress: Option<mpsc::Receiver<ProgressEvent>>,
}

impl JobHandle {
    /// The job's id.
    pub fn id(&self) -> JobId {
        self.state.id
    }

    /// The spec the job was submitted with.
    pub fn spec(&self) -> &JobSpec {
        &self.state.spec
    }

    /// Whether this job's plan was served from the cache (no design-time
    /// work was performed at submission).
    pub fn was_cache_hit(&self) -> bool {
        self.state.cache_hit
    }

    /// Blocks until the job resolves: one report per requested policy, in
    /// request order, or the first error in deterministic (policy, chunk)
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the job's [`EngineError`] — a simulation failure or
    /// [`EngineError::Cancelled`].
    pub fn wait(&self) -> JobResult {
        self.state.wait()
    }

    /// The job's result if it already resolved, without blocking.
    pub fn poll(&self) -> Option<JobResult> {
        self.state.poll()
    }

    /// Requests cooperative cancellation: in-flight chunks finish, nothing
    /// new starts, and [`wait`](Self::wait) resolves to
    /// [`EngineError::Cancelled`] (unless the job had already completed).
    pub fn cancel(&self) {
        self.state.cancel();
    }

    /// Takes the job's progress stream: one [`ProgressEvent`] per folded
    /// chunk, in deterministic (policy, chunk) order. The channel closes
    /// when the job resolves. Returns `None` on second call.
    pub fn progress(&mut self) -> Option<mpsc::Receiver<ProgressEvent>> {
        self.progress.take()
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.state.id)
            .field("workload", &self.state.workload)
            .field("resolved", &self.state.poll().is_some())
            .finish()
    }
}
