//! Job state: the unit of work the engine's worker pool executes.
//!
//! A job is `policies × chunks` independent slots (exactly the work
//! decomposition of [`drhw_sim::IterationPlan::run`]). Workers claim slots
//! in increasing order and record [`ChunkStats`] results; a fold cursor
//! advances strictly in (policy, chunk) order, which is what makes the final
//! reports — and the [`ProgressEvent`] stream — bit-identical regardless of
//! worker count, claim interleaving or how many other jobs share the pool.
//! Everything that changes while the job runs sits behind one mutex, so a
//! claim, a record or a cancel is one critical section.
//!
//! Cancellation is cooperative: [`JobHandle::cancel`] sets a flag checked
//! by every claim, so a cancelled job stops within one chunk of work per
//! worker and resolves to [`EngineError::Cancelled`].

use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};

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

/// Everything about a job that changes while it runs, guarded by one mutex.
struct JobInner {
    /// Next slot to claim; every slot below it has been handed out.
    next_slot: usize,
    /// Claimed slots whose result is not recorded yet.
    in_flight: usize,
    /// Set by [`JobState::cancel`].
    cancelled: bool,
    /// Set when a slot records an error.
    failed: bool,
    /// One slot per (policy, chunk), in (policy, chunk) order.
    slots: Vec<Option<Result<ChunkStats, SimError>>>,
    /// Next slot to fold; everything before it has been merged.
    cursor: usize,
    /// Running fold of the policy the cursor is inside.
    running: ChunkStats,
    /// Finished per-policy reports, in policy order.
    reports: Vec<SimulationReport>,
    /// Progress sink; dropped (closing the receiver) when the job resolves.
    progress: Option<mpsc::Sender<ProgressEvent>>,
    /// The job's result, once it resolved.
    outcome: Option<JobResult>,
}

impl JobInner {
    /// Whether no further slot will be claimed: the job was cancelled, a
    /// slot failed, or every slot has been handed out.
    fn stopped(&self) -> bool {
        self.cancelled || self.failed || self.next_slot == self.slots.len()
    }
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
    inner: Mutex<JobInner>,
    /// Signalled once, when the job resolves.
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
            inner: Mutex::new(JobInner {
                next_slot: 0,
                in_flight: 0,
                cancelled: false,
                failed: false,
                slots: std::iter::repeat_with(|| None).take(slots).collect(),
                cursor: 0,
                running: ChunkStats::default(),
                reports: Vec::new(),
                progress: Some(progress),
                outcome: None,
            }),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, JobInner> {
        self.inner.lock().expect("job lock is never poisoned")
    }

    /// Whether a worker could still claim a slot right now.
    pub(crate) fn claimable(&self) -> bool {
        !self.lock().stopped()
    }

    /// Claims the next slot, or `None` when the job stopped accepting work
    /// (exhausted, failed or cancelled). A successful claim **must** be
    /// followed by [`record`](Self::record).
    pub(crate) fn claim(&self) -> Option<usize> {
        let mut inner = self.lock();
        if inner.stopped() {
            return None;
        }
        let slot = inner.next_slot;
        inner.next_slot += 1;
        inner.in_flight += 1;
        Some(slot)
    }

    /// The (policy, chunk) pair a slot index denotes.
    pub(crate) fn slot_work(&self, slot: usize) -> (PolicyKind, usize) {
        let chunks = self.plan.chunk_count();
        (self.policies[slot / chunks], slot % chunks)
    }

    /// Records a claimed slot's result, advances the ordered fold (emitting
    /// progress events) and resolves the job when it was the last
    /// outstanding slot.
    pub(crate) fn record(&self, slot: usize, result: Result<ChunkStats, SimError>) {
        let mut inner = self.lock();
        inner.failed |= result.is_err();
        inner.slots[slot] = Some(result);
        inner.in_flight -= 1;
        self.advance_fold(&mut inner);
        self.resolve_if_settled(&mut inner);
    }

    /// Folds every contiguously-available `Ok` slot past the cursor, in
    /// (policy, chunk) order — the exact fold `IterationPlan::run` performs,
    /// so the final reports are bit-identical to its.
    fn advance_fold(&self, fold: &mut JobInner) {
        while fold.cursor < fold.slots.len() {
            let Some(Ok(stats)) = &fold.slots[fold.cursor] else {
                // A hole (chunk still running) or an error: the fold stops
                // here. Errors are resolved with the job so the *first*
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
        let mut inner = self.lock();
        inner.cancelled = true;
        self.resolve_if_settled(&mut inner);
    }

    /// Resolves the job once it has stopped with nothing in flight: to the
    /// first error in slot order, else to the reports if every slot folded,
    /// else to [`EngineError::Cancelled`]. Does nothing before that, or
    /// after the job resolved.
    fn resolve_if_settled(&self, inner: &mut JobInner) {
        if inner.outcome.is_some() || inner.in_flight > 0 || !inner.stopped() {
            return;
        }
        // Slots are claimed in increasing order with no gaps and every claim
        // is recorded, so with nothing in flight the filled slots are exactly
        // 0..next_slot and the first error in slot order is deterministic.
        let first_error = inner.slots[..inner.next_slot]
            .iter()
            .flatten()
            .find_map(|r| r.as_ref().err())
            .cloned();
        let result: JobResult = if let Some(error) = first_error {
            Err(EngineError::Sim {
                workload: self.workload.clone(),
                source: error,
            })
        } else if inner.cursor == inner.slots.len() {
            Ok(inner.reports.clone())
        } else {
            debug_assert!(inner.cancelled);
            Err(EngineError::Cancelled { job: self.id })
        };
        inner.outcome = Some(result);
        // Close the progress stream so receivers observe the end.
        inner.progress = None;
        self.done.notify_all();
    }

    /// Blocks until the job resolves and returns (a clone of) its result.
    pub(crate) fn wait(&self) -> JobResult {
        let mut inner = self.lock();
        loop {
            if let Some(result) = &inner.outcome {
                return result.clone();
            }
            inner = self.done.wait(inner).expect("job lock is never poisoned");
        }
    }

    /// The result if the job already resolved.
    pub(crate) fn poll(&self) -> Option<JobResult> {
        self.lock().outcome.clone()
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

// The claim/record/cancel interleavings, forced from one thread: no worker,
// no sleep, so each order below runs exactly as written on every run.
#[cfg(test)]
mod tests {
    use super::*;
    use drhw_model::Platform;
    use drhw_sim::SimulationConfig;
    use drhw_workloads::WorkloadRegistry;

    const POLICY: PolicyKind = PolicyKind::Hybrid;

    /// A one-policy job over three chunks of four iterations, and the
    /// receiving end of its progress stream.
    fn three_chunk_job() -> (JobState, mpsc::Receiver<ProgressEvent>) {
        let workload = WorkloadRegistry::with_builtins()
            .resolve("multimedia")
            .unwrap();
        let platform = Platform::virtex_like(8).unwrap();
        let config = SimulationConfig::quick()
            .with_iterations(12)
            .with_chunk_size(4);
        let plan = IterationPlan::new(&workload.task_set(), &platform, config).unwrap();
        assert_eq!(plan.chunk_count(), 3);
        let spec = JobSpec::new("multimedia").with_policies([POLICY]);
        let (sender, receiver) = mpsc::channel();
        let job = JobState::new(
            JobId::new(7),
            spec,
            "multimedia".to_string(),
            plan,
            false,
            sender,
        );
        (job, receiver)
    }

    fn chunk(job: &JobState, slot: usize) -> Result<ChunkStats, SimError> {
        let (policy, chunk) = job.slot_work(slot);
        job.plan
            .evaluate_chunk_with(policy, chunk, &mut job.plan.make_scratch())
    }

    #[test]
    fn slots_claimed_before_a_cancel_still_fold_in_order() {
        let (job, progress) = three_chunk_job();
        let slots: Vec<usize> = (0..3).map(|_| job.claim().unwrap()).collect();
        assert_eq!(slots, [0, 1, 2]);
        job.cancel();
        assert!(job.poll().is_none(), "three slots are still in flight");
        for &slot in slots.iter().rev() {
            job.record(slot, chunk(&job, slot));
        }
        assert_eq!(job.wait(), Ok(job.plan.run(&[POLICY]).unwrap()));
        let chunks: Vec<usize> = progress.iter().map(|event| event.chunk).collect();
        assert_eq!(chunks, [0, 1, 2], "the stream closes after the last chunk");
    }

    #[test]
    fn a_cancelled_job_resolves_only_once_its_claimed_slot_is_recorded() {
        let (job, _progress) = three_chunk_job();
        let slot = job.claim().unwrap();
        job.cancel();
        assert_eq!(job.claim(), None);
        assert!(job.poll().is_none(), "slot {slot} is still in flight");
        job.record(slot, chunk(&job, slot));
        assert_eq!(job.wait(), Err(EngineError::Cancelled { job: job.id }));
    }

    #[test]
    fn a_failed_slot_stops_claims_and_resolves_to_its_error() {
        let (job, _progress) = three_chunk_job();
        assert_eq!((job.claim(), job.claim()), (Some(0), Some(1)));
        job.record(0, chunk(&job, 0));
        job.record(1, Err(SimError::NoIterations));
        assert_eq!(job.claim(), None);
        assert_eq!(
            job.wait(),
            Err(EngineError::Sim {
                workload: "multimedia".to_string(),
                source: SimError::NoIterations,
            })
        );
    }
}
