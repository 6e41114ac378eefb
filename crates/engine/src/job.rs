//! Job state: the unit of work the engine's worker pool executes.
//!
//! A job is a run of chunks, each evaluated for every requested policy in
//! one pass ([`IterationPlan::evaluate_chunk_policies_with`], the work
//! decomposition of [`drhw_sim::IterationPlan::run`]). Workers claim chunks
//! in increasing order and record one [`ChunkStats`] result per policy; the
//! fold takes chunks strictly in chunk order and merges each policy's
//! result into that policy's running sum, which is what makes the final
//! reports bit-identical regardless of worker count, claim interleaving or
//! how many other jobs share the pool. The job keeps only the results the
//! fold cannot use yet: chunks recorded ahead of an earlier one still in
//! flight, and, while a progress receiver exists, the later policies'
//! chunks, because the [`ProgressEvent`] stream runs in (policy, chunk)
//! order. Everything that changes while the job runs sits behind one
//! mutex, so a claim, a record or a cancel is one critical section.
//!
//! A failed policy ends its own run: later claims carry only the policies
//! ahead of the earliest failed one, whose chunks may still hold an earlier
//! error in (policy, chunk) order, so the job resolves to the same first
//! error at any worker count.
//!
//! Cancellation is cooperative: [`JobHandle::cancel`] sets a flag checked
//! by every claim, so a cancelled job stops within one chunk of work per
//! worker and resolves to [`EngineError::Cancelled`].

use std::collections::{BTreeMap, VecDeque};
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

/// One claimed unit of work: a chunk, for the first `policies` requested
/// policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Claim {
    /// The chunk to evaluate.
    pub(crate) chunk: usize,
    /// How many of the job's policies, from the first, to evaluate.
    pub(crate) policies: usize,
}

/// One policy's side of the fold.
#[derive(Default)]
struct PolicyFold {
    /// How many of the policy's chunks, from the first, are merged.
    merged: usize,
    /// Their sum, in chunk order.
    running: ChunkStats,
    /// The policy's next chunks, in order, taken by the fold but not merged
    /// yet because an earlier policy's progress events are still due.
    held: VecDeque<ChunkStats>,
}

/// A chunk's results, one per policy the claim carried, in policy order.
type ChunkResults = Vec<Result<ChunkStats, SimError>>;

/// Everything about a job that changes while it runs, guarded by one mutex.
struct JobInner {
    /// Next chunk to claim; every chunk below it has been handed out.
    next_chunk: usize,
    /// Chunks per policy.
    chunks: usize,
    /// Policies a claim carries: those ahead of the earliest one that
    /// recorded an error (all of them while none has).
    live: usize,
    /// Claimed chunks whose results are not recorded yet.
    in_flight: usize,
    /// Set by [`JobState::cancel`].
    cancelled: bool,
    /// Chunks the fold has taken; every chunk below it was recorded.
    folded: usize,
    /// Results recorded ahead of the fold, by chunk.
    early: BTreeMap<usize, ChunkResults>,
    /// Policies the fold still takes results of: those ahead of the
    /// earliest policy whose error it met.
    folding: usize,
    /// The first error in (policy, chunk) order the fold met.
    first_error: Option<SimError>,
    /// One fold per policy, in policy order.
    folds: Vec<PolicyFold>,
    /// Progress sink; dropped (closing the receiver) when the job resolves,
    /// or as soon as a send finds the receiver gone.
    progress: Option<mpsc::Sender<ProgressEvent>>,
    /// The job's result, once it resolved.
    outcome: Option<JobResult>,
}

impl JobInner {
    /// Whether no further chunk will be claimed: the job was cancelled, the
    /// first policy failed, or every chunk has been handed out.
    fn stopped(&self) -> bool {
        self.cancelled || self.live == 0 || self.next_chunk == self.chunks
    }
}

/// Shared state of one submitted job.
pub(crate) struct JobState {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) workload: String,
    pub(crate) policies: Vec<PolicyKind>,
    /// The cached plan with this job's run configuration stamped on; its
    /// configuration and platform size the job's fold and seal its reports.
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
        let (live, chunks) = (policies.len(), plan.chunk_count());
        JobState {
            id,
            spec,
            workload,
            policies,
            plan,
            cache_hit,
            inner: Mutex::new(JobInner {
                next_chunk: 0,
                chunks,
                live,
                in_flight: 0,
                cancelled: false,
                folded: 0,
                early: BTreeMap::new(),
                folding: live,
                first_error: None,
                folds: std::iter::repeat_with(PolicyFold::default)
                    .take(live)
                    .collect(),
                progress: Some(progress),
                outcome: None,
            }),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, JobInner> {
        self.inner.lock().expect("job lock is never poisoned")
    }

    /// Whether a worker could still claim a chunk right now.
    pub(crate) fn claimable(&self) -> bool {
        !self.lock().stopped()
    }

    /// Claims the next chunk for the policies still running, or `None`
    /// when the job stopped accepting work (exhausted, failed or
    /// cancelled). A successful claim **must** be followed by
    /// [`record`](Self::record).
    pub(crate) fn claim(&self) -> Option<Claim> {
        let mut inner = self.lock();
        if inner.stopped() {
            return None;
        }
        let claim = Claim {
            chunk: inner.next_chunk,
            policies: inner.live,
        };
        inner.next_chunk += 1;
        inner.in_flight += 1;
        Some(claim)
    }

    /// Records a claimed chunk's results — one per policy the claim
    /// carried, in policy order — advances the ordered fold (emitting
    /// progress events) and resolves the job when it was the last
    /// outstanding claim.
    pub(crate) fn record(
        &self,
        claim: Claim,
        results: impl IntoIterator<Item = Result<ChunkStats, SimError>>,
    ) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let results: ChunkResults = results.into_iter().collect();
        if let Some(policy) = results.iter().position(Result::is_err) {
            inner.live = inner.live.min(policy);
        }
        inner.in_flight -= 1;
        if claim.chunk == inner.folded {
            self.fold_chunk(inner, results);
        } else {
            inner.early.insert(claim.chunk, results);
        }
        while let Some(results) = inner.early.remove(&inner.folded) {
            self.fold_chunk(inner, results);
        }
        self.resolve_if_settled(inner);
    }

    /// Takes the next chunk's results into the fold: each policy still
    /// folding queues its result, and the first error met ends the fold of
    /// its policy and of every later one — their results from here on come
    /// after it in (policy, chunk) order. Then merges what is due.
    fn fold_chunk(&self, inner: &mut JobInner, results: ChunkResults) {
        for (policy, result) in results.into_iter().enumerate().take(inner.folding) {
            match result {
                Ok(stats) => inner.folds[policy].held.push_back(stats),
                Err(error) => {
                    inner.folding = policy;
                    inner.first_error = Some(error);
                    for later in &mut inner.folds[policy + 1..] {
                        later.held.clear();
                    }
                    break;
                }
            }
        }
        inner.folded += 1;
        self.merge_due(inner);
    }

    /// Merges every queued chunk whose turn has come, in (policy, chunk)
    /// order — per policy the exact fold `IterationPlan::run` performs, so
    /// the final reports are bit-identical to its — sending one progress
    /// event per merged chunk while a receiver exists. With a receiver, a
    /// policy's chunks wait until every earlier policy merged all of its
    /// own; without one, each merges as soon as it is queued.
    fn merge_due(&self, inner: &mut JobInner) {
        let tiles = self.plan.platform().tile_count();
        let (iterations, chunk_size) =
            (self.plan.config().iterations, self.plan.config().chunk_size);
        for (position, &policy) in self.policies.iter().enumerate() {
            let fold = &mut inner.folds[position];
            while let Some(stats) = fold.held.pop_front() {
                fold.running.merge(&stats);
                let chunk = fold.merged;
                fold.merged += 1;
                let Some(sender) = &inner.progress else {
                    continue;
                };
                // Sealing a partial report costs a clone: only build the
                // event while someone may read it.
                let iterations_done = ((chunk + 1) * chunk_size).min(iterations);
                let event = ProgressEvent {
                    job: self.id,
                    policy,
                    chunk,
                    chunks_per_policy: inner.chunks,
                    iterations_done,
                    partial_stats: fold.running.clone().finish(policy, tiles, iterations_done),
                };
                if sender.send(event).is_err() {
                    // The receiver is gone: nobody will read another event.
                    inner.progress = None;
                }
            }
            if inner.progress.is_some() && fold.merged < inner.chunks {
                break;
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
    /// first error in (policy, chunk) order, else to the reports if every
    /// chunk folded, else to [`EngineError::Cancelled`]. Does nothing before
    /// that, or after the job resolved.
    fn resolve_if_settled(&self, inner: &mut JobInner) {
        if inner.outcome.is_some() || inner.in_flight > 0 || !inner.stopped() {
            return;
        }
        // Chunks are claimed in increasing order and every claim is
        // recorded, so with nothing in flight the fold has taken every
        // claimed chunk. A policy drops out of claims only once it failed,
        // and every chunk claimed before that carried it, so the first error
        // the fold met is the first one the sequential run meets.
        let result: JobResult = if let Some(error) = inner.first_error.clone() {
            Err(EngineError::Sim {
                workload: self.workload.clone(),
                source: error,
            })
        } else if inner.folded == inner.chunks {
            let tiles = self.plan.platform().tile_count();
            let iterations = self.plan.config().iterations;
            Ok(inner
                .folds
                .iter_mut()
                .zip(&self.policies)
                .map(|(fold, &policy)| {
                    std::mem::take(&mut fold.running).finish(policy, tiles, iterations)
                })
                .collect())
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
    /// when the job resolves. Returns `None` on second call. Events are
    /// built only while a receiver exists, so a caller that does not want
    /// them should take the stream and drop it.
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

    /// A job of `policies` over three chunks of four iterations, and the
    /// receiving end of its progress stream.
    fn three_chunk_job(policies: &[PolicyKind]) -> (JobState, mpsc::Receiver<ProgressEvent>) {
        let workload = WorkloadRegistry::with_builtins()
            .resolve("multimedia")
            .unwrap();
        let platform = Platform::virtex_like(8).unwrap();
        let config = SimulationConfig::quick()
            .with_iterations(12)
            .with_chunk_size(4);
        let plan = IterationPlan::new(&workload.task_set(), &platform, config).unwrap();
        assert_eq!(plan.chunk_count(), 3);
        let spec = JobSpec::new("multimedia").with_policies(policies);
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

    /// What a worker records for `claim`.
    fn evaluate(job: &JobState, claim: Claim) -> Vec<Result<ChunkStats, SimError>> {
        let mut scratch = job.plan.make_scratch();
        job.plan
            .evaluate_chunk_policies_with(
                &job.policies[..claim.policies],
                claim.chunk,
                &mut scratch,
            )
            .collect()
    }

    #[test]
    fn slots_claimed_before_a_cancel_still_fold_in_order() {
        let (job, progress) = three_chunk_job(&[POLICY]);
        let claims: Vec<Claim> = (0..3).map(|_| job.claim().unwrap()).collect();
        let chunks: Vec<usize> = claims.iter().map(|claim| claim.chunk).collect();
        assert_eq!(chunks, [0, 1, 2]);
        job.cancel();
        assert!(job.poll().is_none(), "three chunks are still in flight");
        for &claim in claims.iter().rev() {
            job.record(claim, evaluate(&job, claim));
        }
        assert_eq!(job.wait(), Ok(job.plan.run(&[POLICY]).unwrap()));
        let chunks: Vec<usize> = progress.iter().map(|event| event.chunk).collect();
        assert_eq!(chunks, [0, 1, 2], "the stream closes after the last chunk");
    }

    #[test]
    fn a_cancelled_job_resolves_only_once_its_claimed_slot_is_recorded() {
        let (job, _progress) = three_chunk_job(&[POLICY]);
        let claim = job.claim().unwrap();
        job.cancel();
        assert_eq!(job.claim(), None);
        assert!(
            job.poll().is_none(),
            "chunk {} is still in flight",
            claim.chunk
        );
        job.record(claim, evaluate(&job, claim));
        assert_eq!(job.wait(), Err(EngineError::Cancelled { job: job.id }));
    }

    #[test]
    fn a_failed_slot_stops_claims_and_resolves_to_its_error() {
        let (job, _progress) = three_chunk_job(&[POLICY]);
        let (first, second) = (job.claim().unwrap(), job.claim().unwrap());
        job.record(first, evaluate(&job, first));
        job.record(second, [Err(SimError::NoIterations)]);
        assert_eq!(job.claim(), None);
        assert_eq!(
            job.wait(),
            Err(EngineError::Sim {
                workload: "multimedia".to_string(),
                source: SimError::NoIterations,
            })
        );
    }

    #[test]
    fn the_first_error_in_policy_order_wins_over_an_earlier_chunk() {
        // Policy 1 fails in chunk 0, policy 0 in chunk 2: (policy 0,
        // chunk 2) comes first in (policy, chunk) order, so policy 0 must
        // keep running after policy 1 failed, and alone.
        let (job, _progress) = three_chunk_job(&[PolicyKind::RunTime, POLICY]);
        let policy_error = |chunk| {
            SimError::Prefetch(drhw_prefetch::PrefetchError::NotEnoughTiles {
                required: chunk,
                available: 0,
            })
        };
        let claim = job.claim().unwrap();
        assert_eq!(
            claim,
            Claim {
                chunk: 0,
                policies: 2
            }
        );
        job.record(claim, [Ok(ChunkStats::default()), Err(policy_error(0))]);
        for chunk in 1..3 {
            let claim = job.claim().unwrap();
            assert_eq!(claim, Claim { chunk, policies: 1 });
            let result = if chunk == 2 {
                Err(policy_error(2))
            } else {
                Ok(ChunkStats::default())
            };
            job.record(claim, [result]);
        }
        assert_eq!(job.claim(), None);
        assert_eq!(
            job.wait(),
            Err(EngineError::Sim {
                workload: "multimedia".to_string(),
                source: policy_error(2),
            })
        );
    }

    #[test]
    fn a_dropped_progress_receiver_stops_the_events() {
        let (job, progress) = three_chunk_job(&[POLICY]);
        drop(progress);
        let claim = job.claim().unwrap();
        job.record(claim, evaluate(&job, claim));
        assert!(
            job.lock().progress.is_none(),
            "the first failed send closes the stream"
        );
        while let Some(claim) = job.claim() {
            job.record(claim, evaluate(&job, claim));
        }
        assert_eq!(job.wait(), Ok(job.plan.run(&[POLICY]).unwrap()));
    }

    /// How many results the job keeps: (chunks recorded ahead of the fold,
    /// chunks held per policy).
    fn kept(job: &JobState) -> (usize, Vec<usize>) {
        let inner = job.lock();
        let held = inner.folds.iter().map(|fold| fold.held.len()).collect();
        (inner.early.len(), held)
    }

    #[test]
    fn the_job_keeps_only_the_results_the_fold_cannot_use_yet() {
        let policies = [PolicyKind::RunTime, POLICY];
        // While a receiver exists, the second policy's chunks wait for the
        // first policy's events; a chunk recorded early waits for its turn.
        let (job, progress) = three_chunk_job(&policies);
        let claims: Vec<Claim> = (0..3).map(|_| job.claim().unwrap()).collect();
        job.record(claims[2], evaluate(&job, claims[2]));
        assert_eq!(kept(&job), (1, vec![0, 0]));
        job.record(claims[0], evaluate(&job, claims[0]));
        assert_eq!(kept(&job), (1, vec![0, 1]));
        job.record(claims[1], evaluate(&job, claims[1]));
        assert_eq!(kept(&job), (0, vec![0, 0]));
        assert_eq!(job.wait(), Ok(job.plan.run(&policies).unwrap()));
        let order: Vec<_> = progress
            .iter()
            .map(|event| (event.policy, event.chunk))
            .collect();
        let expected: Vec<_> = policies
            .iter()
            .flat_map(|&policy| (0..3).map(move |chunk| (policy, chunk)))
            .collect();
        assert_eq!(order, expected);

        // Without a receiver, every chunk the fold takes merges at once.
        let (job, progress) = three_chunk_job(&policies);
        drop(progress);
        while let Some(claim) = job.claim() {
            job.record(claim, evaluate(&job, claim));
            assert_eq!(kept(&job), (0, vec![0, 0]));
        }
        assert_eq!(job.wait(), Ok(job.plan.run(&policies).unwrap()));
    }
}
