//! The engine: a long-lived service front-end over the simulation stack.
//!
//! [`Engine`] owns a [`WorkloadRegistry`], an LRU cache of prepared
//! [`IterationPlan`](drhw_sim::IterationPlan) artifacts and a fixed worker
//! pool. Jobs ([`JobSpec`]) are submitted and executed as chunks claimed by
//! the pool, each evaluated for every requested policy in one pass; the
//! per-policy results are folded in deterministic (policy, chunk) order, so
//! a job's reports are **bit-identical** to the sequential
//! `IterationPlan::run` — regardless of cache hits, worker count or how
//! many jobs run interleaved.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use drhw_model::{Platform, Time};
use drhw_prefetch::PolicyKind;
use drhw_sim::{
    ChunkStats, IterationPlan, SimError, SimScratch, SimulationConfig, SimulationReport,
};
use drhw_workloads::{Workload, WorkloadRegistry};

use crate::cache::{CacheStats, PlanCache, PlanKey, Prepared};
use crate::disk::{workload_fingerprint, DiskPlanCache};
use crate::error::EngineError;
use crate::job::{Claim, JobHandle, JobId, JobState};
use crate::spec::JobSpec;

/// What the worker pool shares: the job queue and its wakeup.
struct PoolShared {
    queue: Mutex<VecDeque<Arc<JobState>>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn wake_all(&self) {
        // Touch the mutex so a worker between its queue check and its wait
        // cannot miss the notification.
        drop(
            self.queue
                .lock()
                .expect("engine queue lock is never poisoned"),
        );
        self.available.notify_all();
    }
}

/// Configures and builds an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    threads: usize,
    cache_capacity: usize,
    cache_dir: Option<PathBuf>,
    default_config: SimulationConfig,
    registry: WorkloadRegistry,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            threads: 0,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            cache_dir: None,
            default_config: SimulationConfig::default(),
            registry: WorkloadRegistry::with_builtins(),
        }
    }
}

/// Default number of prepared plans kept resident.
pub const DEFAULT_CACHE_CAPACITY: usize = 8;

impl EngineBuilder {
    /// Worker threads of the pool. `0` (default) falls back to the
    /// [`default_config`](Self::default_config)'s
    /// [`threads`](SimulationConfig::threads), then to the
    /// `DRHW_SIM_THREADS` environment variable, then to the available
    /// hardware parallelism.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Capacity of the prepared-plan LRU cache (`0` disables caching).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Directory of the persistent on-disk plan cache (disabled by default).
    ///
    /// When set, every in-memory plan-cache miss first tries to restore the
    /// expensive design-time search artifacts from
    /// `<dir>/<workload>-t<tiles>-p<ps>-<hash>.json` before rebuilding them,
    /// and freshly built plans are persisted there — so a restarted process
    /// starts warm. Entries are versioned, fingerprinted against the
    /// workload definition and checksummed; anything corrupt or stale is
    /// silently ignored and rebuilt (then overwritten). Restored plans are
    /// bit-identical to cold builds.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The configuration job specs start from before workload knobs and
    /// per-job overrides apply (defaults to [`SimulationConfig::default`],
    /// the paper's §7 setup).
    #[must_use]
    pub fn default_config(mut self, config: SimulationConfig) -> Self {
        self.default_config = config;
        self
    }

    /// Replaces the workload registry (defaults to
    /// [`WorkloadRegistry::with_builtins`]).
    #[must_use]
    pub fn registry(mut self, registry: WorkloadRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers one more workload on top of the current registry.
    #[must_use]
    pub fn register(mut self, workload: Arc<dyn Workload>) -> Self {
        self.registry.register(workload);
        self
    }

    /// Spawns the worker pool and returns the engine.
    pub fn build(self) -> Engine {
        let threads = pool_size(self.threads, self.default_config.threads);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Engine {
            shared,
            workers,
            threads,
            cache: Mutex::new(PlanCache::new(self.cache_capacity)),
            disk: self.cache_dir.map(DiskPlanCache::new),
            default_config: self.default_config,
            registry: self.registry,
            next_job: AtomicU64::new(1),
        }
    }
}

/// The worker-pool size: the first non-zero of the builder's count, the
/// default configuration's `threads` and the `DRHW_SIM_THREADS` environment
/// variable, else the available hardware parallelism. Always at least one.
fn pool_size(builder_threads: usize, config_threads: usize) -> usize {
    if builder_threads > 0 {
        return builder_threads;
    }
    if config_threads > 0 {
        return config_threads;
    }
    if let Some(n) = std::env::var("DRHW_SIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The session-oriented job engine — the public entry point of the
/// workspace.
///
/// ```
/// use drhw_engine::{Engine, JobSpec};
///
/// # fn main() -> Result<(), drhw_engine::EngineError> {
/// let engine = Engine::builder().build();
/// let reports = engine.run(JobSpec::new("multimedia").with_tiles(8).with_iterations(50))?;
/// assert_eq!(reports.len(), 5); // one report per policy
/// # Ok(())
/// # }
/// ```
pub struct Engine {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    cache: Mutex<PlanCache>,
    disk: Option<DiskPlanCache>,
    default_config: SimulationConfig,
    registry: WorkloadRegistry,
    next_job: AtomicU64,
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The worker-thread count of the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The workload registry jobs resolve against.
    pub fn registry(&self) -> &WorkloadRegistry {
        &self.registry
    }

    /// The configuration job specs start from.
    pub fn default_config(&self) -> &SimulationConfig {
        &self.default_config
    }

    /// A snapshot of the plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .lock()
            .expect("engine cache lock is never poisoned")
            .stats()
    }

    /// Submits a job and returns its handle. Workload resolution, spec
    /// validation and plan preparation (on a cache miss) happen here, on the
    /// calling thread; the simulation itself runs on the pool.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec is invalid, the workload is unknown,
    /// or the plan cannot be prepared. Simulation errors surface through
    /// [`JobHandle::wait`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, EngineError> {
        let (plan, workload, cache_hit) = self.job_plan(&spec)?;
        let (sender, receiver) = mpsc::channel();
        let state = Arc::new(JobState::new(
            JobId::new(self.next_job.fetch_add(1, Ordering::SeqCst)),
            spec,
            workload,
            plan,
            cache_hit,
            sender,
        ));
        self.shared
            .queue
            .lock()
            .expect("engine queue lock is never poisoned")
            .push_back(Arc::clone(&state));
        self.shared.available.notify_all();
        Ok(JobHandle {
            state,
            progress: Some(receiver),
        })
    }

    /// Submits a job and blocks for its result: one report per requested
    /// policy, in request order.
    ///
    /// # Errors
    ///
    /// Returns submission errors and the job's execution error, if any.
    pub fn run(&self, spec: JobSpec) -> Result<Vec<SimulationReport>, EngineError> {
        let mut handle = self.submit(spec)?;
        // Nobody reads this job's progress: closing the stream stops the
        // fold from building events.
        drop(handle.progress());
        handle.wait()
    }

    /// Measures the simulated per-iteration service time of every policy a
    /// spec requests: one [`ServiceMeasurement`] per policy, in request
    /// order, each pairing the aggregate report with the iteration-by-
    /// iteration execution times (`ideal + penalty`, integer microseconds).
    ///
    /// This is the hook the `drhw-traffic` open-loop driver samples service
    /// times from. It shares the engine's plan cache (and counts hits and
    /// misses like [`submit`](Self::submit)) but evaluates on the calling
    /// thread in one sequential pass per policy — the results depend only on
    /// the spec and are bit-identical at any worker count, which is what
    /// makes traffic scenarios byte-reproducible.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec is invalid, the workload is unknown,
    /// or plan preparation or evaluation fails.
    pub fn measure_service_times(
        &self,
        spec: &JobSpec,
    ) -> Result<Vec<ServiceMeasurement>, EngineError> {
        let (plan, workload, _cache_hit) = self.job_plan(spec)?;
        let sim_error = |source| EngineError::Sim {
            workload: workload.clone(),
            source,
        };
        let tiles = plan.platform().tile_count();
        let iterations = plan.config().iterations;
        let chunk_size = plan.config().chunk_size;
        let mut scratch = plan.make_scratch();
        let mut measurements = Vec::new();
        for policy in spec.resolved_policies() {
            let outcomes = plan
                .evaluate_run_with(policy, &mut scratch)
                .map_err(&sim_error)?;
            let service_times: Vec<Time> = outcomes
                .iter()
                .map(|outcome| outcome.ideal() + outcome.penalty())
                .collect();
            // Fold per-chunk partial sums in chunk order so the floating-
            // point energy total matches the job fold bit for bit.
            let mut total = ChunkStats::default();
            for chunk in outcomes.chunks(chunk_size) {
                let mut stats = ChunkStats::default();
                for outcome in chunk {
                    stats.absorb(outcome);
                }
                total.merge(&stats);
            }
            let report = total.finish(policy, tiles, iterations);
            measurements.push(ServiceMeasurement {
                policy,
                report,
                service_times,
            });
        }
        Ok(measurements)
    }

    /// Prepares a job's plan: validates the spec, resolves its workload and
    /// stamps the spec's run configuration onto the cached plan (preparing
    /// and caching that plan on a miss). Returns the plan, the workload's
    /// registry name and whether the cache hit. Shared by
    /// [`submit`](Self::submit) and
    /// [`measure_service_times`](Self::measure_service_times).
    fn job_plan(&self, spec: &JobSpec) -> Result<(IterationPlan, String, bool), EngineError> {
        spec.validate()?;
        let workload = self.registry.resolve(&spec.workload)?;
        let config = spec.config_for(workload.as_ref(), &self.default_config);
        let name = workload.name().to_string();
        let key = PlanKey {
            workload: name.clone(),
            tiles: spec.resolved_tiles(workload.as_ref()),
            point_selection: spec.resolved_point_selection(&self.default_config) as u8,
        };
        let sim_error = |source| EngineError::Sim {
            workload: name.clone(),
            source,
        };
        let (entry, cache_hit) = self
            .cached_entry(workload.as_ref(), key, &config)
            .map_err(&sim_error)?;
        let plan = entry.with_config(config).map_err(&sim_error)?;
        Ok((plan, name, cache_hit))
    }

    /// Returns the cached prepared plan for `key` (and whether it was a
    /// cache hit), preparing it on a miss: derived from a resident plan of
    /// another tile count when its design-time artifacts hold on this one,
    /// else built off-lock, restoring its search artifacts from the on-disk
    /// cache when one is configured.
    fn cached_entry(
        &self,
        workload: &dyn Workload,
        key: PlanKey,
        config: &SimulationConfig,
    ) -> Result<(Arc<IterationPlan>, bool), SimError> {
        let started = std::time::Instant::now();
        let platform = Platform::virtex_like(key.tiles)?;
        // Fast path under the lock; the expensive preparation happens
        // UNLOCKED so a cold prepare never stalls other submitters (a rare
        // same-key race prepares twice and `store` keeps the first copy).
        let sibling = {
            let mut cache = self
                .cache
                .lock()
                .expect("engine cache lock is never poisoned");
            if let Some(entry) = cache.lookup(&key) {
                return Ok((entry, true));
            }
            cache.sibling(&key, &platform)
        };
        let (plan, prepared) = match sibling {
            Some(plan) => (plan, Prepared::Derived),
            None => {
                let task_set = workload.task_set();
                // With a cache directory configured, try to restore the
                // expensive design-time search artifacts from disk; a
                // missing, stale or corrupt entry degrades to a cold build.
                let restored = self.disk.as_ref().and_then(|disk| {
                    disk.load(&key, workload_fingerprint(&task_set, &platform, config))
                });
                let prepared = match restored {
                    Some(_) => Prepared::Restored,
                    None => Prepared::Cold,
                };
                let plan = IterationPlan::new_with_artifacts(
                    &task_set,
                    &platform,
                    config.clone(),
                    &restored.unwrap_or_default(),
                )?;
                (plan, prepared)
            }
        };
        // What is not on disk yet is persisted for next time.
        if prepared != Prepared::Restored {
            if let Some(disk) = &self.disk {
                let fingerprint = workload_fingerprint(plan.task_set(), &platform, config);
                disk.store(&key, fingerprint, &plan);
            }
        }
        let prepare_ms = started.elapsed().as_secs_f64() * 1e3;
        let entry = self
            .cache
            .lock()
            .expect("engine cache lock is never poisoned")
            .store(key, Arc::new(plan), prepare_ms, prepared);
        Ok((entry, false))
    }
}

/// One policy's service-time measurement from
/// [`Engine::measure_service_times`]: the aggregate report plus the
/// simulated execution time of each iteration, in iteration order.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMeasurement {
    /// The policy measured.
    pub policy: PolicyKind,
    /// The aggregate report of the run — bit-identical to what
    /// [`Engine::run`] returns for the same spec and policy.
    pub report: SimulationReport,
    /// Per-iteration simulated execution time (`ideal + penalty`), one entry
    /// per configured iteration.
    pub service_times: Vec<Time>,
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // With the pool gone nothing will execute the remaining queue, and
        // nothing is in flight; cancelling resolves every unfinished job so
        // waiters never hang.
        let queue = std::mem::take(
            &mut *self
                .shared
                .queue
                .lock()
                .expect("engine queue lock is never poisoned"),
        );
        for job in queue {
            job.cancel();
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .field("cache", &self.cache_stats())
            .field("workloads", &self.registry.names())
            .finish()
    }
}

/// The worker loop: pick the oldest job with claimable work, drain its
/// chunks, then move on. Exhausted, failed and cancelled jobs are popped; the
/// job itself resolves on the record or cancel that leaves it stopped with
/// nothing in flight.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared
                .queue
                .lock()
                .expect("engine queue lock is never poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let mut picked = None;
                while let Some(front) = queue.front() {
                    if front.claimable() {
                        picked = Some(Arc::clone(front));
                        break;
                    }
                    queue.pop_front();
                }
                if let Some(job) = picked {
                    break job;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .expect("engine queue lock is never poisoned");
            }
        };
        work_on(&job, evaluate_claim);
    }
}

/// Claims `job`'s chunks until none is left and scores each claim with
/// `evaluate` through one scratch per (worker, job): its buffers are
/// pre-sized to the job's plan, and its memo set comes from the plan's pool,
/// warm with what earlier jobs computed, and goes back there.
///
/// A claim whose evaluation panics records [`SimError::ChunkPanicked`] for
/// every policy it carried, so the job still resolves and the worker goes
/// on. The scratch the panic left is dropped and the next claim gets a new
/// one; its memo set may go back to the pool, because a memo entry is
/// written only after its kernel returned.
fn work_on(job: &JobState, evaluate: impl Fn(&JobState, Claim, &mut SimScratch)) {
    let mut scratch = job.plan.make_scratch();
    while let Some(claim) = job.claim() {
        let evaluated = panic::catch_unwind(AssertUnwindSafe(|| {
            evaluate(job, claim, &mut scratch);
        }));
        if let Err(payload) = evaluated {
            let error = SimError::ChunkPanicked {
                chunk: claim.chunk,
                message: panic_message(payload.as_ref()),
            };
            job.record(claim, (0..claim.policies).map(|_| Err(error.clone())));
            drop(scratch);
            scratch = job.plan.make_scratch();
        }
    }
}

/// Scores one claim of `job` in one pass over its policies and records the
/// results: what a pool worker does with each claim.
fn evaluate_claim(job: &JobState, claim: Claim, scratch: &mut SimScratch) {
    let results = job.plan.evaluate_chunk_policies_with(
        &job.policies[..claim.policies],
        claim.chunk,
        scratch,
    );
    job.record(claim, results);
}

/// The message of a panic: what `panic!` was given, when that is a string.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(message) => (*message).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "a panic without a message".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job of `policies` on `plan`.
    fn job_on(plan: IterationPlan, policies: &[PolicyKind]) -> JobState {
        JobState::new(
            JobId::new(1),
            JobSpec::new("multimedia").with_policies(policies),
            "multimedia".to_string(),
            plan,
            false,
            mpsc::channel().0,
        )
    }

    #[test]
    fn a_panicking_chunk_resolves_its_job_and_the_worker_goes_on() {
        let workload = WorkloadRegistry::with_builtins()
            .resolve("multimedia")
            .unwrap();
        let platform = Platform::virtex_like(8).unwrap();
        let config = SimulationConfig::quick()
            .with_iterations(12)
            .with_chunk_size(4);
        let plan = IterationPlan::new(&workload.task_set(), &platform, config).unwrap();
        let policies = [PolicyKind::RunTime, PolicyKind::Hybrid];
        let job = job_on(plan.with_config(plan.config().clone()).unwrap(), &policies);
        work_on(&job, |job, claim, scratch| {
            if claim.chunk == 1 {
                panic!("chunk {} exploded", claim.chunk);
            }
            evaluate_claim(job, claim, scratch);
        });
        assert_eq!(
            job.wait(),
            Err(EngineError::Sim {
                workload: "multimedia".to_string(),
                source: SimError::ChunkPanicked {
                    chunk: 1,
                    message: "chunk 1 exploded".to_string(),
                },
            })
        );
        // The same worker then runs the next job on the plan to its usual
        // reports, with the memo sets the panicking job handed back.
        let expected = plan.run(&policies).unwrap();
        let next = job_on(plan, &policies);
        work_on(&next, evaluate_claim);
        assert_eq!(next.wait(), Ok(expected));
    }

    #[test]
    fn panic_messages_survive_both_payload_kinds() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&"owned".to_string()), "owned");
        assert_eq!(panic_message(&7_u32), "a panic without a message");
    }

    #[test]
    fn explicit_thread_count_wins_over_auto_detection() {
        assert_eq!(pool_size(3, 0), 3);
        assert_eq!(pool_size(3, 5), 3);
        assert_eq!(pool_size(0, 5), 5);
        // Auto detection always lands on at least one thread.
        assert!(pool_size(0, 0) >= 1);
    }
}
