//! The engine: a long-lived service front-end over the simulation stack.
//!
//! [`Engine`] owns a [`WorkloadRegistry`], an LRU cache of prepared
//! [`IterationPlan`](drhw_sim::IterationPlan) artifacts and a fixed worker
//! pool. Jobs ([`JobSpec`]) are submitted and executed as `policies ×
//! chunks` slots claimed by the pool; results are folded in deterministic
//! (policy, chunk) order, so a job's reports are **bit-identical** to the
//! sequential `IterationPlan::run` — regardless of cache hits, worker count
//! or how many jobs run interleaved.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use drhw_model::{Platform, Time};
use drhw_prefetch::PolicyKind;
use drhw_sim::{ChunkStats, IterationPlan, SimError, SimulationConfig, SimulationReport};
use drhw_workloads::{Workload, WorkloadRegistry};

use crate::cache::{CacheStats, PlanCache, PlanKey};
use crate::disk::DiskPlanCache;
use crate::error::EngineError;
use crate::job::{JobHandle, JobId, JobState};
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
        self.submit(spec)?.wait()
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
    /// cache hit), preparing it on a miss — off-lock, restoring its search
    /// artifacts from the on-disk cache when one is configured.
    fn cached_entry(
        &self,
        workload: &dyn Workload,
        key: PlanKey,
        config: &SimulationConfig,
    ) -> Result<(Arc<IterationPlan>, bool), SimError> {
        // Fast path under the lock; the expensive preparation happens
        // UNLOCKED so a cold prepare never stalls other submitters (a rare
        // same-key race prepares twice and `store` keeps the first copy).
        let cached = self
            .cache
            .lock()
            .expect("engine cache lock is never poisoned")
            .lookup(&key);
        if let Some(entry) = cached {
            return Ok((entry, true));
        }
        let started = std::time::Instant::now();
        let platform = Platform::virtex_like(key.tiles)?;
        let task_set = workload.task_set();
        // With a cache directory configured, try to restore the expensive
        // design-time search artifacts from disk; a missing, stale or corrupt
        // entry degrades to a cold build whose artifacts are persisted for
        // next time.
        let disk = self.disk.as_ref().map(|disk| {
            let fingerprint = crate::disk::workload_fingerprint(&task_set, &platform, config);
            (disk, fingerprint)
        });
        let restored = disk.and_then(|(disk, fingerprint)| disk.load(&key, fingerprint));
        let disk_hit = restored.is_some();
        let plan = IterationPlan::new_with_artifacts(
            &task_set,
            &platform,
            config.clone(),
            &restored.unwrap_or_default(),
        )?;
        // Only a cold build writes: a restored entry is already on disk.
        if let Some((disk, fingerprint)) = disk.filter(|_| !disk_hit) {
            disk.store(&key, fingerprint, &plan);
        }
        let prepare_ms = started.elapsed().as_secs_f64() * 1e3;
        let entry = self
            .cache
            .lock()
            .expect("engine cache lock is never poisoned")
            .store(key, Arc::new(plan), prepare_ms, disk_hit);
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
/// slots, then move on. Exhausted, failed and cancelled jobs are popped; the
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
        // One scratch per (worker, job): buffers are pre-sized to the job's
        // plan and reused across every chunk this worker claims from it.
        let mut scratch = job.plan.make_scratch();
        while let Some(slot) = job.claim() {
            let (policy, chunk) = job.slot_work(slot);
            let result = job.plan.evaluate_chunk_with(policy, chunk, &mut scratch);
            job.record(slot, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_thread_count_wins_over_auto_detection() {
        assert_eq!(pool_size(3, 0), 3);
        assert_eq!(pool_size(3, 5), 3);
        assert_eq!(pool_size(0, 5), 5);
        // Auto detection always lands on at least one thread.
        assert!(pool_size(0, 0) >= 1);
    }
}
