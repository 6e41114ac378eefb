//! The LRU cache of prepared iteration plans — the engine's amortisation of
//! design-time work, mirroring the paper's own design-time/run-time split at
//! the service layer.
//!
//! Preparing an [`IterationPlan`] (TCM Pareto curves, branch & bound,
//! critical sets, prepared schedules) dominates the cost of small jobs.
//! Entries are keyed by everything the *artifacts* depend on — the workload
//! name (which determines the task set and the scenario policy), the tile
//! count (the platform) and the point-selection strategy — and deliberately
//! **not** by seed, iteration count, chunk size or replacement policy: those
//! are run-time knobs, stamped onto a shared plan per job via
//! [`IterationPlan::with_config`]. A repeat job with a new seed is therefore
//! a cache hit that skips all design-time work.

use std::collections::BTreeMap;
use std::sync::Arc;
#[cfg(test)]
use std::time::Instant;

use drhw_model::{Platform, ScenarioId, TaskId, TaskSet};
use drhw_sim::{IterationPlan, ScenarioSearchArtifacts, SimError, SimulationConfig};

/// Cache key: the exact set of inputs the design-time artifacts depend on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PlanKey {
    /// Registry name of the workload (determines task set + scenario policy).
    pub workload: String,
    /// Tile count of the simulated platform.
    pub tiles: usize,
    /// Discriminant of the point-selection strategy.
    pub point_selection: u8,
}

/// A prepared plan that owns its task set and platform, so it can outlive
/// the job that created it and be shared across jobs.
///
/// `IterationPlan` borrows the task set and platform it simulates; a cache
/// entry must own them. The borrow is tied to the boxed allocations below,
/// which are heap-stable (moving the `Box` moves only the pointer) and
/// never mutated or dropped while `plan` exists — `plan` is declared first,
/// so it drops first.
#[derive(Debug)]
pub(crate) struct PreparedPlan {
    /// Borrows from `_task_set` and `_platform`; the `'static` lifetime is a
    /// private fiction that never escapes this struct un-reborrowed.
    plan: IterationPlan<'static>,
    _task_set: Box<TaskSet>,
    _platform: Box<Platform>,
}

impl PreparedPlan {
    /// Prepares a plan that owns its inputs.
    ///
    /// # Errors
    ///
    /// Propagates plan-construction errors.
    pub fn prepare(
        task_set: TaskSet,
        platform: Platform,
        config: SimulationConfig,
    ) -> Result<Self, SimError> {
        Self::prepare_with_artifacts(task_set, platform, config, &BTreeMap::new())
    }

    /// Like [`prepare`](Self::prepare), injecting previously extracted
    /// design-time search artifacts (the on-disk plan cache's restore path);
    /// pairs the map does not cover — or does not fit — are computed cold.
    ///
    /// # Errors
    ///
    /// Propagates plan-construction errors.
    pub fn prepare_with_artifacts(
        task_set: TaskSet,
        platform: Platform,
        config: SimulationConfig,
        artifacts: &BTreeMap<(TaskId, ScenarioId), ScenarioSearchArtifacts>,
    ) -> Result<Self, SimError> {
        let task_set = Box::new(task_set);
        let platform = Box::new(platform);
        // SAFETY: the references handed to `IterationPlan::new_with_artifacts`
        // point into the boxed heap allocations above, which (a) do not move
        // when the boxes are moved into the struct, (b) are never mutated (no
        // &mut is ever taken), and (c) outlive `plan` because `plan` is
        // declared before them and Rust drops fields in declaration order.
        // The `'static` plan never leaves this struct except reborrowed to
        // the struct's own lifetime (`plan()`/`derive()`), so the fiction
        // cannot be observed.
        let task_set_ref: &'static TaskSet = unsafe { &*(task_set.as_ref() as *const TaskSet) };
        let platform_ref: &'static Platform = unsafe { &*(platform.as_ref() as *const Platform) };
        let plan =
            IterationPlan::new_with_artifacts(task_set_ref, platform_ref, config, artifacts)?;
        Ok(PreparedPlan {
            plan,
            _task_set: task_set,
            _platform: platform,
        })
    }

    /// The prepared plan, reborrowed to this entry's lifetime. The engine
    /// derives job plans through [`derive`](Self::derive); this accessor
    /// serves the on-disk cache's artifact extraction and the cache's own
    /// tests.
    pub fn plan(&self) -> &IterationPlan<'_> {
        &self.plan
    }

    /// Stamps a job-specific run configuration onto the shared artifacts.
    /// The returned [`JobPlan`] keeps this entry alive.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IncompatiblePlanConfig`] when a design-time knob
    /// differs (the cache key prevents this for engine-issued derivations).
    pub fn derive(self: &Arc<Self>, config: SimulationConfig) -> Result<JobPlan, SimError> {
        let plan = self.plan.with_config(config)?;
        Ok(JobPlan {
            plan,
            _keepalive: Arc::clone(self),
        })
    }
}

/// A job's own view of a cached plan: the re-parameterised
/// [`IterationPlan`] plus the keep-alive of the cache entry backing it.
#[derive(Debug)]
pub(crate) struct JobPlan {
    /// Borrows from the entry held by `_keepalive`; declared first so it
    /// drops first (same fiction as [`PreparedPlan::plan`]).
    plan: IterationPlan<'static>,
    _keepalive: Arc<PreparedPlan>,
}

impl JobPlan {
    /// The plan, reborrowed to this handle's lifetime.
    pub fn plan(&self) -> &IterationPlan<'_> {
        &self.plan
    }
}

/// Counters describing how the plan cache behaved so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Jobs that reused a cached plan (no design-time work).
    pub hits: u64,
    /// Jobs that had to prepare a plan.
    pub misses: u64,
    /// The subset of `misses` whose design-time search artifacts were
    /// restored from the on-disk plan cache instead of recomputed.
    pub disk_hits: u64,
    /// Entries evicted because the cache was at capacity.
    pub evictions: u64,
    /// Total wall-clock milliseconds spent preparing plans (misses only).
    pub prepare_ms: f64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Average preparation cost per submitted job — the amortisation the
    /// cache buys. Falls back to the per-miss cost when nothing hit yet.
    pub fn amortized_prepare_ms(&self) -> f64 {
        let jobs = self.hits + self.misses;
        if jobs == 0 {
            0.0
        } else {
            self.prepare_ms / jobs as f64
        }
    }
}

struct Slot {
    entry: Arc<PreparedPlan>,
    last_used: u64,
}

/// The LRU map itself. Callers (the engine) wrap it in a mutex.
pub(crate) struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<PlanKey, Slot>,
    hits: u64,
    misses: u64,
    disk_hits: u64,
    evictions: u64,
    prepare_ms: f64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            disk_hits: 0,
            evictions: 0,
            prepare_ms: 0.0,
        }
    }

    /// Returns the resident plan for `key`, counting a hit and refreshing
    /// its recency; `None` on a miss (the caller prepares the plan
    /// *without* holding the cache lock and hands it back via
    /// [`store`](Self::store)).
    pub fn lookup(&mut self, key: &PlanKey) -> Option<Arc<PreparedPlan>> {
        self.tick += 1;
        let slot = self.entries.get_mut(key)?;
        slot.last_used = self.tick;
        self.hits += 1;
        Some(Arc::clone(&slot.entry))
    }

    /// Records a freshly prepared plan: counts the miss and its preparation
    /// wall clock (`disk_hit` notes when the preparation was a restore from
    /// the on-disk cache rather than a cold build), inserts (evicting LRU
    /// entries past capacity) and returns the entry to use. If another
    /// submitter stored the same key while this plan was being prepared
    /// off-lock, the already-resident entry wins so both jobs share one
    /// allocation — plans for the same key are identical by construction.
    pub fn store(
        &mut self,
        key: PlanKey,
        entry: Arc<PreparedPlan>,
        prepare_ms: f64,
        disk_hit: bool,
    ) -> Arc<PreparedPlan> {
        self.misses += 1;
        self.disk_hits += u64::from(disk_hit);
        self.prepare_ms += prepare_ms;
        if self.capacity == 0 {
            return entry;
        }
        if let Some(slot) = self.entries.get_mut(&key) {
            slot.last_used = self.tick;
            return Arc::clone(&slot.entry);
        }
        while self.entries.len() >= self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
                .expect("non-empty cache has an oldest entry");
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
        self.entries.insert(
            key,
            Slot {
                entry: Arc::clone(&entry),
                last_used: self.tick,
            },
        );
        entry
    }

    /// Returns the cached plan for `key`, preparing (and caching) it via
    /// `build` on a miss — [`lookup`](Self::lookup) + [`store`](Self::store)
    /// in one call (the engine splits the two around an unlocked prepare;
    /// this combined form serves the cache's own tests).
    ///
    /// # Errors
    ///
    /// Propagates `build` errors; nothing is cached on error.
    #[cfg(test)]
    pub fn get_or_prepare(
        &mut self,
        key: PlanKey,
        build: impl FnOnce() -> Result<PreparedPlan, SimError>,
    ) -> Result<Arc<PreparedPlan>, SimError> {
        if let Some(entry) = self.lookup(&key) {
            return Ok(entry);
        }
        let started = Instant::now();
        let entry = Arc::new(build()?);
        let prepare_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(self.store(key, entry, prepare_ms, false))
    }

    /// Whether a key is currently resident (test helper).
    #[cfg(test)]
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.entries.contains_key(key)
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            disk_hits: self.disk_hits,
            evictions: self.evictions,
            prepare_ms: self.prepare_ms,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drhw_prefetch::PolicyKind;
    use drhw_workloads::WorkloadRegistry;

    fn prepare(workload: &str, tiles: usize) -> PreparedPlan {
        let registry = WorkloadRegistry::with_builtins();
        let workload = registry.resolve(workload).unwrap();
        let task_set = workload.task_set();
        let platform = Platform::virtex_like(tiles).unwrap();
        let mut config = SimulationConfig::quick();
        config.task_inclusion_probability = workload.task_inclusion_probability();
        PreparedPlan::prepare(task_set, platform, config).unwrap()
    }

    fn key(workload: &str, tiles: usize) -> PlanKey {
        PlanKey {
            workload: workload.to_string(),
            tiles,
            point_selection: 0,
        }
    }

    #[test]
    fn prepared_plan_simulates_like_a_borrowing_plan() {
        let prepared = Arc::new(prepare("multimedia", 8));
        let registry = WorkloadRegistry::with_builtins();
        let workload = registry.resolve("multimedia").unwrap();
        let task_set = workload.task_set();
        let platform = Platform::virtex_like(8).unwrap();
        let mut config = SimulationConfig::quick();
        config.task_inclusion_probability = workload.task_inclusion_probability();
        let direct = IterationPlan::new(&task_set, &platform, config.clone()).unwrap();

        let expected = direct.run(&[PolicyKind::Hybrid]).unwrap();
        let cached = prepared.plan().run(&[PolicyKind::Hybrid]).unwrap();
        assert_eq!(expected, cached);

        // Deriving a new seed shares the artifacts and still agrees with a
        // fresh plan for that seed.
        let job = prepared.derive(config.clone().with_seed(42)).unwrap();
        let fresh = IterationPlan::new(&task_set, &platform, config.with_seed(42)).unwrap();
        assert_eq!(
            job.plan().run(&PolicyKind::ALL).unwrap(),
            fresh.run(&PolicyKind::ALL).unwrap()
        );
    }

    #[test]
    fn job_plan_keeps_the_entry_alive_after_eviction() {
        let mut cache = PlanCache::new(1);
        let entry = cache
            .get_or_prepare(key("multimedia", 8), || Ok(prepare("multimedia", 8)))
            .unwrap();
        let job = entry.derive(SimulationConfig::quick()).unwrap();
        drop(entry);
        // Evict the entry by inserting a different one.
        cache
            .get_or_prepare(key("pocket_gl", 5), || Ok(prepare("pocket_gl", 5)))
            .unwrap();
        assert!(!cache.contains(&key("multimedia", 8)));
        // The in-flight job still evaluates fine on the evicted entry.
        let reports = job.plan().run(&[PolicyKind::NoPrefetch]).unwrap();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = PlanCache::new(2);
        let build = |name: &'static str, tiles: usize| move || Ok(prepare(name, tiles));
        cache
            .get_or_prepare(key("multimedia", 8), build("multimedia", 8))
            .unwrap();
        cache
            .get_or_prepare(key("multimedia", 9), build("multimedia", 9))
            .unwrap();
        // Touch the first entry so the second becomes the LRU victim.
        cache
            .get_or_prepare(key("multimedia", 8), || unreachable!("hit expected"))
            .unwrap();
        cache
            .get_or_prepare(key("pocket_gl", 5), build("pocket_gl", 5))
            .unwrap();
        assert!(cache.contains(&key("multimedia", 8)));
        assert!(!cache.contains(&key("multimedia", 9)));
        assert!(cache.contains(&key("pocket_gl", 5)));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.prepare_ms >= 0.0);
        assert!(stats.amortized_prepare_ms() <= stats.prepare_ms);
    }

    #[test]
    fn zero_capacity_disables_residency_but_not_preparation() {
        let mut cache = PlanCache::new(0);
        for _ in 0..2 {
            cache
                .get_or_prepare(key("multimedia", 8), || Ok(prepare("multimedia", 8)))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }
}
