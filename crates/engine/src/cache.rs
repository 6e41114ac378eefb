//! The LRU cache of prepared iteration plans — the engine's amortisation of
//! design-time work, mirroring the paper's own design-time/run-time split at
//! the service layer.
//!
//! Preparing an [`IterationPlan`] (TCM Pareto curves, branch & bound,
//! critical sets, prepared schedules) dominates the cost of small jobs.
//! Entries are keyed by everything the *artifacts* can depend on — the
//! workload name (which determines the task set and the scenario policy),
//! the tile count (the platform) and the point-selection strategy — and
//! deliberately **not** by seed, iteration count, chunk size or replacement
//! policy: those are run-time knobs, stamped onto a shared plan per job via
//! [`IterationPlan::with_config`]. A repeat job with a new seed is therefore
//! a cache hit that skips all design-time work.
//!
//! The tile count matters only below the workload's width, the most DRHW
//! subtasks of any of its graphs: on at least that many tiles every graph
//! fits and the artifacts are the same on every tile count. So a miss first
//! looks for a resident plan of the same workload and point selection that
//! [`IterationPlan::with_platform`] can carry over to the new tile count
//! ([`PlanCache::sibling`]); a plan derived that way shares the donor's
//! artifacts and kernel memo pool, and still counts as a miss. The fifteen
//! Fig. 6/7 points thus need two builds and two memo pools.
//!
//! A plan owns its task set and platform, so an entry is just an
//! `Arc<IterationPlan>`; a job's plan shares the entry's artifacts and keeps
//! them alive past an eviction.

use std::collections::BTreeMap;
use std::sync::Arc;
#[cfg(test)]
use std::time::Instant;

use drhw_model::Platform;
use drhw_sim::IterationPlan;
#[cfg(test)]
use drhw_sim::SimError;

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

/// Where the plan of a miss came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Prepared {
    /// Built from scratch.
    Cold,
    /// Built around search artifacts restored from the on-disk cache.
    Restored,
    /// Carried over from a resident plan of another tile count.
    Derived,
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
    /// The subset of `misses` whose plan was derived from a resident plan
    /// of the same workload on another tile count, sharing its design-time
    /// artifacts (see [`IterationPlan::with_platform`]).
    pub derived: u64,
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
    entry: Arc<IterationPlan>,
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
    derived: u64,
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
            derived: 0,
            evictions: 0,
            prepare_ms: 0.0,
        }
    }

    /// Returns the resident plan for `key`, counting a hit and refreshing
    /// its recency; `None` on a miss (the caller prepares the plan
    /// *without* holding the cache lock and hands it back via
    /// [`store`](Self::store)).
    pub fn lookup(&mut self, key: &PlanKey) -> Option<Arc<IterationPlan>> {
        self.tick += 1;
        let slot = self.entries.get_mut(key)?;
        slot.last_used = self.tick;
        self.hits += 1;
        Some(Arc::clone(&slot.entry))
    }

    /// The plan for `key` carried over to `platform` from a resident plan
    /// of the same workload and point selection whose design-time artifacts
    /// hold there too ([`IterationPlan::with_platform`]), if there is one.
    /// Counts nothing and leaves recency alone: the caller
    /// [`store`](Self::store)s the plan as a derived miss.
    pub fn sibling(&self, key: &PlanKey, platform: &Platform) -> Option<IterationPlan> {
        self.entries
            .iter()
            .filter(|(resident, _)| {
                resident.workload == key.workload && resident.point_selection == key.point_selection
            })
            .find_map(|(_, slot)| slot.entry.with_platform(platform))
    }

    /// Records a freshly prepared plan: counts the miss, where the plan came
    /// from and its preparation wall clock, inserts (evicting LRU entries
    /// past capacity) and returns the entry to use. If another submitter
    /// stored the same key while this plan was being prepared off-lock, the
    /// already-resident entry wins so both jobs share one allocation —
    /// plans for the same key are identical by construction.
    pub fn store(
        &mut self,
        key: PlanKey,
        entry: Arc<IterationPlan>,
        prepare_ms: f64,
        prepared: Prepared,
    ) -> Arc<IterationPlan> {
        self.misses += 1;
        self.disk_hits += u64::from(prepared == Prepared::Restored);
        self.derived += u64::from(prepared == Prepared::Derived);
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
        build: impl FnOnce() -> Result<IterationPlan, SimError>,
    ) -> Result<Arc<IterationPlan>, SimError> {
        if let Some(entry) = self.lookup(&key) {
            return Ok(entry);
        }
        let started = Instant::now();
        let entry = Arc::new(build()?);
        let prepare_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(self.store(key, entry, prepare_ms, Prepared::Cold))
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
            derived: self.derived,
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
    use drhw_model::Platform;
    use drhw_prefetch::PolicyKind;
    use drhw_sim::SimulationConfig;
    use drhw_workloads::WorkloadRegistry;

    fn prepare(workload: &str, tiles: usize) -> IterationPlan {
        let registry = WorkloadRegistry::with_builtins();
        let workload = registry.resolve(workload).unwrap();
        let task_set = workload.task_set();
        let platform = Platform::virtex_like(tiles).unwrap();
        let mut config = SimulationConfig::quick();
        config.task_inclusion_probability = workload.task_inclusion_probability();
        IterationPlan::new(&task_set, &platform, config).unwrap()
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
        let cached = prepared.run(&[PolicyKind::Hybrid]).unwrap();
        assert_eq!(expected, cached);

        // Deriving a new seed shares the artifacts and still agrees with a
        // fresh plan for that seed.
        let job = prepared.with_config(config.clone().with_seed(42)).unwrap();
        let fresh = IterationPlan::new(&task_set, &platform, config.with_seed(42)).unwrap();
        assert_eq!(
            job.run(&PolicyKind::ALL).unwrap(),
            fresh.run(&PolicyKind::ALL).unwrap()
        );
    }

    #[test]
    fn job_plan_keeps_the_entry_alive_after_eviction() {
        let mut cache = PlanCache::new(1);
        let entry = cache
            .get_or_prepare(key("multimedia", 8), || Ok(prepare("multimedia", 8)))
            .unwrap();
        let job = entry.with_config(SimulationConfig::quick()).unwrap();
        drop(entry);
        // Evict the entry by inserting a different one.
        cache
            .get_or_prepare(key("pocket_gl", 5), || Ok(prepare("pocket_gl", 5)))
            .unwrap();
        assert!(!cache.contains(&key("multimedia", 8)));
        // The in-flight job still evaluates fine on the evicted entry.
        let reports = job.run(&[PolicyKind::NoPrefetch]).unwrap();
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
    fn a_sibling_has_the_same_workload_and_point_selection() {
        let mut cache = PlanCache::new(4);
        cache
            .get_or_prepare(key("multimedia", 8), || Ok(prepare("multimedia", 8)))
            .unwrap();
        let before = cache.stats();
        let twelve = Platform::virtex_like(12).unwrap();
        let sibling = cache
            .sibling(&key("multimedia", 12), &twelve)
            .expect("multimedia fits 8 tiles and more");
        assert_eq!(sibling.platform(), &twelve);
        let fastest = PlanKey {
            point_selection: 1,
            ..key("multimedia", 12)
        };
        assert!(cache.sibling(&fastest, &twelve).is_none());
        assert!(cache.sibling(&key("pocket_gl", 12), &twelve).is_none());
        let four = Platform::virtex_like(4).unwrap();
        assert!(cache.sibling(&key("multimedia", 4), &four).is_none());
        assert_eq!(cache.stats(), before, "looking counts nothing");
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
