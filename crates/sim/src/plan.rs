//! The pure per-iteration evaluator behind the batched simulation engine.
//!
//! [`IterationPlan`] prepares everything that is iteration-independent once —
//! the TCM design-time library, one initial schedule per (task, scenario)
//! pair, the design-time and hybrid prefetch artifacts — and can then score
//! any (policy, iteration) pair with [`IterationPlan::evaluate`]. Every
//! iteration derives its own seed from the master seed, so the activation
//! sequence of iteration *i* is the same no matter which thread evaluates it,
//! which policy is being scored, or how many iterations ran before it. This
//! is what lets the `drhw-engine` worker pool fan the §7 evaluation out
//! across cores while producing reports bit-identical to the sequential
//! [`IterationPlan::run`], with policy comparisons still paired on
//! identical workloads.
//!
//! Tile contents and the inter-task idle window persist across the
//! iterations of one *chunk* ([`SimulationConfig::chunk_size`]) and reset at
//! chunk boundaries; the boundaries depend only on the configuration, never
//! on the thread count.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use drhw_model::{
    splitmix64, ConfigId, InitialSchedule, Platform, ScenarioId, SubtaskGraph, Task, TaskId,
    TaskSet, GOLDEN_GAMMA,
};
use drhw_prefetch::{
    DesignTimePrefetch, ExecSummary, HybridPrefetch, InterTaskWindow, PolicyKind, PreparedSchedule,
    ReplacementPolicy, SlotMask,
};
use drhw_tcm::{DesignTimeLibrary, DesignTimeScheduler, RuntimeScheduler, TaskActivation};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::config::{PointSelection, ScenarioPolicy, SimulationConfig};
use crate::error::SimError;
use crate::scratch::{ScratchShape, SimScratch};
use crate::stats::{ChunkStats, IterationOutcome};

/// The design-time *search* artifacts of one (task, scenario) pair — the
/// branch & bound and critical-set outputs that dominate the cost of a cold
/// plan build. [`IterationPlan::search_artifacts`] extracts them and
/// [`IterationPlan::new_with_artifacts`] injects them back into a fresh
/// build, skipping the searches; this is the payload the engine's on-disk
/// plan cache round-trips across process restarts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSearchArtifacts {
    /// The design-time-only prefetch artifact (frozen load order + penalty).
    pub design_time: DesignTimePrefetch,
    /// The hybrid heuristic's stored critical-set analysis.
    pub hybrid: HybridPrefetch,
}

impl ScenarioSearchArtifacts {
    /// Whether every subtask id the artifacts reference exists in `graph`.
    /// Injected artifacts that fail this check are ignored and recomputed —
    /// restored data is never trusted to index into a graph it does not fit.
    fn fits(&self, graph: &SubtaskGraph) -> bool {
        let in_range =
            |ids: &[drhw_model::SubtaskId]| ids.iter().all(|id| id.index() < graph.len());
        in_range(self.design_time.load_order())
            && in_range(self.hybrid.critical().critical_subtasks())
            && in_range(self.hybrid.critical().stored_load_order())
    }
}

/// Everything the simulator precomputes for one (task, scenario) pair:
/// the prepared schedule (graph analysis, topological order, per-slot data),
/// the design-time artifacts of the offline policies, and the
/// activation-independent on-demand baseline outcome.
#[derive(Debug)]
struct ScenarioArtifacts<'a> {
    /// The prepared schedule, its configurations interned into the plan's
    /// dense dictionary.
    prepared: PreparedSchedule<'a>,
    /// The distinct dense configurations the scenario's DRHW subtasks
    /// require (protected from eviction while the scenario is still queued
    /// in the iteration).
    required_configs: Vec<ConfigId>,
    design_time: DesignTimePrefetch,
    hybrid: HybridPrefetch,
    /// The no-prefetch outcome with nothing resident — independent of the
    /// tile state, so it is scored once here instead of on every iteration.
    on_demand: ExecSummary,
}

/// The shared, iteration-independent part of a plan: the TCM library and the
/// per-scenario artifacts. Behind an [`Arc`] so re-parameterised plans
/// ([`IterationPlan::with_config`]) share it instead of recomputing it —
/// this is what the engine-layer plan cache amortises across jobs.
#[derive(Debug)]
struct PlanShared<'a> {
    library: DesignTimeLibrary,
    /// Per task, in task-set order, the (scenario, slot in `artifacts`)
    /// pairs the plan prepared. Scanned once per activation per iteration to
    /// resolve the flat slot; the hot loop then indexes the vector directly.
    scenario_slots: Vec<Vec<(ScenarioId, usize)>>,
    artifacts: Vec<ScenarioArtifacts<'a>>,
    /// What a scratch bound to this plan must hold. Its `configs` is the
    /// number of distinct configurations the plan's graphs require: the
    /// artifacts' dense configuration ids are `0..configs`.
    scratch_shape: ScratchShape,
    /// Process-unique identity of this artifact set, used to bind scratch
    /// kernel-memo tables to the plan they were warmed on (see
    /// [`SimScratch`]). Plans stamped out by `with_config` share it.
    token: u64,
}

/// Source of [`PlanShared::token`] values. Starts at 1 so 0 can mean "never
/// bound" on the scratch side.
static PLAN_TOKENS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// A fully prepared simulation: design-time artifacts for every scenario of
/// every task, ready to score any (policy, iteration) pair from any thread.
///
/// The plan is immutable after construction and `Send + Sync`, so a single
/// instance can back every worker of an engine job. The
/// design-time artifacts live behind an [`Arc`], so
/// [`with_config`](Self::with_config) can stamp out plans for new
/// run-time parameters (seed, iteration count, replacement policy, …)
/// without repeating any design-time work.
#[derive(Debug)]
pub struct IterationPlan<'a> {
    task_set: &'a TaskSet,
    platform: &'a Platform,
    config: SimulationConfig,
    shared: Arc<PlanShared<'a>>,
}

impl<'a> IterationPlan<'a> {
    /// Prepares a plan: validates the configuration, builds the TCM
    /// design-time library, and precomputes the initial schedule plus the
    /// design-time and hybrid prefetch artifacts of every scenario.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or any scenario graph is
    /// invalid, or if any design-time artifact cannot be computed.
    pub fn new(
        task_set: &'a TaskSet,
        platform: &'a Platform,
        config: SimulationConfig,
    ) -> Result<Self, SimError> {
        Self::new_with_artifacts(task_set, platform, config, &BTreeMap::new())
    }

    /// Like [`new`](Self::new), but reusing previously extracted design-time
    /// search artifacts (see [`search_artifacts`](Self::search_artifacts))
    /// instead of re-running the branch & bound and critical-set searches for
    /// the pairs `precomputed` covers. Pairs that are missing — or whose
    /// artifacts reference subtask ids outside their graph — are computed
    /// from scratch, so a partial or ill-fitting map degrades to a cold
    /// build, never to a corrupt plan.
    ///
    /// The caller is responsible for passing artifacts that were extracted
    /// from a plan of the *same* task set, platform and design-time
    /// configuration; the engine's on-disk cache enforces that with a
    /// workload fingerprint.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or any scenario graph is
    /// invalid, or if any design-time artifact cannot be computed.
    pub fn new_with_artifacts(
        task_set: &'a TaskSet,
        platform: &'a Platform,
        config: SimulationConfig,
        precomputed: &BTreeMap<(TaskId, ScenarioId), ScenarioSearchArtifacts>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        // The hot kernels track slot and subtask sets as one-word bitmasks;
        // reject wider platforms here, with a descriptive error, instead of
        // truncating or panicking inside a worker thread. (Per-graph width is
        // validated by `PreparedSchedule::new` below.)
        if !SlotMask::<1>::fits(platform.tile_count()) {
            return Err(SimError::PlatformExceedsMaskWidth {
                tiles: platform.tile_count(),
                capacity: SlotMask::<1>::CAPACITY,
            });
        }
        let library = DesignTimeLibrary::build(task_set, platform, &DesignTimeScheduler::new())?;
        // Artifacts for every policy are computed eagerly so the plan stays
        // immutable (and trivially Send + Sync) afterwards. What IS worth
        // skipping are scenarios a correlated policy can never activate.
        let reachable = reachable_scenarios(&config, task_set);
        let mut jobs: Vec<(TaskId, ScenarioId, &'a SubtaskGraph)> = Vec::new();
        // Injected search artifacts, parallel to `jobs` (separate vector so
        // the graph references keep the task set's lifetime).
        let mut hints: Vec<Option<&ScenarioSearchArtifacts>> = Vec::new();
        let mut scenario_slots = Vec::with_capacity(task_set.tasks().len());
        for task in task_set.tasks() {
            let mut slots = Vec::new();
            for scenario in task.scenarios() {
                if let Some(reachable) = &reachable {
                    if !reachable.contains(&(task.id(), scenario.id())) {
                        continue;
                    }
                }
                slots.push((scenario.id(), jobs.len()));
                jobs.push((task.id(), scenario.id(), scenario.graph()));
                hints.push(precomputed.get(&(task.id(), scenario.id())));
            }
            scenario_slots.push(slots);
        }
        // Raw configuration ids are sparse (they run into the thousands on
        // generated workloads); the hot loop wants them dense. One sorted
        // dictionary of every configuration the prepared graphs require
        // renames them one-to-one, so tile contents and protection counts
        // index small tables.
        let mut dictionary: Vec<ConfigId> = jobs
            .iter()
            .flat_map(|&(_, _, graph)| graph.ids().filter_map(|id| graph.required_config(id)))
            .collect();
        dictionary.sort_unstable();
        dictionary.dedup();

        // Per-(task, scenario) preparation is independent, and the design-time
        // searches dominate a cold build — fan it out over a scoped-thread
        // claim pool, and fold the artifacts back in job order so the plan
        // is bit-identical to a sequential build no matter the thread count
        // or interleaving.
        let workers = config.resolved_threads().min(jobs.len().max(1));
        let mut slots: Vec<Option<Result<ScenarioArtifacts<'a>, SimError>>> = Vec::new();
        slots.resize_with(jobs.len(), || None);
        if workers <= 1 {
            // One kernel scratch for the whole sequential pass.
            let mut build_scratch = drhw_prefetch::Scratch::new();
            for ((slot, &job), &hint) in slots.iter_mut().zip(&jobs).zip(&hints) {
                let outcome = prepare_scenario(
                    &library,
                    &config,
                    platform,
                    job,
                    hint,
                    &dictionary,
                    &mut build_scratch,
                );
                let stop = outcome.is_err();
                *slot = Some(outcome);
                // Fail fast; the scan below reports the error from its slot.
                if stop {
                    break;
                }
            }
        } else {
            let next = AtomicUsize::new(0);
            let failed = AtomicBool::new(false);
            let results = Mutex::new(&mut slots);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        // One scratch per worker, reused across every pair the
                        // worker claims.
                        let mut build_scratch = drhw_prefetch::Scratch::new();
                        loop {
                            // Check the failure flag BEFORE claiming: once a
                            // job is claimed it is always evaluated and its
                            // slot written, so the filled slots always form a
                            // prefix of the job order and every error lands
                            // in it.
                            if failed.load(Ordering::Relaxed) {
                                break;
                            }
                            let job = next.fetch_add(1, Ordering::Relaxed);
                            if job >= jobs.len() {
                                break;
                            }
                            let outcome = prepare_scenario(
                                &library,
                                &config,
                                platform,
                                jobs[job],
                                hints[job],
                                &dictionary,
                                &mut build_scratch,
                            );
                            if outcome.is_err() {
                                failed.store(true, Ordering::Relaxed);
                            }
                            results.lock().expect("plan workers never panic")[job] = Some(outcome);
                        }
                    });
                }
            });
        }

        // Report the first error in job order — deterministic regardless of
        // which worker hit it first.
        for slot in slots.iter_mut() {
            if matches!(slot.as_ref(), Some(Err(_))) {
                let Some(Err(e)) = slot.take() else {
                    unreachable!("just matched an error in this slot")
                };
                return Err(e);
            }
        }

        let artifacts: Vec<ScenarioArtifacts<'a>> = slots
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(prepared)) => prepared,
                _ => {
                    unreachable!("workers only leave holes after an error, and errors return above")
                }
            })
            .collect();
        let scratch_shape = ScratchShape {
            subtasks: artifacts
                .iter()
                .map(|artifact| artifact.prepared.graph().len())
                .max()
                .unwrap_or(0),
            slots: artifacts
                .iter()
                .map(|artifact| artifact.prepared.schedule().slot_count())
                .max()
                .unwrap_or(0),
            tiles: platform.tile_count(),
            configs: dictionary.len(),
            tasks: task_set.tasks().len(),
        };
        Ok(IterationPlan {
            task_set,
            platform,
            config,
            shared: Arc::new(PlanShared {
                library,
                scenario_slots,
                artifacts,
                scratch_shape,
                token: PLAN_TOKENS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            }),
        })
    }

    /// Stamps out a plan for different *run-time* parameters (seed, iteration
    /// count, chunk size, replacement policy, inclusion probability, thread
    /// count) while sharing every design-time artifact with `self` — an
    /// `Arc` clone instead of a rebuild.
    ///
    /// The design-time knobs must match: the initial schedules depend on
    /// [`SimulationConfig::point_selection`] and the artifact set depends on
    /// [`SimulationConfig::scenario_policy`], so changing either requires a
    /// fresh [`IterationPlan::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IncompatiblePlanConfig`] when a design-time knob
    /// differs, or a validation error when `config` is invalid on its own.
    pub fn with_config(&self, config: SimulationConfig) -> Result<IterationPlan<'a>, SimError> {
        config.validate()?;
        if config.point_selection != self.config.point_selection {
            return Err(SimError::IncompatiblePlanConfig {
                field: "point_selection",
            });
        }
        if config.scenario_policy != self.config.scenario_policy {
            return Err(SimError::IncompatiblePlanConfig {
                field: "scenario_policy",
            });
        }
        Ok(IterationPlan {
            task_set: self.task_set,
            platform: self.platform,
            config,
            shared: Arc::clone(&self.shared),
        })
    }

    /// The configuration of this plan.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The platform the plan simulates.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// The task set the plan simulates.
    pub fn task_set(&self) -> &'a TaskSet {
        self.task_set
    }

    /// The TCM design-time library built for the task set.
    pub fn library(&self) -> &DesignTimeLibrary {
        &self.shared.library
    }

    /// Extracts the design-time search artifacts of every prepared
    /// (task, scenario) pair, in key order — the payload a persistent plan
    /// cache stores and later injects back via
    /// [`new_with_artifacts`](Self::new_with_artifacts).
    pub fn search_artifacts(&self) -> Vec<((TaskId, ScenarioId), ScenarioSearchArtifacts)> {
        let mut extracted: Vec<_> = self
            .task_set
            .tasks()
            .iter()
            .zip(&self.shared.scenario_slots)
            .flat_map(|(task, slots)| {
                slots.iter().map(|&(scenario, slot)| {
                    let artifacts = &self.shared.artifacts[slot];
                    (
                        (task.id(), scenario),
                        ScenarioSearchArtifacts {
                            design_time: artifacts.design_time.clone(),
                            hybrid: artifacts.hybrid.clone(),
                        },
                    )
                })
            })
            .collect();
        extracted.sort_unstable_by_key(|&(key, _)| key);
        extracted
    }

    /// The seed driving iteration `index`, derived from the master seed with
    /// a SplitMix64 step so neighbouring iterations get decorrelated streams.
    /// The step is a bijection of `seed + index · γ` (γ odd), so two
    /// iterations of one run never share a seed.
    pub fn iteration_seed(&self, index: usize) -> u64 {
        splitmix64(
            self.config
                .seed
                .wrapping_add((index as u64).wrapping_mul(GOLDEN_GAMMA)),
        )
    }

    /// Number of chunks the configured iteration count splits into.
    pub fn chunk_count(&self) -> usize {
        self.config.iterations.div_ceil(self.config.chunk_size)
    }

    /// Which tasks run in iteration `index` and in which scenarios. The
    /// sequence depends only on the master seed and `index`, so every policy
    /// sees exactly the same workload (paired comparisons).
    pub fn activations(&self, index: usize) -> Vec<(TaskId, ScenarioId)> {
        let mut buffer = Vec::new();
        self.pick_activations_into(index, &mut buffer);
        let tasks = self.task_set.tasks();
        buffer
            .into_iter()
            .map(|(task_index, scenario)| (tasks[task_index].id(), scenario))
            .collect()
    }

    /// Creates a [`SimScratch`] bound to this plan: tile contents for its
    /// platform, buffers pre-sized for its largest graph, widest schedule
    /// and configuration dictionary, and one memo per prepared scenario
    /// sized to the keys that scenario can produce. Evaluation through it
    /// never touches the allocator — not even on the first iteration. Any
    /// plan can evaluate through the scratch; another plan rebinds it first.
    pub fn make_scratch(&self) -> SimScratch {
        let mut scratch = SimScratch::unbound();
        self.bind(&mut scratch);
        scratch
    }

    /// Binds `scratch` to this plan (see [`SimScratch::bind_plan`]); a no-op
    /// when it already is.
    fn bind(&self, scratch: &mut SimScratch) {
        scratch.bind_plan(
            self.shared.token,
            &self.shared.scratch_shape,
            self.shared
                .artifacts
                .iter()
                .map(|artifact| artifact.prepared.graph().len()),
        );
    }

    /// Scores one (policy, iteration) pair independently of any other.
    ///
    /// The iteration is evaluated exactly as [`run`](Self::run) would
    /// evaluate it: the chunk containing `index` is replayed from its
    /// cold start so tile contents and the inter-task window carry the same
    /// history, then the outcome of iteration `index` itself is returned.
    ///
    /// # Errors
    ///
    /// Returns an error if `index` is out of range or scheduling fails.
    pub fn evaluate(&self, policy: PolicyKind, index: usize) -> Result<IterationOutcome, SimError> {
        self.evaluate_with(policy, index, &mut self.make_scratch())
    }

    /// Like [`evaluate`](Self::evaluate), reusing the caller's scratch
    /// buffers — the allocation-free entry point for repeated scoring.
    ///
    /// # Errors
    ///
    /// Returns an error if `index` is out of range or scheduling fails.
    pub fn evaluate_with(
        &self,
        policy: PolicyKind,
        index: usize,
        scratch: &mut SimScratch,
    ) -> Result<IterationOutcome, SimError> {
        if index >= self.config.iterations {
            return Err(SimError::IterationOutOfRange {
                index,
                iterations: self.config.iterations,
            });
        }
        self.bind(scratch);
        let chunk_start = index - index % self.config.chunk_size;
        scratch.reset_chunk();
        for warm in chunk_start..index {
            self.run_iteration(policy, warm, scratch)?;
        }
        self.run_iteration(policy, index, scratch)
    }

    /// Scores every configured iteration of one policy in a single
    /// sequential pass and returns the per-iteration outcomes, in iteration
    /// order.
    ///
    /// This is the entry point the differential oracle (`drhw-oracle`)
    /// targets: it exposes exactly what each iteration contributed — with the
    /// same chunked state-reset semantics [`run`](Self::run) uses — without
    /// the quadratic chunk replay that per-index [`evaluate`](Self::evaluate)
    /// calls would cost. Summing the outcomes reproduces the
    /// [`run`](Self::run) report, with one caveat for the
    /// floating-point energy field: the engine folds per-chunk partial sums
    /// in chunk order, so a bit-for-bit reproduction must group the
    /// outcomes by chunk the same way rather than running one straight fold.
    ///
    /// # Errors
    ///
    /// Returns the first scheduling error in iteration order.
    pub fn evaluate_run(&self, policy: PolicyKind) -> Result<Vec<IterationOutcome>, SimError> {
        self.evaluate_run_with(policy, &mut self.make_scratch())
    }

    /// Like [`evaluate_run`](Self::evaluate_run), reusing the caller's
    /// scratch buffers. Apart from the returned `Vec`, the pass performs no
    /// heap allocation.
    ///
    /// # Errors
    ///
    /// Returns the first scheduling error in iteration order.
    pub fn evaluate_run_with(
        &self,
        policy: PolicyKind,
        scratch: &mut SimScratch,
    ) -> Result<Vec<IterationOutcome>, SimError> {
        self.bind(scratch);
        let mut outcomes = Vec::with_capacity(self.config.iterations);
        for index in 0..self.config.iterations {
            if index % self.config.chunk_size == 0 {
                scratch.reset_chunk();
            }
            outcomes.push(self.run_iteration(policy, index, scratch)?);
        }
        Ok(outcomes)
    }

    /// Evaluates every iteration of one chunk in order and returns their
    /// summed statistics. This is the unit of work [`run`](Self::run) folds
    /// in order and the `drhw-engine` job executor schedules onto threads;
    /// workers pass their own long-lived scratch.
    ///
    /// Folding the returned [`ChunkStats`] in (policy, chunk) order with
    /// [`ChunkStats::merge`] and finishing with [`ChunkStats::finish`]
    /// reproduces the aggregate [`SimulationReport`](crate::SimulationReport)
    /// bit for bit, no matter which threads evaluated which chunks.
    ///
    /// # Errors
    ///
    /// Returns the first scheduling error in iteration order within the
    /// chunk.
    pub fn evaluate_chunk_with(
        &self,
        policy: PolicyKind,
        chunk: usize,
        scratch: &mut SimScratch,
    ) -> Result<ChunkStats, SimError> {
        self.bind(scratch);
        let start = chunk * self.config.chunk_size;
        let end = (start + self.config.chunk_size).min(self.config.iterations);
        scratch.reset_chunk();
        let mut stats = ChunkStats::default();
        for index in start..end {
            let outcome = self.run_iteration(policy, index, scratch)?;
            stats.absorb(&outcome);
        }
        Ok(stats)
    }

    /// Simulates one iteration on top of the chunk state carried in
    /// `scratch`. The steady-state loop body: no heap allocation happens in
    /// here (enforced by the `alloc_free` integration test).
    fn run_iteration(
        &self,
        policy: PolicyKind,
        index: usize,
        scratch: &mut SimScratch,
    ) -> Result<IterationOutcome, SimError> {
        self.pick_activations_into(index, &mut scratch.activations);
        let tasks = self.task_set.tasks();

        // Resolve every activation's artifact slot up front — one short scan
        // of the task's prepared scenarios per activation, after which the
        // loop below only indexes the flat artifact vector. A correlated
        // scenario policy can name a scenario the task does not define;
        // report it as the scheduling error it is rather than panicking
        // inside a worker thread.
        scratch.activation_artifacts.clear();
        for &(task_index, scenario_id) in &scratch.activations {
            let slot = self.shared.scenario_slots[task_index]
                .iter()
                .find(|&&(scenario, _)| scenario == scenario_id)
                .map(|&(_, slot)| slot)
                .ok_or(drhw_tcm::TcmError::UnknownScenario {
                    task: tasks[task_index].id(),
                    scenario: scenario_id,
                })?;
            scratch.activation_artifacts.push(slot);
        }

        // The run-time scheduler knows which tasks follow in this iteration,
        // and the reuse-aware replacement avoids evicting the configurations
        // they are about to need. Every queued activation protects its
        // configurations once here and releases them just before its own
        // assignment, so each assignment sees exactly the configurations of
        // the activations after it. Only the reuse-aware rule reads them.
        let protect =
            policy.exploits_reuse() && self.config.replacement == ReplacementPolicy::ReuseAware;
        if protect {
            for &slot in &scratch.activation_artifacts {
                scratch
                    .prefetch
                    .protect(&self.shared.artifacts[slot].required_configs);
            }
        }
        let outcome = self.run_activations(policy, protect, scratch);
        if outcome.is_err() && protect {
            // An error leaves the rest of the queue protected; the next
            // iteration must start from an all-zero table.
            scratch.prefetch.clear_protection();
        }
        outcome
    }

    /// Runs the activations resolved by [`run_iteration`](Self::run_iteration)
    /// in order, releasing each one's protection (when `protect` is set)
    /// just before its tile assignment.
    fn run_activations(
        &self,
        policy: PolicyKind,
        protect: bool,
        scratch: &mut SimScratch,
    ) -> Result<IterationOutcome, SimError> {
        let mut outcome = IterationOutcome::default();
        for position in 0..scratch.activations.len() {
            let slot = scratch.activation_artifacts[position];
            let artifacts = &self.shared.artifacts[slot];
            let prepared = &artifacts.prepared;
            let ideal = prepared.ideal_makespan();

            let (penalty, loads, cancelled, reused) = if !policy.exploits_reuse() {
                // Cached-artifact policies score against precomputed
                // summaries that do not read the tile state, the inter-task
                // window or the clock, so the whole replacement / reuse /
                // contents pipeline is skipped for them.
                match policy {
                    PolicyKind::NoPrefetch => {
                        (artifacts.on_demand.penalty, artifacts.on_demand.loads, 0, 0)
                    }
                    _ => {
                        let artifact = &artifacts.design_time;
                        (artifact.penalty(), artifact.load_count(), 0, 0)
                    }
                }
            } else {
                if protect {
                    scratch.prefetch.unprotect(&artifacts.required_configs);
                }
                prepared.assign_tiles_into(
                    &scratch.contents,
                    self.config.replacement,
                    &mut scratch.prefetch,
                )?;
                let reused = prepared.mark_reusable(&scratch.contents, &mut scratch.prefetch);

                // The evaluation kernels are pure in the residency mask (plus,
                // for the windowed policies, the number of whole loads the
                // inter-task window holds) for a prepared schedule, so their
                // summaries are served from the per-artifact memo when the
                // same state recurs — the steady-state common case within a
                // chunk. Hits are copies of previously computed summaries:
                // bit-identical by definition, which the differential oracle
                // corpus double-checks.
                let resident = scratch.prefetch.resident();
                let (penalty, loads, cancelled) = match policy {
                    PolicyKind::NoPrefetch | PolicyKind::DesignTimeOnly => {
                        unreachable!("cached-artifact policies take the fast path above")
                    }
                    PolicyKind::RunTime => {
                        let summary = match scratch.memo[slot].list.get(resident) {
                            Some(hit) => hit,
                            None => {
                                let summary = prepared.evaluate_list(&mut scratch.prefetch)?;
                                scratch.memo[slot].list.put(resident, summary);
                                summary
                            }
                        };
                        (summary.penalty, summary.loads, 0)
                    }
                    PolicyKind::RunTimeInterTask => {
                        let key = (resident, prepared.window_loads(scratch.window));
                        let (summary, preloaded) = match scratch.memo[slot].inter.get(key) {
                            Some(hit) => hit,
                            None => {
                                let computed = prepared
                                    .evaluate_inter_task(scratch.window, &mut scratch.prefetch)?;
                                scratch.memo[slot].inter.put(key, computed);
                                computed
                            }
                        };
                        scratch.window = InterTaskWindow::new(summary.trailing_port_idle);
                        (summary.penalty, summary.loads + preloaded, 0)
                    }
                    PolicyKind::Hybrid => {
                        let key = (resident, prepared.window_loads(scratch.window));
                        let summary = match scratch.memo[slot].hybrid.get(key) {
                            Some(hit) => hit,
                            None => {
                                let summary = prepared.evaluate_hybrid(
                                    &artifacts.hybrid,
                                    scratch.window,
                                    &mut scratch.prefetch,
                                )?;
                                scratch.memo[slot].hybrid.put(key, summary);
                                summary
                            }
                        };
                        scratch.window = InterTaskWindow::new(summary.trailing_port_idle);
                        (
                            summary.penalty,
                            summary.loads_performed + summary.preloaded,
                            summary.cancelled,
                        )
                    }
                };
                (penalty, loads, cancelled, reused)
            };

            outcome.activations += 1;
            outcome.ideal += ideal;
            outcome.penalty += penalty;
            outcome.loads_performed += loads;
            outcome.loads_cancelled += cancelled;
            outcome.drhw_subtasks_executed += prepared.drhw_count();
            outcome.reused_subtasks += reused;
            outcome.reconfiguration_energy_mj += loads as f64 * self.platform.reconfig_energy_mj();

            if policy.exploits_reuse() {
                scratch.now += ideal + penalty;
                prepared.apply_to_contents(&mut scratch.contents, &scratch.prefetch, scratch.now);
            }
        }

        Ok(outcome)
    }

    /// Chooses which tasks run in iteration `index` and in which scenarios,
    /// writing (task index, scenario) pairs into `out`. Allocation-free once
    /// `out` has capacity for the task count.
    fn pick_activations_into(&self, index: usize, out: &mut Vec<(usize, ScenarioId)>) {
        let mut rng = StdRng::seed_from_u64(self.iteration_seed(index));
        let tasks = self.task_set.tasks();
        out.clear();
        // Placeholder scenario ids until the selection below; the RNG call
        // sequence (inclusion draws, fallback draw, shuffle, scenario draws)
        // mirrors the original reference implementation exactly.
        for (task_index, _) in tasks.iter().enumerate() {
            if rng.gen_bool(self.config.task_inclusion_probability) {
                out.push((task_index, ScenarioId::new(0)));
            }
        }
        if out.is_empty() {
            out.push((rng.gen_range(0..tasks.len()), ScenarioId::new(0)));
        }
        out.shuffle(&mut rng);

        match &self.config.scenario_policy {
            ScenarioPolicy::Independent => {
                for slot in out.iter_mut() {
                    slot.1 = pick_weighted_scenario(&tasks[slot.0], &mut rng);
                }
            }
            ScenarioPolicy::Correlated(combos) => {
                // validate() guarantees at least one combination.
                let combo = &combos[rng.gen_range(0..combos.len())];
                for slot in out.iter_mut() {
                    let task = &tasks[slot.0];
                    slot.1 = combo
                        .get(&task.id())
                        .copied()
                        .unwrap_or_else(|| task.scenarios()[0].id());
                }
            }
        }
    }
}

/// The (task, scenario) pairs the configured scenario policy can ever
/// activate, or `None` when every pair is reachable (independent selection).
/// Under a correlated policy a task runs either the scenario a drawn
/// combination names or, when the combination omits the task, its first
/// scenario — nothing else.
fn reachable_scenarios(
    config: &SimulationConfig,
    task_set: &TaskSet,
) -> Option<BTreeSet<(TaskId, ScenarioId)>> {
    match &config.scenario_policy {
        ScenarioPolicy::Independent => None,
        ScenarioPolicy::Correlated(combos) => {
            let mut reachable = BTreeSet::new();
            for task in task_set.tasks() {
                reachable.insert((task.id(), task.scenarios()[0].id()));
                for combo in combos {
                    if let Some(&scenario) = combo.get(&task.id()) {
                        reachable.insert((task.id(), scenario));
                    }
                }
            }
            Some(reachable)
        }
    }
}

/// Builds the initial schedule of one scenario according to the configured
/// point-selection strategy.
/// Prepares every per-(task, scenario) artifact: the initial schedule, the
/// design-time and hybrid prefetch artifacts (sharing one search cache, so
/// the critical-set loop replays the design-time search's prefix
/// evaluations), the prepared hot-path schedule and the activation-independent
/// on-demand baseline. When `precomputed` carries search artifacts that fit
/// the graph, both searches are skipped and the stored artifacts are used
/// verbatim. Pure function of its inputs — the plan builder calls it
/// from worker threads and folds results back in deterministic order.
fn prepare_scenario<'a>(
    library: &DesignTimeLibrary,
    config: &SimulationConfig,
    platform: &'a Platform,
    (task, scenario, graph): (TaskId, ScenarioId, &'a SubtaskGraph),
    precomputed: Option<&ScenarioSearchArtifacts>,
    dictionary: &[ConfigId],
    build_scratch: &mut drhw_prefetch::Scratch,
) -> Result<ScenarioArtifacts<'a>, SimError> {
    let schedule = build_schedule(library, config, platform, task, scenario, graph)?;
    let (design_time, hybrid) = match precomputed.filter(|artifacts| artifacts.fits(graph)) {
        Some(artifacts) => (artifacts.design_time.clone(), artifacts.hybrid.clone()),
        None => {
            let mut search_cache = drhw_prefetch::SearchCache::new();
            let design_time = DesignTimePrefetch::compute_assisted(
                graph,
                &schedule,
                platform,
                &mut search_cache,
            )?;
            let hybrid =
                HybridPrefetch::compute_assisted(graph, &schedule, platform, &mut search_cache)?;
            (design_time, hybrid)
        }
    };
    let mut prepared = PreparedSchedule::new(graph, schedule, platform)?;
    prepared.intern_configs(dictionary);
    let mut required_configs: Vec<ConfigId> = prepared.required_configs().collect();
    required_configs.sort_unstable();
    required_configs.dedup();
    let on_demand = prepared.evaluate_on_demand_cold(build_scratch)?;
    Ok(ScenarioArtifacts {
        prepared,
        required_configs,
        design_time,
        hybrid,
        on_demand,
    })
}

fn build_schedule(
    library: &DesignTimeLibrary,
    config: &SimulationConfig,
    platform: &Platform,
    task: TaskId,
    scenario: ScenarioId,
    graph: &SubtaskGraph,
) -> Result<InitialSchedule, SimError> {
    let tiles = platform.tile_count();
    match config.point_selection {
        PointSelection::FullyParallel => {
            let parallel = InitialSchedule::fully_parallel(graph)?;
            if parallel.slot_count() <= tiles {
                return Ok(parallel);
            }
            // Fall back to the fastest Pareto point that fits.
            fastest_schedule(library, task, scenario, tiles)
        }
        PointSelection::Fastest => fastest_schedule(library, task, scenario, tiles),
        PointSelection::EnergyAware => {
            let runtime = RuntimeScheduler::new(library);
            let point = runtime.select(TaskActivation { task, scenario }, tiles)?;
            Ok(point.schedule().clone())
        }
    }
}

/// The fastest Pareto point of the scenario that fits on `tiles` tiles.
fn fastest_schedule(
    library: &DesignTimeLibrary,
    task: TaskId,
    scenario: ScenarioId,
    tiles: usize,
) -> Result<InitialSchedule, SimError> {
    let curve = library.curve(task, scenario)?;
    let point = curve
        .fastest_within_tiles(tiles)
        .ok_or(drhw_tcm::TcmError::NoFeasiblePoint {
            task,
            scenario,
            available_tiles: tiles,
        })?;
    Ok(point.schedule().clone())
}

/// Picks a scenario of a task with probability proportional to the scenario
/// weights.
fn pick_weighted_scenario(task: &Task, rng: &mut StdRng) -> ScenarioId {
    let total: f64 = task.scenarios().iter().map(|s| s.probability()).sum();
    if total <= 0.0 {
        return task.scenarios()[0].id();
    }
    let mut draw = rng.gen::<f64>() * total;
    for scenario in task.scenarios() {
        draw -= scenario.probability();
        if draw <= 0.0 {
            return scenario.id();
        }
    }
    task.scenarios()
        .last()
        .expect("tasks always have a scenario")
        .id()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use drhw_model::{Scenario, Subtask, Time};

    /// A small two-task set — a three-subtask chain and a fork — enough to
    /// exercise reuse, the fallback Pareto point and correlated scenarios.
    pub(crate) fn two_task_set() -> TaskSet {
        let mut chain = SubtaskGraph::new("chain");
        let ids: Vec<_> = (0..3)
            .map(|i| {
                chain.add_subtask(Subtask::new(
                    format!("c{i}"),
                    Time::from_millis(10),
                    ConfigId::new(i),
                ))
            })
            .collect();
        chain.add_dependency(ids[0], ids[1]).unwrap();
        chain.add_dependency(ids[1], ids[2]).unwrap();

        let mut fork = SubtaskGraph::new("fork");
        let root = fork.add_subtask(Subtask::new(
            "root",
            Time::from_millis(15),
            ConfigId::new(10),
        ));
        for i in 0..2 {
            let child = fork.add_subtask(Subtask::new(
                format!("f{i}"),
                Time::from_millis(8),
                ConfigId::new(11 + i),
            ));
            fork.add_dependency(root, child).unwrap();
        }

        TaskSet::new(
            "small",
            vec![
                Task::new(
                    TaskId::new(0),
                    "chain",
                    vec![Scenario::new(ScenarioId::new(0), chain)],
                )
                .unwrap(),
                Task::new(
                    TaskId::new(1),
                    "fork",
                    vec![Scenario::new(ScenarioId::new(0), fork)],
                )
                .unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn plan_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IterationPlan<'_>>();
    }

    #[test]
    fn iteration_seeds_are_stable_and_distinct() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        let seeds: Vec<u64> = (0..50).map(|i| plan.iteration_seed(i)).collect();
        let again: Vec<u64> = (0..50).map(|i| plan.iteration_seed(i)).collect();
        assert_eq!(seeds, again);
        let unique: BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(
            unique.len(),
            seeds.len(),
            "iteration seeds must not collide"
        );
    }

    #[test]
    fn activations_are_independent_of_evaluation_order() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        // Reading iteration 7's workload before or after iteration 3's makes
        // no difference: the sequences depend only on (seed, index).
        let seven = plan.activations(7);
        let three = plan.activations(3);
        assert_eq!(plan.activations(3), three);
        assert_eq!(plan.activations(7), seven);
        assert!(!seven.is_empty());
    }

    #[test]
    fn evaluate_is_pure_and_paired_across_policies() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        let a = plan.evaluate(PolicyKind::Hybrid, 11).unwrap();
        let b = plan.evaluate(PolicyKind::Hybrid, 11).unwrap();
        assert_eq!(a, b, "evaluate must be a pure function of (policy, index)");
        // Paired workload: every policy executes the same activations.
        let np = plan.evaluate(PolicyKind::NoPrefetch, 11).unwrap();
        assert_eq!(a.activations(), np.activations());
        assert_eq!(a.ideal(), np.ideal());
    }

    #[test]
    fn unknown_correlated_scenario_is_an_error_not_a_panic() {
        // A correlated combination can name a scenario a task does not
        // define; the engine must surface TcmError::UnknownScenario instead
        // of panicking inside a worker.
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let mut combo = BTreeMap::new();
        combo.insert(TaskId::new(0), ScenarioId::new(99));
        combo.insert(TaskId::new(1), ScenarioId::new(0));
        let config =
            SimulationConfig::quick().with_scenario_policy(ScenarioPolicy::Correlated(vec![combo]));
        let plan = IterationPlan::new(&set, &platform, config).unwrap();
        let mut saw_unknown = false;
        for index in 0..plan.config().iterations {
            match plan.evaluate(PolicyKind::NoPrefetch, index) {
                Ok(_) => {}
                Err(SimError::Tcm(drhw_tcm::TcmError::UnknownScenario { task, scenario })) => {
                    assert_eq!(task, TaskId::new(0));
                    assert_eq!(scenario, ScenarioId::new(99));
                    saw_unknown = true;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        // Task 0 is activated in some iteration of the quick config.
        assert!(saw_unknown);
    }

    #[test]
    fn an_error_mid_iteration_leaves_no_configuration_protected() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let config = SimulationConfig::quick().with_chunk_size(1);
        let cold = IterationPlan::new(&set, &platform, config.clone()).unwrap();
        let mut artifacts: BTreeMap<_, _> = cold.search_artifacts().into_iter().collect();
        // A stored load order naming the chain's first subtask twice: the
        // hybrid kernel rejects it on the chain's cold activation, while the
        // fork queued behind it still has its configurations protected.
        let chain = (TaskId::new(0), ScenarioId::new(0));
        let fork = (TaskId::new(1), ScenarioId::new(0));
        artifacts.get_mut(&chain).unwrap().hybrid =
            HybridPrefetch::from_critical(drhw_prefetch::CriticalSetAnalysis::from_parts(
                Vec::new(),
                vec![drhw_model::SubtaskId::new(0); 2],
                Time::ZERO,
                0,
                3,
            ));
        let plan = IterationPlan::new_with_artifacts(&set, &platform, config, &artifacts).unwrap();
        let index = (0..plan.config().iterations)
            .find(|&i| plan.activations(i) == [chain, fork])
            .expect("some iteration runs the chain before the fork");
        let mut scratch = plan.make_scratch();
        let err = plan
            .evaluate_with(PolicyKind::Hybrid, index, &mut scratch)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Prefetch(drhw_prefetch::PrefetchError::InvalidLoadOrder { .. })
            ),
            "{err}"
        );
        assert!((0..plan.shared.scratch_shape.configs)
            .all(|config| !scratch.prefetch.is_protected(ConfigId::new(config))));
    }

    #[test]
    fn with_config_shares_artifacts_and_matches_a_fresh_plan() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let base = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        let reconfigured = SimulationConfig::quick()
            .with_seed(99)
            .with_iterations(17)
            .with_chunk_size(5);
        let derived = base.with_config(reconfigured.clone()).unwrap();
        let fresh = IterationPlan::new(&set, &platform, reconfigured).unwrap();
        for index in [0, 7, 16] {
            assert_eq!(
                derived.evaluate(PolicyKind::Hybrid, index).unwrap(),
                fresh.evaluate(PolicyKind::Hybrid, index).unwrap(),
                "iteration {index}"
            );
        }
        // The derived plan shares (not recomputes) the artifacts.
        assert!(Arc::ptr_eq(&base.shared, &derived.shared));
    }

    #[test]
    fn injected_search_artifacts_round_trip_bit_identically() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let config = SimulationConfig::quick();
        let cold = IterationPlan::new(&set, &platform, config.clone()).unwrap();
        let extracted: BTreeMap<_, _> = cold.search_artifacts().into_iter().collect();
        assert_eq!(extracted.len(), 2);
        let warm =
            IterationPlan::new_with_artifacts(&set, &platform, config.clone(), &extracted).unwrap();
        // The warm build skipped the searches but produced the same plan.
        assert_eq!(
            warm.search_artifacts()
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
            extracted
        );
        for policy in [PolicyKind::Hybrid, PolicyKind::DesignTimeOnly] {
            for index in [0, 5, 11] {
                assert_eq!(
                    cold.evaluate(policy, index).unwrap(),
                    warm.evaluate(policy, index).unwrap(),
                    "{policy} iteration {index}"
                );
            }
        }

        // Ill-fitting artifacts (ids out of range for the graph) are ignored
        // and recomputed, never trusted.
        let mut poisoned = extracted.clone();
        for artifacts in poisoned.values_mut() {
            artifacts.design_time = DesignTimePrefetch::from_parts(
                vec![drhw_model::SubtaskId::new(99)],
                Time::from_millis(1),
                Time::from_millis(1),
            );
        }
        let repaired =
            IterationPlan::new_with_artifacts(&set, &platform, config, &poisoned).unwrap();
        assert_eq!(
            repaired
                .search_artifacts()
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
            extracted
        );
    }

    #[test]
    fn with_config_rejects_design_time_knob_changes() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        let err = plan
            .with_config(SimulationConfig::quick().with_point_selection(PointSelection::Fastest))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::IncompatiblePlanConfig {
                field: "point_selection"
            }
        );
        assert!(err.to_string().contains("point_selection"));
        let err = plan
            .with_config(
                SimulationConfig::quick()
                    .with_scenario_policy(ScenarioPolicy::Correlated(vec![BTreeMap::new()])),
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::IncompatiblePlanConfig {
                field: "scenario_policy"
            }
        );
    }

    #[test]
    fn evaluate_rejects_out_of_range_iterations() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let config = SimulationConfig::quick().with_iterations(10);
        let plan = IterationPlan::new(&set, &platform, config).unwrap();
        assert!(matches!(
            plan.evaluate(PolicyKind::RunTime, 10).unwrap_err(),
            SimError::IterationOutOfRange {
                index: 10,
                iterations: 10
            }
        ));
    }

    #[test]
    fn wide_platforms_are_rejected_at_plan_time() {
        // The bitmask kernels track at most SlotMask::<1>::CAPACITY slots; a
        // wider platform must be rejected with a descriptive error before
        // any worker thread starts, not truncated or panicked on.
        let set = two_task_set();
        let platform = Platform::virtex_like(SlotMask::<1>::CAPACITY + 1).unwrap();
        let err = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap_err();
        assert_eq!(
            err,
            SimError::PlatformExceedsMaskWidth {
                tiles: SlotMask::<1>::CAPACITY + 1,
                capacity: SlotMask::<1>::CAPACITY
            }
        );
        assert!(err.to_string().contains("65 tiles"));
    }

    #[test]
    fn memo_tables_follow_each_scenario_key_space() {
        use drhw_workloads::{MultimediaWorkload, PocketGlWorkload, Workload};
        for (workload, tiles) in [
            (&PocketGlWorkload as &dyn Workload, 5),
            (&MultimediaWorkload, 8),
        ] {
            let set = workload.task_set();
            let platform = Platform::virtex_like(tiles).unwrap();
            let mut config = SimulationConfig::quick();
            config.task_inclusion_probability = workload.task_inclusion_probability();
            if let Some(combos) = workload.correlated_scenarios() {
                config = config.with_scenario_policy(ScenarioPolicy::Correlated(combos));
            }
            let plan = IterationPlan::new(&set, &platform, config).unwrap();
            let scratch = plan.make_scratch();
            assert_eq!(scratch.memo.len(), plan.shared.artifacts.len());
            for (artifacts, memo) in plan.shared.artifacts.iter().zip(&scratch.memo) {
                let graph = artifacts.prepared.graph();
                let n = graph.len();
                let label = format!("{} ({n} subtasks)", graph.name());
                // Every list memo of both workloads fits in 2^n entries.
                assert!(memo.list.is_key_indexed(), "{label}");
                let windowed = memo.inter.is_key_indexed();
                assert_eq!(memo.hybrid.is_key_indexed(), windowed, "{label}");
                assert_eq!(windowed, (n + 1) << n <= 256, "{label}");
                match graph.name() {
                    "parallel-jpeg" | "pattern-recognition" => assert!(!windowed, "{label}"),
                    "jpeg-decoder" | "mpeg-encoder-i" | "mpeg-encoder-p" | "mpeg-encoder-b" => {
                        assert!(windowed, "{label}")
                    }
                    // Pocket GL: key-indexed throughout.
                    _ => assert!(windowed && n <= 2, "{label}"),
                }
            }
        }
    }

    #[test]
    fn chunk_count_rounds_up() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let config = SimulationConfig::quick()
            .with_iterations(33)
            .with_chunk_size(16);
        let plan = IterationPlan::new(&set, &platform, config).unwrap();
        assert_eq!(plan.chunk_count(), 3);
    }

    #[test]
    fn evaluate_run_matches_per_index_evaluation() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let config = SimulationConfig::quick()
            .with_iterations(13)
            .with_chunk_size(4);
        let plan = IterationPlan::new(&set, &platform, config).unwrap();
        for policy in [PolicyKind::Hybrid, PolicyKind::RunTimeInterTask] {
            let run = plan.evaluate_run(policy).unwrap();
            assert_eq!(run.len(), 13);
            for (index, outcome) in run.iter().enumerate() {
                assert_eq!(
                    outcome,
                    &plan.evaluate(policy, index).unwrap(),
                    "{policy} iteration {index}"
                );
            }
        }
    }

    #[test]
    fn evaluate_matches_the_chunk_pass() {
        // Summing evaluate() over a chunk's iterations reproduces exactly what
        // evaluate_chunk computes in one pass.
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let config = SimulationConfig::quick()
            .with_iterations(12)
            .with_chunk_size(4);
        let plan = IterationPlan::new(&set, &platform, config).unwrap();
        let chunk = plan
            .evaluate_chunk_with(PolicyKind::RunTime, 1, &mut plan.make_scratch())
            .unwrap();
        let mut summed = ChunkStats::default();
        for index in 4..8 {
            summed.absorb(&plan.evaluate(PolicyKind::RunTime, index).unwrap());
        }
        assert_eq!(
            chunk.finish(PolicyKind::RunTime, 6, 4),
            summed.finish(PolicyKind::RunTime, 6, 4)
        );
    }
}
