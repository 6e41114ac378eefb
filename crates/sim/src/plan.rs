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
//!
//! Every entry point runs the same pass over a slice of policies
//! ([`IterationPlan::evaluate_chunk_policies_with`]; the one-policy entry
//! points pass one). It draws and resolves each iteration's activations
//! once and runs the tile replacement once per activation for all the
//! reuse-exploiting policies, keeping only the inter-task window, the memo
//! lookup and the sums per policy. Those policies share one tile state when
//! every prepared scenario has a positive ideal makespan, and keep one each
//! otherwise (see [`SimScratch`] for why that is exact).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use drhw_model::{
    splitmix64, ConfigId, InitialSchedule, Platform, ScenarioId, SubtaskGraph, Task, TaskId,
    TaskSet, Time, GOLDEN_GAMMA,
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
use crate::scratch::{KernelMemo, Lane, MemoPool, ScratchShape, SimScratch};
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
struct ScenarioArtifacts {
    /// The prepared schedule, its configurations interned into the plan's
    /// dense dictionary.
    prepared: PreparedSchedule,
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

impl ScenarioArtifacts {
    /// What a cached-artifact policy (no prefetch, design-time prefetch)
    /// scores for one activation of the scenario: its precomputed summary,
    /// whatever the tile state.
    fn cached_score(&self, policy: PolicyKind) -> Scored {
        if policy == PolicyKind::NoPrefetch {
            (self.on_demand.penalty, self.on_demand.loads, 0)
        } else {
            (self.design_time.penalty(), self.design_time.load_count(), 0)
        }
    }
}

/// The shared, iteration-independent part of a plan: the task set it
/// simulates (the plan's own copy), the TCM library and the per-scenario
/// artifacts — the design, free of the platform it runs on. Behind an
/// [`Arc`] so re-parameterised plans ([`IterationPlan::with_config`]) and
/// plans for other tile counts ([`IterationPlan::with_platform`]) share it
/// instead of recomputing it — this is what the engine-layer plan cache
/// amortises across jobs.
#[derive(Debug)]
struct PlanShared {
    task_set: TaskSet,
    library: DesignTimeLibrary,
    /// Per task, in task-set order, the (scenario, slot in `artifacts`)
    /// pairs the plan prepared. Scanned once per activation per iteration to
    /// resolve the flat slot; the hot loop then indexes the vector directly.
    scenario_slots: Vec<Vec<(ScenarioId, usize)>>,
    artifacts: Vec<ScenarioArtifacts>,
    /// What a scratch bound to this plan must hold. Its `configs` is the
    /// number of distinct configurations the plan's graphs require: the
    /// artifacts' dense configuration ids are `0..configs`.
    scratch_shape: ScratchShape,
    /// Whether every prepared scenario has a positive ideal makespan, which
    /// lets the reuse-exploiting policies of a pass share one tile state.
    shares_tiles: bool,
    /// The most DRHW subtasks of any scenario graph of the task set,
    /// reachable or not (the library covers every scenario). On at least
    /// this many tiles every graph fits, so nothing above depends on the
    /// tile count.
    width: usize,
    /// The kernel memo sets no scratch holds (see [`SimScratch`]). Plans
    /// stamped out by `with_config` and `with_platform` share it, and its
    /// identity is what a scratch checks to tell whether it is bound to
    /// this design.
    memos: Arc<MemoPool>,
}

/// A fully prepared simulation: design-time artifacts for every scenario of
/// every task, ready to score any (policy, iteration) pair from any thread.
///
/// The plan owns a copy of the task set and platform it was built from, so
/// it borrows nothing and can outlive its inputs. It is immutable after
/// construction and `Send + Sync`, so a single instance can back every
/// worker of an engine job. The task set and the design-time artifacts live
/// behind an [`Arc`], so [`with_config`](Self::with_config) can stamp out
/// plans for new run-time parameters (seed, iteration count, replacement
/// policy, …) and [`with_platform`](Self::with_platform) plans for other
/// tile counts the graphs fit, without repeating any design-time work.
#[derive(Debug)]
pub struct IterationPlan {
    config: SimulationConfig,
    platform: Platform,
    shared: Arc<PlanShared>,
}

impl IterationPlan {
    /// Prepares a plan: validates the configuration, builds the TCM
    /// design-time library, and precomputes the initial schedule plus the
    /// design-time and hybrid prefetch artifacts of every scenario.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or any scenario graph is
    /// invalid, or if any design-time artifact cannot be computed.
    pub fn new(
        task_set: &TaskSet,
        platform: &Platform,
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
        task_set: &TaskSet,
        platform: &Platform,
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
        let mut jobs: Vec<(TaskId, ScenarioId, &SubtaskGraph)> = Vec::new();
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

        // One kernel scratch serves every pair; the first error in job order
        // stops the build.
        let mut build_scratch = drhw_prefetch::Scratch::new();
        let artifacts = jobs
            .iter()
            .map(|&job| {
                prepare_scenario(
                    &library,
                    &config,
                    platform,
                    job,
                    precomputed,
                    &dictionary,
                    &mut build_scratch,
                )
            })
            .collect::<Result<Vec<ScenarioArtifacts>, SimError>>()?;
        let scratch_shape = ScratchShape {
            subtasks: artifacts
                .iter()
                .map(|artifact| artifact.prepared.subtask_count())
                .max()
                .unwrap_or(0),
            slots: artifacts
                .iter()
                .map(|artifact| artifact.prepared.schedule().slot_count())
                .max()
                .unwrap_or(0),
            configs: dictionary.len(),
            tasks: task_set.tasks().len(),
        };
        let shares_tiles = artifacts
            .iter()
            .all(|artifact| artifact.prepared.ideal_makespan() > Time::ZERO);
        let width = task_set
            .tasks()
            .iter()
            .flat_map(Task::scenarios)
            .map(|scenario| scenario.graph().drhw_subtasks().len())
            .max()
            .unwrap_or(0);
        Ok(IterationPlan {
            config,
            platform: platform.clone(),
            shared: Arc::new(PlanShared {
                task_set: task_set.clone(),
                library,
                scenario_slots,
                artifacts,
                scratch_shape,
                shares_tiles,
                width,
                memos: Arc::default(),
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
    pub fn with_config(&self, config: SimulationConfig) -> Result<IterationPlan, SimError> {
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
            config,
            platform: self.platform.clone(),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Stamps out the plan for another `platform`, sharing every design-time
    /// artifact with `self` — the library, the per-scenario artifacts, the
    /// configuration dictionary and the kernel memo pool — or `None` when
    /// some artifact could differ there, and only a fresh
    /// [`IterationPlan::new`] gives the right plan.
    ///
    /// The two platforms must differ in their tile count alone (the same
    /// reconfiguration latency, ISP count and energy per load), and both
    /// must have at least the plan's *width* of tiles — the most DRHW
    /// subtasks of any scenario graph of the task set — because the
    /// artifacts depend on the tile count only while some graph does not
    /// fit. At or above the width every Pareto curve has one point per DRHW
    /// subtask and every point fits, so each point selection picks the same
    /// initial schedule, and the searches and prepared schedules read the
    /// platform only through its latency.
    pub fn with_platform(&self, platform: &Platform) -> Option<IterationPlan> {
        let tiles = platform.tile_count();
        let shares_design = self.platform.tile_count() >= self.shared.width
            && tiles >= self.shared.width
            && SlotMask::<1>::fits(tiles)
            && platform
                .resized(self.platform.tile_count())
                .is_ok_and(|resized| resized == self.platform);
        shares_design.then(|| IterationPlan {
            config: self.config.clone(),
            platform: platform.clone(),
            shared: Arc::clone(&self.shared),
        })
    }

    /// The configuration of this plan.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The platform the plan simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The task set the plan simulates.
    pub fn task_set(&self) -> &TaskSet {
        &self.shared.task_set
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
            .task_set()
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
        let tasks = self.task_set().tasks();
        buffer
            .into_iter()
            .map(|(task_index, scenario)| (tasks[task_index].id(), scenario))
            .collect()
    }

    /// Creates a [`SimScratch`] bound to this plan: tile contents for its
    /// platform, buffers pre-sized for its largest graph, widest schedule
    /// and configuration dictionary, and a memo set of the plan's — one memo
    /// per prepared scenario, sized to the keys that scenario can produce.
    /// The set comes from the plan's memo pool, warm with what earlier
    /// scratches of the plan (or of any plan stamped out by
    /// [`with_config`](Self::with_config) or
    /// [`with_platform`](Self::with_platform)) computed; only when the pool is
    /// empty are the tables built cold. Dropping the scratch hands the set
    /// back. Evaluation through it never touches the allocator — not even
    /// on the first iteration. Any plan can evaluate through the scratch;
    /// another plan rebinds it first.
    pub fn make_scratch(&self) -> SimScratch {
        let mut scratch = SimScratch::unbound();
        self.bind(&mut scratch);
        scratch
    }

    /// Binds `scratch` to this plan (see [`SimScratch::bind_plan`]); a no-op
    /// when it already is.
    fn bind(&self, scratch: &mut SimScratch) {
        scratch.bind_plan(
            &self.shared.memos,
            &self.shared.scratch_shape,
            self.platform.tile_count(),
            self.shared
                .artifacts
                .iter()
                .map(|artifact| artifact.prepared.subtask_count()),
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
        self.start_chunk(&[policy], scratch);
        for replayed in index - index % self.config.chunk_size..=index {
            self.run_iteration(replayed, scratch);
        }
        let lane = &mut scratch.lanes[0];
        match lane.error.take() {
            Some(error) => Err(error),
            None => Ok(lane.outcome.clone()),
        }
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
        let mut outcomes = Vec::with_capacity(self.config.iterations);
        for index in 0..self.config.iterations {
            if index % self.config.chunk_size == 0 {
                self.start_chunk(&[policy], scratch);
            }
            self.run_iteration(index, scratch);
            let lane = &mut scratch.lanes[0];
            if let Some(error) = lane.error.take() {
                return Err(error);
            }
            outcomes.push(lane.outcome.clone());
        }
        Ok(outcomes)
    }

    /// Evaluates every iteration of one chunk for one policy and returns
    /// their summed statistics: the one-policy case of
    /// [`evaluate_chunk_policies_with`](Self::evaluate_chunk_policies_with).
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
        self.evaluate_chunk_policies_with(&[policy], chunk, scratch)
            .next()
            .expect("one lane per policy")
    }

    /// Evaluates every iteration of one chunk for every policy in
    /// `policies` in one pass, and yields one result per policy, in the
    /// order given: the policy's summed statistics, or its first scheduling
    /// error in iteration order within the chunk. An error ends only its
    /// own policy's chunk.
    ///
    /// The pass draws and resolves each iteration's activations once and
    /// runs the tile replacement once per activation for all the
    /// reuse-exploiting policies (see [`SimScratch`] for when they share
    /// one tile state); only the inter-task window, the memoised timing
    /// kernels and the sums are kept per policy. Each result equals what a
    /// one-policy pass gives — this is the unit of work [`run`](Self::run)
    /// and the `drhw-engine` job executor schedule, with workers passing
    /// their own long-lived scratch.
    pub fn evaluate_chunk_policies_with<'s>(
        &self,
        policies: &[PolicyKind],
        chunk: usize,
        scratch: &'s mut SimScratch,
    ) -> impl ExactSizeIterator<Item = Result<ChunkStats, SimError>> + 's {
        let start = chunk * self.config.chunk_size;
        let end = (start + self.config.chunk_size).min(self.config.iterations);
        self.start_chunk(policies, scratch);
        for index in start..end {
            self.run_iteration(index, scratch);
            for lane in &mut scratch.lanes {
                if lane.error.is_none() {
                    lane.stats.absorb(&lane.outcome);
                }
            }
        }
        scratch.lanes.iter_mut().map(Lane::take_result)
    }

    /// Binds `scratch` to this plan and starts a chunk's pass over
    /// `policies`, whose reuse-exploiting lanes share one tile state when
    /// the plan allows it (see [`SimScratch`]).
    fn start_chunk(&self, policies: &[PolicyKind], scratch: &mut SimScratch) {
        self.bind(scratch);
        scratch.start_chunk(
            policies,
            self.shared.shares_tiles,
            self.shared.scratch_shape.configs,
        );
    }

    /// Simulates iteration `index` for every running lane of the pass,
    /// on top of the chunk state carried in `scratch`, leaving each lane's
    /// outcome in `Lane::outcome` or its error in `Lane::error`. The one
    /// iteration implementation and the steady-state loop body: no heap
    /// allocation happens in here (enforced by the `alloc_free` integration
    /// test).
    fn run_iteration(&self, index: usize, scratch: &mut SimScratch) {
        if scratch.lanes.iter().all(|lane| lane.error.is_some()) {
            return;
        }
        self.pick_activations_into(index, &mut scratch.activations);

        // Resolve every activation's artifact slot up front — one short scan
        // of the task's prepared scenarios per activation, after which the
        // loops below only index the flat artifact vector. A correlated
        // scenario policy can name a scenario the task does not define;
        // report it as the scheduling error it is rather than panicking
        // inside a worker thread.
        scratch.activation_artifacts.clear();
        for &(task_index, scenario_id) in &scratch.activations {
            let slot = self.shared.scenario_slots[task_index]
                .iter()
                .find(|&&(scenario, _)| scenario == scenario_id)
                .map(|&(_, slot)| slot);
            let Some(slot) = slot else {
                let error = SimError::from(drhw_tcm::TcmError::UnknownScenario {
                    task: self.task_set().tasks()[task_index].id(),
                    scenario: scenario_id,
                });
                for lane in scratch.lanes.iter_mut().filter(|lane| lane.error.is_none()) {
                    lane.error = Some(error.clone());
                }
                return;
            };
            scratch.activation_artifacts.push(slot);
        }
        for lane in &mut scratch.lanes {
            lane.outcome = IterationOutcome::default();
        }
        self.run_reuse_lanes(scratch);
        self.run_cached_lanes(scratch);
    }

    /// Runs the resolved activations of an iteration for the
    /// reuse-exploiting lanes: the replacement / reuse / contents pipeline
    /// once per activation and tile state, then the window, memo lookup and
    /// sums of every lane that reads the state.
    fn run_reuse_lanes(&self, scratch: &mut SimScratch) {
        let SimScratch {
            prefetch,
            tiles,
            tile_states,
            lanes,
            activation_artifacts,
            memo,
            ..
        } = scratch;
        if !lanes
            .iter()
            .any(|lane| lane.tiles.is_some() && lane.error.is_none())
        {
            return;
        }
        // The run-time scheduler knows which tasks follow in this iteration,
        // and the reuse-aware replacement avoids evicting the configurations
        // they are about to need. Every queued activation protects its
        // configurations once here and releases them just before its
        // assignments, so each assignment sees exactly the configurations of
        // the activations after it, and the table is back at zero when the
        // iteration ends. Only the reuse-aware rule reads them.
        let protect = self.config.replacement == ReplacementPolicy::ReuseAware;
        if protect {
            for &slot in activation_artifacts.iter() {
                prefetch.protect(&self.shared.artifacts[slot].required_configs);
            }
        }
        let energy_per_load = self.platform().reconfig_energy_mj();
        for &slot in activation_artifacts.iter() {
            let artifacts = &self.shared.artifacts[slot];
            let prepared = &artifacts.prepared;
            let memo = &mut memo[slot];
            if protect {
                prefetch.unprotect(&artifacts.required_configs);
            }
            for (state_index, state) in tiles[..*tile_states].iter_mut().enumerate() {
                if !lanes.iter().any(|lane| lane.reads(state_index)) {
                    continue;
                }
                let assigned =
                    prepared.assign_tiles_into(&state.contents, self.config.replacement, prefetch);
                if let Err(error) = assigned {
                    let error = SimError::from(error);
                    for lane in lanes.iter_mut().filter(|lane| lane.reads(state_index)) {
                        lane.error = Some(error.clone());
                    }
                    continue;
                }
                let reused = match self.config.replacement {
                    // The reuse-aware assignment left the residency mask.
                    ReplacementPolicy::ReuseAware => prefetch.resident().len(),
                    ReplacementPolicy::LeastRecentlyUsed | ReplacementPolicy::Direct => {
                        prepared.mark_reusable(&state.contents, prefetch)
                    }
                };
                let mut elapsed = prepared.ideal_makespan();
                for lane in lanes.iter_mut().filter(|lane| lane.reads(state_index)) {
                    match score(lane.policy, artifacts, memo, &mut lane.window, prefetch) {
                        Ok(scored) => {
                            if !state.shared {
                                elapsed += scored.0;
                            }
                            add_activation(
                                &mut lane.outcome,
                                prepared,
                                scored,
                                reused,
                                energy_per_load,
                            );
                        }
                        Err(error) => lane.error = Some(error),
                    }
                }
                state.now += elapsed;
                prepared.apply_to_contents(&mut state.contents, prefetch, state.now);
            }
        }
    }

    /// Runs the resolved activations of an iteration for the
    /// cached-artifact lanes, one lane at a time: their precomputed
    /// summaries read no tile state, window or clock.
    fn run_cached_lanes(&self, scratch: &mut SimScratch) {
        let energy_per_load = self.platform().reconfig_energy_mj();
        for lane in scratch
            .lanes
            .iter_mut()
            .filter(|lane| lane.tiles.is_none() && lane.error.is_none())
        {
            let mut outcome = IterationOutcome::default();
            for &slot in &scratch.activation_artifacts {
                let artifacts = &self.shared.artifacts[slot];
                let scored = artifacts.cached_score(lane.policy);
                add_activation(
                    &mut outcome,
                    &artifacts.prepared,
                    scored,
                    0,
                    energy_per_load,
                );
            }
            lane.outcome = outcome;
        }
    }

    /// Chooses which tasks run in iteration `index` and in which scenarios,
    /// writing (task index, scenario) pairs into `out`. Allocation-free once
    /// `out` has capacity for the task count.
    fn pick_activations_into(&self, index: usize, out: &mut Vec<(usize, ScenarioId)>) {
        let mut rng = StdRng::seed_from_u64(self.iteration_seed(index));
        let tasks = self.task_set().tasks();
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

/// What one activation of one policy scored: (penalty, loads performed,
/// loads cancelled).
type Scored = (Time, usize, usize);

/// Scores one activation of a reuse-exploiting `policy` on a scenario's
/// artifacts. It reads the residency mask `prefetch` holds and, for the
/// windowed policies, `window`, which they then replace with the task's
/// trailing port idle time.
///
/// The evaluation kernels are pure in the residency mask (plus, for the
/// windowed policies, the number of whole loads the inter-task window holds)
/// for a prepared schedule, so their summaries are served from the
/// scenario's memo when the same state recurs — the steady-state common
/// case within a chunk. Hits are copies of previously computed summaries:
/// bit-identical by definition, which the differential oracle corpus
/// double-checks.
fn score(
    policy: PolicyKind,
    artifacts: &ScenarioArtifacts,
    memo: &mut KernelMemo,
    window: &mut InterTaskWindow,
    prefetch: &mut drhw_prefetch::Scratch,
) -> Result<Scored, SimError> {
    let prepared = &artifacts.prepared;
    let resident = prefetch.resident();
    Ok(match policy {
        PolicyKind::NoPrefetch | PolicyKind::DesignTimeOnly => artifacts.cached_score(policy),
        PolicyKind::RunTime => {
            let summary = match memo.list.get(resident) {
                Some(hit) => hit,
                None => {
                    let summary = prepared.evaluate_list(prefetch)?;
                    memo.list.put(resident, summary);
                    summary
                }
            };
            (summary.penalty, summary.loads, 0)
        }
        PolicyKind::RunTimeInterTask => {
            let key = (resident, prepared.window_loads(*window));
            let (summary, preloaded) = match memo.inter.get(key) {
                Some(hit) => hit,
                None => {
                    let computed = prepared.evaluate_inter_task(*window, prefetch)?;
                    memo.inter.put(key, computed);
                    computed
                }
            };
            *window = InterTaskWindow::new(summary.trailing_port_idle);
            (summary.penalty, summary.loads + preloaded, 0)
        }
        PolicyKind::Hybrid => {
            let key = (resident, prepared.window_loads(*window));
            let summary = match memo.hybrid.get(key) {
                Some(hit) => hit,
                None => {
                    let summary = prepared.evaluate_hybrid(&artifacts.hybrid, *window, prefetch)?;
                    memo.hybrid.put(key, summary);
                    summary
                }
            };
            *window = InterTaskWindow::new(summary.trailing_port_idle);
            (
                summary.penalty,
                summary.loads_performed + summary.preloaded,
                summary.cancelled,
            )
        }
    })
}

/// Adds one scored activation of `prepared`, which reused `reused`
/// subtasks, to an iteration's outcome.
fn add_activation(
    outcome: &mut IterationOutcome,
    prepared: &PreparedSchedule,
    (penalty, loads, cancelled): Scored,
    reused: usize,
    energy_per_load: f64,
) {
    outcome.activations += 1;
    outcome.ideal += prepared.ideal_makespan();
    outcome.penalty += penalty;
    outcome.loads_performed += loads;
    outcome.loads_cancelled += cancelled;
    outcome.drhw_subtasks_executed += prepared.drhw_count();
    outcome.reused_subtasks += reused;
    outcome.reconfiguration_energy_mj += loads as f64 * energy_per_load;
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

/// Prepares every per-(task, scenario) artifact: the initial schedule, the
/// design-time and hybrid prefetch artifacts (sharing one search cache, so
/// the critical-set loop replays the design-time search's prefix
/// evaluations), the prepared hot-path schedule and the activation-independent
/// on-demand baseline. When `precomputed` carries search artifacts for the
/// pair that fit the graph, both searches are skipped and the stored
/// artifacts are used verbatim.
fn prepare_scenario(
    library: &DesignTimeLibrary,
    config: &SimulationConfig,
    platform: &Platform,
    (task, scenario, graph): (TaskId, ScenarioId, &SubtaskGraph),
    precomputed: &BTreeMap<(TaskId, ScenarioId), ScenarioSearchArtifacts>,
    dictionary: &[ConfigId],
    build_scratch: &mut drhw_prefetch::Scratch,
) -> Result<ScenarioArtifacts, SimError> {
    let schedule = build_schedule(library, config, platform, task, scenario, graph)?;
    let restored = precomputed
        .get(&(task, scenario))
        .filter(|artifacts| artifacts.fits(graph));
    let (design_time, hybrid) = match restored {
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

/// Builds the initial schedule of one scenario according to the configured
/// point-selection strategy.
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
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<IterationPlan>();
    }

    #[test]
    fn a_plan_outlives_the_inputs_it_was_built_from() {
        let plan = {
            let set = two_task_set();
            let platform = Platform::virtex_like(6).unwrap();
            IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap()
        };
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let fresh = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        assert_eq!(
            plan.run(&PolicyKind::ALL).unwrap(),
            fresh.run(&PolicyKind::ALL).unwrap()
        );
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

        // In a pass over several policies the error ends only the hybrid
        // heuristic's chunk; the others score as they do alone.
        let chunk = index / plan.config().chunk_size;
        let policies = [
            PolicyKind::RunTime,
            PolicyKind::Hybrid,
            PolicyKind::NoPrefetch,
        ];
        let results: Vec<_> = plan
            .evaluate_chunk_policies_with(&policies, chunk, &mut scratch)
            .collect();
        assert_eq!(results[1], Err(err));
        for position in [0, 2] {
            assert_eq!(
                results[position],
                plan.evaluate_chunk_with(policies[position], chunk, &mut scratch)
            );
        }
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
            let tasks = plan.task_set().tasks();
            for (task, slots) in tasks.iter().zip(&plan.shared.scenario_slots) {
                for &(scenario, slot) in slots {
                    let graph = task.scenario(scenario).unwrap().graph();
                    let memo = &scratch.memo[slot];
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
    }

    #[test]
    fn the_memo_pool_holds_one_set_per_scratch_bound_at_once() {
        let set = two_task_set();
        let platform = Platform::virtex_like(6).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        let pool = &plan.shared.memos;
        assert_eq!(pool.idle_sets(), 0, "a new plan starts with a cold pool");

        let mut scratch = plan.make_scratch();
        plan.run(&PolicyKind::ALL).unwrap();
        assert_eq!(pool.idle_sets(), 1, "the run's scratch handed its set back");
        plan.evaluate_chunk_with(PolicyKind::Hybrid, 0, &mut scratch)
            .unwrap();
        let warmed = scratch.memo.as_ptr();
        drop(scratch);
        assert_eq!(pool.idle_sets(), 2, "two scratches were bound at once");

        // The sets go back and come out again in stack order; a warm scratch
        // builds no tables.
        let (a, b) = (plan.make_scratch(), plan.make_scratch());
        assert_eq!(a.memo.as_ptr(), warmed);
        assert_ne!(b.memo.as_ptr(), warmed);
        assert_eq!(pool.idle_sets(), 0);
        drop((a, b));
        assert_eq!(pool.idle_sets(), 2);

        // A plan stamped out by with_config draws from the same pool.
        let derived = plan
            .with_config(SimulationConfig::quick().with_seed(99))
            .unwrap();
        let scratch = derived.make_scratch();
        assert_eq!(pool.idle_sets(), 1);
        drop(scratch);
        assert_eq!(pool.idle_sets(), 2);
    }

    #[test]
    fn a_scratch_crossing_plans_returns_each_set_to_its_own_plan() {
        let set = two_task_set();
        let config = SimulationConfig::quick().with_chunk_size(5);
        let [a, b, fresh_b] = [4, 6, 6].map(|tiles| {
            let platform = Platform::virtex_like(tiles).unwrap();
            IterationPlan::new(&set, &platform, config.clone()).unwrap()
        });
        let mut scratch = a.make_scratch();
        a.run(&PolicyKind::ALL).unwrap();
        a.evaluate_chunk_with(PolicyKind::Hybrid, 0, &mut scratch)
            .unwrap();
        let a_set = scratch.memo.as_ptr();
        for chunk in 0..b.chunk_count() {
            assert_eq!(
                b.evaluate_chunk_policies_with(&PolicyKind::ALL, chunk, &mut scratch)
                    .collect::<Vec<_>>(),
                fresh_b
                    .evaluate_chunk_policies_with(
                        &PolicyKind::ALL,
                        chunk,
                        &mut fresh_b.make_scratch()
                    )
                    .collect::<Vec<_>>(),
                "chunk {chunk}"
            );
        }
        assert_ne!(scratch.memo.as_ptr(), a_set, "B never reads A's set");
        assert_eq!(a.shared.memos.idle_sets(), 2, "A got its set back");
        assert_eq!(b.shared.memos.idle_sets(), 0, "B's set is out");
        // Coming back, the scratch takes one of A's sets and returns B's.
        a.evaluate_chunk_with(PolicyKind::RunTime, 0, &mut scratch)
            .unwrap();
        assert_eq!(a.shared.memos.idle_sets(), 1);
        assert_eq!(b.shared.memos.idle_sets(), 1);
        drop(scratch);
        assert_eq!(a.shared.memos.idle_sets(), 2);
    }

    /// A quick configuration with `workload`'s own inclusion probability
    /// and scenario policy.
    fn workload_config(workload: &dyn drhw_workloads::Workload) -> SimulationConfig {
        let mut config = SimulationConfig::quick();
        config.task_inclusion_probability = workload.task_inclusion_probability();
        if let Some(combos) = workload.correlated_scenarios() {
            config = config.with_scenario_policy(ScenarioPolicy::Correlated(combos));
        }
        config
    }

    #[test]
    fn a_plan_carried_to_another_tile_count_matches_a_fresh_build() {
        use drhw_workloads::{MultimediaWorkload, PocketGlWorkload, Workload};
        for workload in [&MultimediaWorkload as &dyn Workload, &PocketGlWorkload] {
            let set = workload.task_set();
            let sweep = workload.tile_sweep();
            let lowest = Platform::virtex_like(*sweep.start()).unwrap();
            for seed in [3, 2005] {
                let config = workload_config(workload)
                    .with_seed(seed)
                    .with_iterations(40)
                    .with_chunk_size(7);
                let donor = IterationPlan::new(&set, &lowest, config.clone()).unwrap();
                for tiles in sweep.clone() {
                    let label = format!("{} on {tiles} tiles, seed {seed}", workload.name());
                    let platform = Platform::virtex_like(tiles).unwrap();
                    let derived = donor.with_platform(&platform).expect(&label);
                    assert!(Arc::ptr_eq(&donor.shared, &derived.shared), "{label}");
                    assert_eq!(derived.platform(), &platform, "{label}");
                    let fresh = IterationPlan::new(&set, &platform, config.clone()).unwrap();
                    assert_eq!(derived.library(), fresh.library(), "{label}");
                    assert_eq!(
                        derived.search_artifacts(),
                        fresh.search_artifacts(),
                        "{label}"
                    );
                    let (mut scratch, mut fresh_scratch) =
                        (derived.make_scratch(), fresh.make_scratch());
                    for chunk in 0..fresh.chunk_count() {
                        assert_eq!(
                            derived
                                .evaluate_chunk_policies_with(&PolicyKind::ALL, chunk, &mut scratch)
                                .collect::<Vec<_>>(),
                            fresh
                                .evaluate_chunk_policies_with(
                                    &PolicyKind::ALL,
                                    chunk,
                                    &mut fresh_scratch
                                )
                                .collect::<Vec<_>>(),
                            "{label}, chunk {chunk}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn with_platform_refuses_a_platform_the_design_may_not_hold_on() {
        use drhw_workloads::{MultimediaWorkload, PocketGlWorkload, Workload};
        let set = MultimediaWorkload.task_set();
        let config = workload_config(&MultimediaWorkload);
        let eight = Platform::virtex_like(8).unwrap();
        let twelve = Platform::virtex_like(12).unwrap();
        let plan = IterationPlan::new(&set, &eight, config.clone()).unwrap();
        // Multimedia's widest graph has 8 DRHW subtasks.
        assert!(plan.with_platform(&eight).is_some());
        assert!(plan.with_platform(&twelve).is_some());
        for refused in [
            Platform::virtex_like(4).unwrap(),
            Platform::virtex_like(7).unwrap(),
            Platform::virtex_like(SlotMask::<1>::CAPACITY + 1).unwrap(),
            Platform::new(12, Time::from_millis(5)).unwrap(),
            twelve.clone().with_isps(1),
            twelve.clone().with_reconfig_energy_mj(3.0),
        ] {
            assert!(plan.with_platform(&refused).is_none(), "{refused:?}");
        }
        // A donor built below the width holds schedules picked for fewer
        // tiles, so it gives its design to no platform.
        let narrow = IterationPlan::new(&set, &Platform::virtex_like(4).unwrap(), config).unwrap();
        assert!(narrow.with_platform(&twelve).is_none());
        assert!(narrow.with_platform(&eight).is_none());

        // Pocket GL's widest graph has 2 DRHW subtasks.
        let set = PocketGlWorkload.task_set();
        let five = Platform::virtex_like(5).unwrap();
        let plan = IterationPlan::new(&set, &five, workload_config(&PocketGlWorkload)).unwrap();
        let [one, two] = [1, 2].map(|tiles| Platform::virtex_like(tiles).unwrap());
        assert!(plan.with_platform(&two).is_some());
        assert!(plan.with_platform(&one).is_none());
    }

    #[test]
    fn a_scratch_follows_one_design_across_tile_counts() {
        use drhw_workloads::{MultimediaWorkload, Workload};
        let set = MultimediaWorkload.task_set();
        let config = workload_config(&MultimediaWorkload).with_chunk_size(9);
        let donor =
            IterationPlan::new(&set, &Platform::virtex_like(12).unwrap(), config.clone()).unwrap();
        let mut scratch = donor.make_scratch();
        let memo = scratch.memo.as_ptr();
        for tiles in [12, 8, 16, 9] {
            let platform = Platform::virtex_like(tiles).unwrap();
            let plan = donor.with_platform(&platform).unwrap();
            let fresh = IterationPlan::new(&set, &platform, config.clone()).unwrap();
            for chunk in 0..fresh.chunk_count() {
                assert_eq!(
                    plan.evaluate_chunk_policies_with(&PolicyKind::ALL, chunk, &mut scratch)
                        .collect::<Vec<_>>(),
                    fresh
                        .evaluate_chunk_policies_with(
                            &PolicyKind::ALL,
                            chunk,
                            &mut fresh.make_scratch()
                        )
                        .collect::<Vec<_>>(),
                    "{tiles} tiles, chunk {chunk}"
                );
            }
            assert_eq!(scratch.memo.as_ptr(), memo, "{tiles} tiles: same memo set");
        }
        assert_eq!(donor.shared.memos.idle_sets(), 0);
        drop(scratch);
        assert_eq!(donor.shared.memos.idle_sets(), 1, "the set went back");
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
