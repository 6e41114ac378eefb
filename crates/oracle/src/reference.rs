//! The straight-line reference simulator.
//!
//! This module is the trusted half of the differential oracle: an
//! **independent, event-driven re-implementation** of the DATE 2005 platform
//! semantics — execution timing, the single serialised reconfiguration port,
//! configuration residency, replacement, the five prefetch policies and the
//! TCM design-time schedule selection. It deliberately shares **only
//! `drhw-model` types** with the fast path (`drhw-sim`, `drhw-prefetch`,
//! `drhw-tcm`): no `IterationPlan`, no precomputed artifacts, no chunked
//! worker pool. Every task activation recomputes everything from first
//! principles, one iteration after another, in plain program order — except
//! the design-time optimum and the hybrid's critical set, which one
//! simulator keeps per (task, scenario) once searched.
//!
//! The price is speed — the reference recomputes per activation what the
//! engine caches per plan — and the payoff is arbitration power: when the
//! two sides disagree on any `(policy, workload, tiles, seed)` tuple, the
//! straight-line code is short enough to audit by hand.
//!
//! ## Event model
//!
//! One iteration simulates a sequence of task activations. For each
//! activation the reference:
//!
//! 1. synthesises the initial schedule the TCM layer would select
//!    (fully-parallel point, fastest fitting Pareto point, or the
//!    energy-aware selection — [`PointSelectionRule`]);
//! 2. maps abstract tile slots onto physical tiles with the configured
//!    replacement rule, protecting configurations upcoming activations need;
//! 3. derives the resident set (configurations left by earlier activations)
//!    and the set of loads the activation still needs;
//! 4. replays the platform timing rules: a subtask starts when its
//!    predecessors and the previous subtask on its PE have finished **and**
//!    its configuration is resident; a tile may only be reconfigured once its
//!    previous occupant has finished; the port performs one load at a time,
//!    choosing the next one by the active policy's rule;
//! 5. commits the activation's effect on the tiles and on the inter-task
//!    port-idle window.
//!
//! Tile state persists across the iterations of one *chunk*
//! ([`OracleConfig::chunk_size`]) and resets at chunk boundaries, mirroring
//! the documented semantics of the batched engine, so the two sides simulate
//! the same physical story.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use drhw_model::{
    ConfigId, GraphAnalysis, InitialSchedule, IspId, PeAssignment, PeClass, Platform, ScenarioId,
    SubtaskGraph, SubtaskId, Task, TaskId, TaskSet, TileSlot, Time,
};

/// Errors raised by the reference simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleError(String);

impl OracleError {
    fn new(message: impl Into<String>) -> Self {
        OracleError(message.into())
    }
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "oracle: {}", self.0)
    }
}

impl std::error::Error for OracleError {}

// ---------------------------------------------------------------------------
// Deterministic randomness (independent SplitMix64 implementation).
// ---------------------------------------------------------------------------

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 output step (bijective avalanche mix).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's pseudo-random stream: SplitMix64 seeded directly with the
/// per-iteration seed. Re-implemented here so the oracle depends on nobody
/// else's generator.
struct Stream {
    state: u64,
}

impl Stream {
    fn seeded(seed: u64) -> Self {
        Stream { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// Uniform in `[0, 1)` from 53 mantissa bits.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn bernoulli(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Uniform in `start..end` (half-open).
    fn range(&mut self, start: usize, end: usize) -> usize {
        let span = (end - start) as u64;
        start + (self.next_u64() % span) as usize
    }

    /// Uniform in `0..=max` (inclusive).
    fn range_inclusive_zero(&mut self, max: usize) -> usize {
        (self.next_u64() % (max as u64 + 1)) as usize
    }

    /// Fisher–Yates shuffle, identical to the workspace's slice shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_inclusive_zero(i);
            items.swap(i, j);
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// The five prefetch policies, named independently of the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReferencePolicy {
    /// Configurations are loaded on demand, first-come first-served.
    NoPrefetch,
    /// The optimal load order fixed at design time; no reuse.
    DesignTimeOnly,
    /// The run-time list-scheduling heuristic plus reuse/replacement.
    RunTime,
    /// The run-time heuristic plus the inter-task window optimisation.
    RunTimeInterTask,
    /// The hybrid design-time/run-time heuristic (with the window).
    Hybrid,
}

impl ReferencePolicy {
    /// Every policy, in the order the paper introduces them.
    pub const ALL: [ReferencePolicy; 5] = [
        ReferencePolicy::NoPrefetch,
        ReferencePolicy::DesignTimeOnly,
        ReferencePolicy::RunTime,
        ReferencePolicy::RunTimeInterTask,
        ReferencePolicy::Hybrid,
    ];

    fn exploits_reuse(self) -> bool {
        matches!(
            self,
            ReferencePolicy::RunTime | ReferencePolicy::RunTimeInterTask | ReferencePolicy::Hybrid
        )
    }
}

impl std::fmt::Display for ReferencePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ReferencePolicy::NoPrefetch => "no-prefetch",
            ReferencePolicy::DesignTimeOnly => "design-time-prefetch",
            ReferencePolicy::RunTime => "run-time",
            ReferencePolicy::RunTimeInterTask => "run-time+inter-task",
            ReferencePolicy::Hybrid => "hybrid",
        };
        f.write_str(name)
    }
}

/// How physical tiles are chosen for the abstract slots of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementRule {
    /// Match slots to tiles already holding their first configuration, then
    /// evict unwanted, unprotected, least-recently-used tiles.
    #[default]
    ReuseAware,
    /// Always evict the least-recently-used tiles.
    LeastRecentlyUsed,
    /// Slot *i* on tile *i*.
    Direct,
}

/// How the initial schedule of an activation is selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointSelectionRule {
    /// Fully parallel when it fits, else the fastest fitting Pareto point.
    #[default]
    FullyParallel,
    /// Always the fastest Pareto point that fits.
    Fastest,
    /// The most energy-efficient point meeting the deadline (TCM behaviour).
    EnergyAware,
}

/// How scenarios are chosen per activation.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ScenarioRule {
    /// Independent weighted selection per task.
    #[default]
    Independent,
    /// One combination drawn per iteration; tasks missing from it run their
    /// first scenario.
    Correlated(Vec<BTreeMap<TaskId, ScenarioId>>),
}

/// Parameters of one reference simulation (mirrors the semantic knobs of the
/// engine's configuration, without sharing its type).
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// Number of iterations to simulate.
    pub iterations: usize,
    /// Master seed; iteration `i` derives its own stream from it.
    pub seed: u64,
    /// Probability that each task is activated in an iteration.
    pub task_inclusion_probability: f64,
    /// Replacement rule for slot-to-tile mapping.
    pub replacement: ReplacementRule,
    /// Initial-schedule selection rule.
    pub point_selection: PointSelectionRule,
    /// Scenario selection rule.
    pub scenario_rule: ScenarioRule,
    /// Iterations per chunk: tile state persists within a chunk and resets at
    /// chunk boundaries.
    pub chunk_size: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            iterations: 1000,
            seed: 2005,
            task_inclusion_probability: 0.75,
            replacement: ReplacementRule::ReuseAware,
            point_selection: PointSelectionRule::FullyParallel,
            scenario_rule: ScenarioRule::Independent,
            chunk_size: 32,
        }
    }
}

impl OracleConfig {
    fn validate(&self) -> Result<(), OracleError> {
        if self.iterations == 0 {
            return Err(OracleError::new("at least one iteration is required"));
        }
        if !(0.0..=1.0).contains(&self.task_inclusion_probability)
            || !self.task_inclusion_probability.is_finite()
        {
            return Err(OracleError::new("inclusion probability outside [0, 1]"));
        }
        if self.chunk_size == 0 {
            return Err(OracleError::new("chunk size must be at least 1"));
        }
        if matches!(&self.scenario_rule, ScenarioRule::Correlated(c) if c.is_empty()) {
            return Err(OracleError::new("correlated rule needs a combination"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Outcomes.
// ---------------------------------------------------------------------------

/// What one simulated iteration contributed, field-compatible with the
/// engine's per-iteration outcome so the differential harness can compare
/// them member by member.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReferenceOutcome {
    /// Task activations simulated this iteration.
    pub activations: usize,
    /// Total ideal (zero-latency) execution time.
    pub ideal: Time,
    /// Reconfiguration penalty left exposed.
    pub penalty: Time,
    /// Configuration loads performed.
    pub loads_performed: usize,
    /// Stored loads cancelled thanks to reuse (hybrid only).
    pub loads_cancelled: usize,
    /// DRHW subtask executions simulated.
    pub drhw_subtasks_executed: usize,
    /// Subtask executions that reused a resident configuration.
    pub reused_subtasks: usize,
    /// Reconfiguration energy in millijoule.
    pub reconfiguration_energy_mj: f64,
}

/// Aggregate of a whole reference run (sum of the iteration outcomes, in
/// iteration order so the floating-point energy total is reproducible).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReferenceReport {
    /// Task activations simulated.
    pub activations: usize,
    /// Total ideal execution time.
    pub ideal_total: Time,
    /// Total reconfiguration penalty.
    pub penalty_total: Time,
    /// Configuration loads performed.
    pub loads_performed: usize,
    /// Stored loads cancelled.
    pub loads_cancelled: usize,
    /// DRHW subtask executions simulated.
    pub drhw_subtasks_executed: usize,
    /// Executions that reused a resident configuration.
    pub reused_subtasks: usize,
    /// Total reconfiguration energy in millijoule.
    pub reconfiguration_energy_mj: f64,
}

impl ReferenceReport {
    /// Sums iteration outcomes in order.
    ///
    /// Integer fields are exact under any grouping; the floating-point
    /// energy total of this straight fold can differ in the last ULP from a
    /// chunk-folded engine report when per-iteration energies are not
    /// exactly representable — use
    /// [`from_outcomes_chunked`](Self::from_outcomes_chunked) when comparing
    /// against the batched engine.
    pub fn from_outcomes(outcomes: &[ReferenceOutcome]) -> Self {
        let mut report = ReferenceReport::default();
        for outcome in outcomes {
            report.absorb(outcome);
        }
        report
    }

    /// Sums iteration outcomes the way the batched engine does: one partial
    /// sum per chunk of `chunk_size` consecutive iterations, partials merged
    /// in chunk order. Floating-point addition is not associative, so this
    /// grouping — not a straight left fold — is what reproduces the engine's
    /// energy total bit for bit for arbitrary energy values.
    pub fn from_outcomes_chunked(outcomes: &[ReferenceOutcome], chunk_size: usize) -> Self {
        let mut report = ReferenceReport::default();
        for chunk in outcomes.chunks(chunk_size.max(1)) {
            let partial = ReferenceReport::from_outcomes(chunk);
            report.activations += partial.activations;
            report.ideal_total += partial.ideal_total;
            report.penalty_total += partial.penalty_total;
            report.loads_performed += partial.loads_performed;
            report.loads_cancelled += partial.loads_cancelled;
            report.drhw_subtasks_executed += partial.drhw_subtasks_executed;
            report.reused_subtasks += partial.reused_subtasks;
            report.reconfiguration_energy_mj += partial.reconfiguration_energy_mj;
        }
        report
    }

    fn absorb(&mut self, outcome: &ReferenceOutcome) {
        self.activations += outcome.activations;
        self.ideal_total += outcome.ideal;
        self.penalty_total += outcome.penalty;
        self.loads_performed += outcome.loads_performed;
        self.loads_cancelled += outcome.loads_cancelled;
        self.drhw_subtasks_executed += outcome.drhw_subtasks_executed;
        self.reused_subtasks += outcome.reused_subtasks;
        self.reconfiguration_energy_mj += outcome.reconfiguration_energy_mj;
    }
}

// ---------------------------------------------------------------------------
// Tile state.
// ---------------------------------------------------------------------------

/// What every physical tile holds, plus LRU timestamps, at any tile count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tiles {
    /// The configuration on each tile, if any.
    pub configs: Vec<Option<ConfigId>>,
    /// When each tile last received a configuration.
    pub last_used: Vec<Time>,
}

impl Tiles {
    fn cold(count: usize) -> Self {
        Tiles {
            configs: vec![None; count],
            last_used: vec![Time::ZERO; count],
        }
    }

    fn record_load(&mut self, tile: usize, config: ConfigId, now: Time) {
        self.configs[tile] = Some(config);
        self.last_used[tile] = self.last_used[tile].max(now);
    }
}

/// Dense slot → physical-tile mapping.
pub type Mapping = Vec<usize>;

/// The configuration each slot wants to find already loaded: the one of its
/// first DRHW subtask.
fn desired_configs(graph: &SubtaskGraph, schedule: &InitialSchedule) -> Vec<Option<ConfigId>> {
    (0..schedule.slot_count())
        .map(|s| {
            schedule
                .first_on_slot(TileSlot::new(s))
                .and_then(|id| graph.required_config(id))
        })
        .collect()
}

/// Maps every slot of the schedule onto a physical tile under `rule`, with
/// `protected` evicted last by the reuse-aware rule; errs when the schedule
/// needs more slots than there are tiles.
pub fn assign_tiles(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    tiles: &Tiles,
    rule: ReplacementRule,
    protected: &BTreeSet<ConfigId>,
) -> Result<Mapping, OracleError> {
    let slots = schedule.slot_count();
    if slots > tiles.configs.len() {
        return Err(OracleError::new(format!(
            "schedule needs {slots} slots but the platform has {} tiles",
            tiles.configs.len()
        )));
    }
    Ok(match rule {
        ReplacementRule::Direct => (0..slots).collect(),
        ReplacementRule::LeastRecentlyUsed => {
            let mut order: Vec<usize> = (0..tiles.configs.len()).collect();
            order.sort_by_key(|&t| (tiles.last_used[t], t));
            order.truncate(slots);
            order
        }
        ReplacementRule::ReuseAware => {
            let desired = desired_configs(graph, schedule);
            let mut assigned: Vec<Option<usize>> = vec![None; slots];
            let mut taken = vec![false; tiles.configs.len()];
            // Pass 1: slots whose first configuration is already resident.
            for (slot, wanted) in desired.iter().enumerate() {
                let Some(config) = wanted else { continue };
                if let Some(tile) = (0..tiles.configs.len())
                    .find(|&t| tiles.configs[t] == Some(*config) && !taken[t])
                {
                    assigned[slot] = Some(tile);
                    taken[tile] = true;
                }
            }
            // Pass 2: evict tiles nobody wants — neither this task nor the
            // protected configurations of upcoming tasks — oldest first.
            let wanted: Vec<ConfigId> = desired.iter().flatten().copied().collect();
            let mut free: Vec<usize> = (0..tiles.configs.len()).filter(|&t| !taken[t]).collect();
            free.sort_by_key(|&t| {
                let holds_wanted = tiles.configs[t]
                    .map(|c| wanted.contains(&c))
                    .unwrap_or(false);
                let holds_protected = tiles.configs[t]
                    .map(|c| protected.contains(&c))
                    .unwrap_or(false);
                (holds_wanted, holds_protected, tiles.last_used[t], t)
            });
            let mut free = free.into_iter();
            for slot_tile in assigned.iter_mut() {
                if slot_tile.is_none() {
                    *slot_tile = free.next();
                }
            }
            assigned
                .into_iter()
                .map(|t| t.expect("slot count checked against tile count"))
                .collect()
        }
    })
}

/// Which subtasks of the schedule find their configuration already resident
/// on the tile their slot is mapped to (only the first occupant of a slot can
/// profit from what a previous task left there).
pub fn resident_subtasks(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    mapping: &Mapping,
    tiles: &Tiles,
) -> BTreeSet<SubtaskId> {
    let mut resident = BTreeSet::new();
    for slot in 0..schedule.slot_count() {
        let Some(first) = schedule.first_on_slot(TileSlot::new(slot)) else {
            continue;
        };
        let Some(required) = graph.required_config(first) else {
            continue;
        };
        if slot < mapping.len() && tiles.configs[mapping[slot]] == Some(required) {
            resident.insert(first);
        }
    }
    resident
}

/// Commits an executed activation: each slot's tile ends up holding the
/// configuration of the last DRHW subtask executed on it, stamped `now`.
pub fn commit_contents(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    mapping: &Mapping,
    tiles: &mut Tiles,
    now: Time,
) {
    for (slot, &tile) in mapping.iter().enumerate() {
        let on_slot = schedule.subtasks_on(PeAssignment::Tile(TileSlot::new(slot)));
        let last_config = on_slot
            .iter()
            .rev()
            .find_map(|&id| graph.required_config(id));
        if let Some(config) = last_config {
            tiles.record_load(tile, config, now);
        }
    }
}

// ---------------------------------------------------------------------------
// The prefetch timing problem.
// ---------------------------------------------------------------------------

/// One timing problem: a scheduled graph plus which subtasks still need their
/// configuration loaded.
struct TimingProblem<'a> {
    graph: &'a SubtaskGraph,
    schedule: &'a InitialSchedule,
    latency: Time,
    weights: Vec<Time>,
    topo: Vec<SubtaskId>,
    needs_load: Vec<bool>,
    ideal_makespan: Time,
    earliest_exec_start: Time,
    earliest_port_start: Time,
}

impl<'a> TimingProblem<'a> {
    fn new(
        graph: &'a SubtaskGraph,
        schedule: &'a InitialSchedule,
        platform: &Platform,
        resident: &BTreeSet<SubtaskId>,
    ) -> Result<Self, OracleError> {
        if schedule.slot_count() > platform.tile_count() {
            return Err(OracleError::new(format!(
                "schedule needs {} slots but the platform has {} tiles",
                schedule.slot_count(),
                platform.tile_count()
            )));
        }
        let analysis = GraphAnalysis::new(graph)
            .map_err(|e| OracleError::new(format!("invalid graph: {e}")))?;
        let weights = graph.ids().map(|id| analysis.weight(id)).collect();
        let topo = schedule
            .combined_topological_order(graph)
            .map_err(|e| OracleError::new(format!("inconsistent schedule: {e}")))?;
        let ideal_makespan = schedule
            .ideal_timing(graph)
            .map_err(|e| OracleError::new(format!("untimeable schedule: {e}")))?
            .makespan();
        let needs_load = compute_needs_load(graph, schedule, resident);
        Ok(TimingProblem {
            graph,
            schedule,
            latency: platform.reconfig_latency(),
            weights,
            topo,
            needs_load,
            ideal_makespan,
            earliest_exec_start: Time::ZERO,
            earliest_port_start: Time::ZERO,
        })
    }

    fn with_offsets(mut self, exec: Time, port: Time) -> Self {
        self.earliest_exec_start = exec;
        self.earliest_port_start = port;
        self
    }

    fn weight(&self, id: SubtaskId) -> Time {
        self.weights[id.index()]
    }

    /// Loads in subtask-id order.
    fn loads(&self) -> Vec<SubtaskId> {
        self.graph
            .ids()
            .filter(|id| self.needs_load[id.index()])
            .collect()
    }

    /// Loads ordered by decreasing criticality weight (ties by id).
    fn loads_by_weight_desc(&self) -> Vec<SubtaskId> {
        let mut loads = self.loads();
        loads.sort_by(|a, b| {
            self.weight(*b)
                .cmp(&self.weight(*a))
                .then(a.index().cmp(&b.index()))
        });
        loads
    }

    /// A copy where only `subset` of the loads still costs anything (the
    /// optimistic relaxation used by the branch & bound lower bound).
    fn restricted_to(&self, subset: &BTreeSet<SubtaskId>) -> TimingProblem<'a> {
        let mut needs_load = self.needs_load.clone();
        for (index, flag) in needs_load.iter_mut().enumerate() {
            if *flag && !subset.contains(&SubtaskId::new(index)) {
                *flag = false;
            }
        }
        TimingProblem {
            graph: self.graph,
            schedule: self.schedule,
            latency: self.latency,
            weights: self.weights.clone(),
            topo: self.topo.clone(),
            needs_load,
            ideal_makespan: self.ideal_makespan,
            earliest_exec_start: self.earliest_exec_start,
            earliest_port_start: self.earliest_port_start,
        }
    }
}

/// Which subtasks need a configuration load: everything on DRHW except
/// intra-task reuse (same configuration as the previous occupant of the
/// slot) and externally resident configurations that are still intact when
/// the subtask runs.
fn compute_needs_load(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    resident: &BTreeSet<SubtaskId>,
) -> Vec<bool> {
    let mut needs = vec![false; graph.len()];
    for slot in 0..schedule.slot_count() {
        let mut current: Option<ConfigId> = None;
        let on_slot = schedule.subtasks_on(PeAssignment::Tile(TileSlot::new(slot)));
        for (position, &id) in on_slot.iter().enumerate() {
            let Some(required) = graph.required_config(id) else {
                continue;
            };
            let externally_resident = position == 0 && resident.contains(&id);
            let later_resident = position > 0 && resident.contains(&id) && current.is_none();
            if Some(required) == current || externally_resident || later_resident {
                current = Some(required);
                continue;
            }
            needs[id.index()] = true;
            current = Some(required);
        }
    }
    needs
}

// ---------------------------------------------------------------------------
// The timing engine.
// ---------------------------------------------------------------------------

/// How the port chooses its next load.
enum PortRule<'o> {
    FixedOrder(&'o [SubtaskId]),
    ListByWeight,
    OnDemand,
}

/// The result of timing one activation under one port rule.
#[derive(Debug, Clone)]
pub struct Timing {
    /// The loads in the order the port performed them.
    pub load_order: Vec<SubtaskId>,
    /// Stall directly attributable to waiting for the subtask's own load.
    load_delays: Vec<Time>,
    exec_makespan: Time,
    port_busy_until: Time,
    /// How much later the executions finish than the ideal makespan.
    pub penalty: Time,
}

impl Timing {
    /// How long the port idles before the activation ends.
    pub fn trailing_port_idle(&self) -> Time {
        self.exec_makespan.saturating_sub(self.port_busy_until)
    }

    fn delayed_subtasks(&self) -> Vec<SubtaskId> {
        self.load_delays
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_zero())
            .map(|(i, _)| SubtaskId::new(i))
            .collect()
    }
}

/// Replays the platform timing rules for one activation. Progress alternates
/// between scheduling every execution whose inputs are settled and letting
/// the port start (at most) one more load; the alternation reaches a fixed
/// point exactly when every execution is timed and every load performed.
fn run_timing(problem: &TimingProblem<'_>, rule: PortRule<'_>) -> Result<Timing, OracleError> {
    let graph = problem.graph;
    let n = graph.len();
    let mut exec_start: Vec<Option<Time>> = vec![None; n];
    let mut exec_finish: Vec<Option<Time>> = vec![None; n];
    let mut ready_without_load: Vec<Time> = vec![Time::ZERO; n];
    let mut loaded_at: Vec<Option<Time>> = vec![None; n];
    let mut pending: Vec<SubtaskId> = problem.loads();
    let mut performed: Vec<SubtaskId> = Vec::with_capacity(pending.len());
    let mut port_free = problem.earliest_port_start;
    let mut port_busy_until = Time::ZERO;
    let mut any_load = false;
    let mut fixed_cursor = 0usize;
    let mut remaining_execs = n;

    // Earliest instant a subtask could start, ignoring its own load; `None`
    // while a dependency is untimed.
    let exec_ready = |exec_finish: &[Option<Time>], id: SubtaskId| -> Option<Time> {
        let mut ready = problem.earliest_exec_start;
        for &p in graph.predecessors(id) {
            ready = ready.max(exec_finish[p.index()]?);
        }
        if let Some(prev) = problem.schedule.predecessor_on_pe(id) {
            ready = ready.max(exec_finish[prev.index()]?);
        }
        Some(ready)
    };
    // Earliest instant the tile of `id` accepts a load (previous occupant
    // done); `None` while that occupant is untimed.
    let tile_available = |exec_finish: &[Option<Time>], id: SubtaskId| -> Option<Time> {
        match problem.schedule.predecessor_on_pe(id) {
            Some(prev) => exec_finish[prev.index()],
            None => Some(Time::ZERO),
        }
    };

    while remaining_execs > 0 || !pending.is_empty() {
        let mut progress = false;

        for &id in &problem.topo {
            if exec_finish[id.index()].is_some() {
                continue;
            }
            let Some(ready) = exec_ready(&exec_finish, id) else {
                continue;
            };
            if problem.needs_load[id.index()] && loaded_at[id.index()].is_none() {
                ready_without_load[id.index()] = ready;
                continue;
            }
            let start = match loaded_at[id.index()] {
                Some(resident) => ready.max(resident),
                None => ready,
            };
            ready_without_load[id.index()] = ready;
            exec_start[id.index()] = Some(start);
            exec_finish[id.index()] = Some(start + graph.subtask(id).exec_time());
            remaining_execs -= 1;
            progress = true;
        }

        if !pending.is_empty() {
            let pick: Option<(SubtaskId, Time)> = match &rule {
                PortRule::FixedOrder(order) => {
                    while fixed_cursor < order.len() && !pending.contains(&order[fixed_cursor]) {
                        fixed_cursor += 1;
                    }
                    order
                        .get(fixed_cursor)
                        .and_then(|&next| tile_available(&exec_finish, next).map(|t| (next, t)))
                }
                PortRule::ListByWeight => {
                    let known: Vec<(SubtaskId, Time)> = pending
                        .iter()
                        .filter_map(|&id| tile_available(&exec_finish, id).map(|t| (id, t)))
                        .collect();
                    known
                        .iter()
                        .map(|&(_, t)| t)
                        .min()
                        .map(|earliest| earliest.max(port_free))
                        .and_then(|horizon| {
                            known
                                .into_iter()
                                .filter(|&(_, t)| t <= horizon)
                                .max_by(|a, b| {
                                    problem
                                        .weight(a.0)
                                        .cmp(&problem.weight(b.0))
                                        .then(b.0.index().cmp(&a.0.index()))
                                })
                        })
                }
                PortRule::OnDemand => pending
                    .iter()
                    .filter_map(|&id| exec_ready(&exec_finish, id).map(|t| (id, t)))
                    .min_by(|a, b| {
                        a.1.cmp(&b.1)
                            .then_with(|| problem.weight(b.0).cmp(&problem.weight(a.0)))
                            .then(a.0.index().cmp(&b.0.index()))
                    }),
            };
            if let Some((id, available)) = pick {
                let start = port_free.max(available);
                let finish = start + problem.latency;
                loaded_at[id.index()] = Some(finish);
                port_free = finish;
                port_busy_until = if any_load {
                    port_busy_until.max(finish)
                } else {
                    finish
                };
                any_load = true;
                pending.retain(|&p| p != id);
                performed.push(id);
                progress = true;
            }
        }

        if !progress {
            return Err(OracleError::new("deadlocked load order"));
        }
    }

    let exec_makespan = exec_finish
        .iter()
        .map(|t| t.expect("all executions are timed"))
        .max()
        .unwrap_or(Time::ZERO);
    let load_delays: Vec<Time> = (0..n)
        .map(|i| {
            exec_start[i]
                .expect("all executions are timed")
                .saturating_sub(ready_without_load[i])
        })
        .collect();
    Ok(Timing {
        load_order: performed,
        load_delays,
        exec_makespan,
        port_busy_until,
        penalty: exec_makespan.saturating_sub(problem.ideal_makespan),
    })
}

// ---------------------------------------------------------------------------
// Exact branch & bound (design-time optimum) and the critical subtask set.
// ---------------------------------------------------------------------------

const EXHAUSTIVE_LIMIT: usize = 12;
const NODE_LIMIT: u64 = 2_000_000;

/// The optimal load order: list-scheduler incumbent plus depth-first search
/// with an optimistic lower bound, falling back to the incumbent beyond
/// `EXHAUSTIVE_LIMIT` loads.
fn branch_bound(problem: &TimingProblem<'_>) -> Result<Timing, OracleError> {
    let loads = problem.loads_by_weight_desc();
    let incumbent = run_timing(problem, PortRule::ListByWeight)?;
    if loads.len() > EXHAUSTIVE_LIMIT || incumbent.penalty.is_zero() {
        return Ok(incumbent);
    }
    let mut best = incumbent;
    let mut nodes = 0u64;
    let mut prefix = Vec::with_capacity(loads.len());
    explore(problem, &mut prefix, &loads, &mut best, &mut nodes)?;
    Ok(best)
}

fn explore(
    problem: &TimingProblem<'_>,
    prefix: &mut Vec<SubtaskId>,
    remaining: &[SubtaskId],
    best: &mut Timing,
    nodes: &mut u64,
) -> Result<(), OracleError> {
    if best.penalty.is_zero() || *nodes >= NODE_LIMIT {
        return Ok(());
    }
    *nodes += 1;

    if remaining.is_empty() {
        if let Ok(result) = run_timing(problem, PortRule::FixedOrder(prefix)) {
            if result.penalty < best.penalty {
                *best = result;
            }
        }
        return Ok(());
    }

    if !prefix.is_empty() {
        let subset: BTreeSet<SubtaskId> = prefix.iter().copied().collect();
        let relaxed = problem.restricted_to(&subset);
        match run_timing(&relaxed, PortRule::FixedOrder(prefix)) {
            Ok(result) if result.penalty >= best.penalty => return Ok(()),
            Ok(_) => {}
            // A deadlocking prefix can never become feasible.
            Err(_) => return Ok(()),
        }
    }

    for (index, &next) in remaining.iter().enumerate() {
        prefix.push(next);
        let mut rest = remaining.to_vec();
        rest.remove(index);
        explore(problem, prefix, &rest, best, nodes)?;
        prefix.pop();
    }
    Ok(())
}

/// The design-time artifact of the hybrid heuristic: the Critical Subtask
/// set (most critical first) plus the stored load order of the non-critical
/// subtasks and its residual penalty.
#[derive(Debug, Clone)]
struct CriticalArtifact {
    critical: Vec<SubtaskId>,
    stored_order: Vec<SubtaskId>,
}

fn critical_set(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    platform: &Platform,
) -> Result<CriticalArtifact, OracleError> {
    let mut critical: BTreeSet<SubtaskId> = BTreeSet::new();
    loop {
        let problem = TimingProblem::new(graph, schedule, platform, &critical)?;
        let result = branch_bound(&problem)?;
        if result.penalty.is_zero() {
            return Ok(assemble_critical(graph, critical, result.load_order));
        }
        let candidate = result
            .delayed_subtasks()
            .into_iter()
            .filter(|id| !critical.contains(id))
            .max_by(|a, b| {
                problem
                    .weight(*a)
                    .cmp(&problem.weight(*b))
                    .then(b.index().cmp(&a.index()))
            })
            .or_else(|| {
                result
                    .load_order
                    .iter()
                    .copied()
                    .filter(|id| !critical.contains(id))
                    .max_by(|a, b| {
                        problem
                            .weight(*a)
                            .cmp(&problem.weight(*b))
                            .then(b.index().cmp(&a.index()))
                    })
            });
        match candidate {
            Some(pick) => {
                critical.insert(pick);
            }
            // A residual penalty no reuse can remove (e.g. a slot forced to
            // hold two configurations in a row): store it as-is.
            None => return Ok(assemble_critical(graph, critical, result.load_order)),
        }
    }
}

fn assemble_critical(
    graph: &SubtaskGraph,
    critical: BTreeSet<SubtaskId>,
    stored_order: Vec<SubtaskId>,
) -> CriticalArtifact {
    let analysis = GraphAnalysis::new(graph).expect("graph validated by the timing problem");
    let mut critical: Vec<SubtaskId> = critical.into_iter().collect();
    critical.sort_by(|a, b| {
        analysis
            .weight(*b)
            .cmp(&analysis.weight(*a))
            .then(a.index().cmp(&b.index()))
    });
    CriticalArtifact {
        critical,
        stored_order,
    }
}

// ---------------------------------------------------------------------------
// TCM design-time schedule synthesis (Pareto selection).
// ---------------------------------------------------------------------------

/// Energy constants of the TCM model (mirrored values, independent code).
const ISP_ENERGY_FACTOR: f64 = 3.0;
const TILE_STATIC_MJ_PER_MS: f64 = 0.1;
const TILE_ACTIVATION_MJ: f64 = 1.0;

fn graph_execution_energy_mj(graph: &SubtaskGraph) -> f64 {
    graph
        .iter()
        .map(|(_, s)| match s.pe_class() {
            PeClass::Drhw => s.exec_energy_mj(),
            PeClass::Isp => s.exec_energy_mj() * ISP_ENERGY_FACTOR,
        })
        .sum()
}

fn schedule_energy_mj(graph: &SubtaskGraph, tiles: usize, exec_time: Time) -> f64 {
    graph_execution_energy_mj(graph)
        + TILE_STATIC_MJ_PER_MS * tiles as f64 * exec_time.as_millis_f64()
        + TILE_ACTIVATION_MJ * tiles as f64
}

struct CurvePoint {
    schedule: InitialSchedule,
    exec_time: Time,
    energy_mj: f64,
}

impl CurvePoint {
    fn tiles_used(&self) -> usize {
        self.schedule.slot_count()
    }

    fn dominates(&self, other: &CurvePoint) -> bool {
        let no_worse = self.exec_time <= other.exec_time && self.energy_mj <= other.energy_mj;
        let better = self.exec_time < other.exec_time || self.energy_mj < other.energy_mj;
        no_worse && better
    }
}

/// The weight-driven list scheduler of the TCM design-time phase: schedules
/// the graph onto exactly `slots` abstract DRHW slots plus one ISP, ignoring
/// reconfiguration latency.
fn design_time_schedule(
    graph: &SubtaskGraph,
    slots: usize,
) -> Result<InitialSchedule, OracleError> {
    let analysis =
        GraphAnalysis::new(graph).map_err(|e| OracleError::new(format!("invalid graph: {e}")))?;
    let n = graph.len();
    let mut finish: Vec<Option<Time>> = vec![None; n];
    let mut remaining_preds: Vec<usize> =
        graph.ids().map(|id| graph.predecessors(id).len()).collect();
    let mut assignment: Vec<PeAssignment> = vec![PeAssignment::Isp(IspId::new(0)); n];
    let mut pe_order: BTreeMap<PeAssignment, Vec<SubtaskId>> = BTreeMap::new();
    let mut slot_free = vec![Time::ZERO; slots.max(1)];
    let mut isp_free = Time::ZERO;
    let mut ready: Vec<SubtaskId> = graph
        .ids()
        .filter(|&id| remaining_preds[id.index()] == 0)
        .collect();
    let mut scheduled = 0usize;

    while scheduled < n {
        ready.sort_by(|a, b| {
            analysis
                .weight(*b)
                .cmp(&analysis.weight(*a))
                .then(a.index().cmp(&b.index()))
        });
        let id = ready.remove(0);
        let preds_ready = graph
            .predecessors(id)
            .iter()
            .map(|&p| finish[p.index()].expect("predecessors are scheduled first"))
            .max()
            .unwrap_or(Time::ZERO);
        let pe = match graph.subtask(id).pe_class() {
            PeClass::Drhw => {
                // Earliest start wins; equal starts prefer the busiest slot.
                let (slot, &free) = slot_free
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, &f)| (f.max(preds_ready), std::cmp::Reverse(f), *i))
                    .expect("at least one slot exists");
                slot_free[slot] = free.max(preds_ready) + graph.subtask(id).exec_time();
                PeAssignment::Tile(TileSlot::new(slot))
            }
            PeClass::Isp => {
                let start = isp_free.max(preds_ready);
                isp_free = start + graph.subtask(id).exec_time();
                PeAssignment::Isp(IspId::new(0))
            }
        };
        let start = match pe {
            PeAssignment::Tile(slot) => {
                slot_free[slot.index()].saturating_sub(graph.subtask(id).exec_time())
            }
            PeAssignment::Isp(_) => isp_free.saturating_sub(graph.subtask(id).exec_time()),
        };
        assignment[id.index()] = pe;
        pe_order.entry(pe).or_default().push(id);
        finish[id.index()] = Some(start + graph.subtask(id).exec_time());
        scheduled += 1;
        for &succ in graph.successors(id) {
            remaining_preds[succ.index()] -= 1;
            if remaining_preds[succ.index()] == 0 {
                ready.push(succ);
            }
        }
    }

    InitialSchedule::with_order(graph, assignment, pe_order)
        .map_err(|e| OracleError::new(format!("design-time schedule rejected: {e}")))
}

/// The Pareto curve of one graph: one candidate per tile allocation,
/// dominated candidates removed, sorted by increasing execution time.
fn pareto_curve(graph: &SubtaskGraph, platform: &Platform) -> Result<Vec<CurvePoint>, OracleError> {
    let drhw = graph.drhw_subtasks().len();
    let max_slots = drhw.min(platform.tile_count()).max(1);
    let mut points: Vec<CurvePoint> = Vec::new();
    for slots in 1..=max_slots {
        let schedule = design_time_schedule(graph, slots)?;
        let exec_time = schedule
            .ideal_timing(graph)
            .map_err(|e| OracleError::new(format!("untimeable schedule: {e}")))?
            .makespan();
        let energy_mj = schedule_energy_mj(graph, schedule.slot_count(), exec_time);
        let candidate = CurvePoint {
            schedule,
            exec_time,
            energy_mj,
        };
        if points.iter().any(|p| p.dominates(&candidate)) {
            continue;
        }
        points.retain(|p| !candidate.dominates(p));
        if !points
            .iter()
            .any(|p| p.exec_time == candidate.exec_time && p.energy_mj == candidate.energy_mj)
        {
            points.push(candidate);
        }
    }
    points.sort_by(|a, b| {
        a.exec_time.cmp(&b.exec_time).then(
            a.energy_mj
                .partial_cmp(&b.energy_mj)
                .expect("energy is finite"),
        )
    });
    Ok(points)
}

fn fastest_within_tiles(points: &[CurvePoint], tiles: usize) -> Option<&CurvePoint> {
    points
        .iter()
        .filter(|p| p.tiles_used() <= tiles)
        .min_by_key(|p| p.exec_time)
}

fn best_within(points: &[CurvePoint], deadline: Option<Time>, tiles: usize) -> Option<&CurvePoint> {
    points
        .iter()
        .filter(|p| p.tiles_used() <= tiles)
        .filter(|p| deadline.is_none_or(|d| p.exec_time <= d))
        .min_by(|a, b| {
            a.energy_mj
                .partial_cmp(&b.energy_mj)
                .expect("energy is finite")
        })
}

// ---------------------------------------------------------------------------
// The reference simulator.
// ---------------------------------------------------------------------------

/// A straight-line re-implementation of the dynamic multi-iteration
/// evaluation, used to arbitrate the fast engine's numbers.
///
/// # Examples
///
/// ```
/// use drhw_model::{ConfigId, Platform, Subtask, SubtaskGraph, Task, TaskId, TaskSet, Time};
/// use drhw_oracle::reference::{OracleConfig, ReferencePolicy, ReferenceSimulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut graph = SubtaskGraph::new("toy");
/// let a = graph.add_subtask(Subtask::new("a", Time::from_millis(10), ConfigId::new(0)));
/// let b = graph.add_subtask(Subtask::new("b", Time::from_millis(10), ConfigId::new(1)));
/// graph.add_dependency(a, b)?;
/// let set = TaskSet::new("toy", vec![Task::single_scenario(TaskId::new(0), "toy", graph)?])?;
/// let platform = Platform::virtex_like(4)?;
/// let config = OracleConfig { iterations: 10, ..OracleConfig::default() };
/// let oracle = ReferenceSimulator::new(&set, &platform, config)?;
/// let outcomes = oracle.simulate_policy(ReferencePolicy::Hybrid)?;
/// assert_eq!(outcomes.len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReferenceSimulator<'a> {
    task_set: &'a TaskSet,
    platform: &'a Platform,
    config: OracleConfig,
    /// The design-time optimum (penalty, loads) of each (task, scenario).
    optimum: RefCell<BTreeMap<(TaskId, ScenarioId), (Time, usize)>>,
    /// The hybrid heuristic's critical set of each (task, scenario).
    critical: RefCell<BTreeMap<(TaskId, ScenarioId), CriticalArtifact>>,
}

impl<'a> ReferenceSimulator<'a> {
    /// Creates a reference simulator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is out of range.
    pub fn new(
        task_set: &'a TaskSet,
        platform: &'a Platform,
        config: OracleConfig,
    ) -> Result<Self, OracleError> {
        config.validate()?;
        Ok(ReferenceSimulator {
            task_set,
            platform,
            config,
            optimum: RefCell::default(),
            critical: RefCell::default(),
        })
    }

    /// The configuration of this simulator.
    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    /// The seed driving iteration `index`.
    fn iteration_seed(&self, index: usize) -> u64 {
        splitmix64(
            self.config
                .seed
                .wrapping_add((index as u64).wrapping_mul(GOLDEN_GAMMA)),
        )
    }

    /// Which tasks run in iteration `index` and in which scenarios.
    pub fn activations(&self, index: usize) -> Vec<(TaskId, ScenarioId)> {
        self.pick_activations(index)
            .into_iter()
            .map(|(task, scenario)| (task.id(), scenario))
            .collect()
    }

    fn pick_activations(&self, index: usize) -> Vec<(&'a Task, ScenarioId)> {
        let mut stream = Stream::seeded(self.iteration_seed(index));
        let tasks = self.task_set.tasks();
        let mut selected: Vec<&Task> = tasks
            .iter()
            .filter(|_| stream.bernoulli(self.config.task_inclusion_probability))
            .collect();
        if selected.is_empty() {
            selected.push(&tasks[stream.range(0, tasks.len())]);
        }
        stream.shuffle(&mut selected);

        match &self.config.scenario_rule {
            ScenarioRule::Independent => selected
                .into_iter()
                .map(|task| {
                    let scenario = pick_weighted_scenario(task, &mut stream);
                    (task, scenario)
                })
                .collect(),
            ScenarioRule::Correlated(combos) => {
                let combo = &combos[stream.range(0, combos.len())];
                selected
                    .into_iter()
                    .map(|task| {
                        let scenario = combo
                            .get(&task.id())
                            .copied()
                            .unwrap_or_else(|| task.scenarios()[0].id());
                        (task, scenario)
                    })
                    .collect()
            }
        }
    }

    /// Synthesises the initial schedule the TCM layer selects for one
    /// scenario, from scratch.
    fn build_schedule(
        &self,
        task: &Task,
        graph: &SubtaskGraph,
    ) -> Result<InitialSchedule, OracleError> {
        let tiles = self.platform.tile_count();
        let fastest_fallback = || -> Result<InitialSchedule, OracleError> {
            let curve = pareto_curve(graph, self.platform)?;
            fastest_within_tiles(&curve, tiles)
                .map(|p| p.schedule.clone())
                .ok_or_else(|| {
                    OracleError::new(format!(
                        "no Pareto point of {:?} fits on {tiles} tiles",
                        graph.name()
                    ))
                })
        };
        match self.config.point_selection {
            PointSelectionRule::FullyParallel => {
                let parallel = InitialSchedule::fully_parallel(graph)
                    .map_err(|e| OracleError::new(format!("invalid graph: {e}")))?;
                if parallel.slot_count() <= tiles {
                    Ok(parallel)
                } else {
                    fastest_fallback()
                }
            }
            PointSelectionRule::Fastest => fastest_fallback(),
            PointSelectionRule::EnergyAware => {
                let curve = pareto_curve(graph, self.platform)?;
                best_within(&curve, task.deadline(), tiles)
                    .or_else(|| fastest_within_tiles(&curve, tiles))
                    .map(|p| p.schedule.clone())
                    .ok_or_else(|| {
                        OracleError::new(format!(
                            "no Pareto point of {:?} fits on {tiles} tiles",
                            graph.name()
                        ))
                    })
            }
        }
    }

    /// Simulates every iteration of one policy, straight-line, and returns
    /// the per-iteration outcomes in order.
    ///
    /// # Errors
    ///
    /// Returns the first scheduling error in iteration order.
    pub fn simulate_policy(
        &self,
        policy: ReferencePolicy,
    ) -> Result<Vec<ReferenceOutcome>, OracleError> {
        let mut outcomes = Vec::with_capacity(self.config.iterations);
        let mut tiles = Tiles::cold(self.platform.tile_count());
        let mut window = Time::ZERO;
        let mut now = Time::ZERO;
        for index in 0..self.config.iterations {
            if index % self.config.chunk_size == 0 {
                tiles = Tiles::cold(self.platform.tile_count());
                window = Time::ZERO;
                now = Time::ZERO;
            }
            outcomes.push(self.run_iteration(policy, index, &mut tiles, &mut window, &mut now)?);
        }
        Ok(outcomes)
    }

    /// Simulates one policy and sums the outcomes into an aggregate report,
    /// folding the floating-point energy total in the engine's chunk order.
    ///
    /// # Errors
    ///
    /// Returns the first scheduling error in iteration order.
    pub fn report(&self, policy: ReferencePolicy) -> Result<ReferenceReport, OracleError> {
        Ok(ReferenceReport::from_outcomes_chunked(
            &self.simulate_policy(policy)?,
            self.config.chunk_size,
        ))
    }

    fn run_iteration(
        &self,
        policy: ReferencePolicy,
        index: usize,
        tiles: &mut Tiles,
        window: &mut Time,
        now: &mut Time,
    ) -> Result<ReferenceOutcome, OracleError> {
        let activations = self.pick_activations(index);
        let mut outcome = ReferenceOutcome::default();

        for (position, &(task, scenario_id)) in activations.iter().enumerate() {
            let scenario = task.scenario(scenario_id).ok_or_else(|| {
                OracleError::new(format!(
                    "task {} has no scenario {}",
                    task.id(),
                    scenario_id
                ))
            })?;
            let graph = scenario.graph();
            let schedule = self.build_schedule(task, graph)?;
            // The design-time searches depend on the graph, schedule and
            // platform alone, and the schedule is fixed per (task,
            // scenario), so their results are kept under that key.
            let key = (task.id(), scenario_id);
            let ideal = schedule
                .ideal_timing(graph)
                .map_err(|e| OracleError::new(format!("untimeable schedule: {e}")))?
                .makespan();

            // Configurations upcoming activations will want: protected from
            // eviction by the reuse-aware replacement rule.
            let mut protected: BTreeSet<ConfigId> = BTreeSet::new();
            for &(later, later_scenario) in &activations[position + 1..] {
                let Some(later_scenario) = later.scenario(later_scenario) else {
                    continue;
                };
                let later_graph = later_scenario.graph();
                for id in later_graph.drhw_subtasks() {
                    if let Some(config) = later_graph.required_config(id) {
                        protected.insert(config);
                    }
                }
            }
            let mapping =
                assign_tiles(graph, &schedule, tiles, self.config.replacement, &protected)?;
            let resident: BTreeSet<SubtaskId> = if policy.exploits_reuse() {
                resident_subtasks(graph, &schedule, &mapping, tiles)
            } else {
                BTreeSet::new()
            };

            let (penalty, loads, cancelled) = match policy {
                ReferencePolicy::NoPrefetch => {
                    let problem =
                        TimingProblem::new(graph, &schedule, self.platform, &BTreeSet::new())?;
                    let timing = run_timing(&problem, PortRule::OnDemand)?;
                    (timing.penalty, timing.load_order.len(), 0)
                }
                ReferencePolicy::DesignTimeOnly => {
                    // The frozen design-time optimum.
                    let (penalty, loads) = memoised(&self.optimum, key, || {
                        let empty = BTreeSet::new();
                        let problem = TimingProblem::new(graph, &schedule, self.platform, &empty)?;
                        let timing = branch_bound(&problem)?;
                        Ok((timing.penalty, timing.load_order.len()))
                    })?;
                    (penalty, loads, 0)
                }
                ReferencePolicy::RunTime => {
                    let problem = TimingProblem::new(graph, &schedule, self.platform, &resident)?;
                    let timing = run_timing(&problem, PortRule::ListByWeight)?;
                    (timing.penalty, timing.load_order.len(), 0)
                }
                ReferencePolicy::RunTimeInterTask => {
                    let (timing, preloaded) =
                        inter_task_activation(graph, &schedule, self.platform, &resident, *window)?;
                    *window = timing.trailing_port_idle();
                    (timing.penalty, timing.load_order.len() + preloaded, 0)
                }
                ReferencePolicy::Hybrid => {
                    let artifact = memoised(&self.critical, key, || {
                        critical_set(graph, &schedule, self.platform)
                    })?;
                    let activation = hybrid_activation(
                        graph,
                        &schedule,
                        self.platform,
                        &artifact.critical,
                        &artifact.stored_order,
                        &resident,
                        *window,
                    )?;
                    *window = activation.timing.trailing_port_idle();
                    let loads =
                        activation.init.len() + activation.body.len() + activation.preloaded.len();
                    (activation.timing.penalty, loads, activation.cancelled)
                }
            };

            outcome.activations += 1;
            outcome.ideal += ideal;
            outcome.penalty += penalty;
            outcome.loads_performed += loads;
            outcome.loads_cancelled += cancelled;
            outcome.drhw_subtasks_executed += graph.drhw_subtasks().len();
            outcome.reused_subtasks += resident.len();
            outcome.reconfiguration_energy_mj += loads as f64 * self.platform.reconfig_energy_mj();

            *now += ideal + penalty;
            commit_contents(graph, &schedule, &mapping, tiles, *now);
        }

        Ok(outcome)
    }
}

/// The run-time policy with the §6 inter-task optimization for one
/// activation: the most critical pending loads that fit whole in the
/// port-idle `window` are preloaded, and the list rule times the rest.
/// Returns that timing and the preloaded count.
///
/// # Errors
///
/// Returns an error when the schedule does not fit the platform.
pub fn inter_task_activation(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    platform: &Platform,
    resident: &BTreeSet<SubtaskId>,
    window: Time,
) -> Result<(Timing, usize), OracleError> {
    let base = TimingProblem::new(graph, schedule, platform, resident)?;
    let by_weight = base.loads_by_weight_desc();
    let fit = whole_loads(window, platform.reconfig_latency()).min(by_weight.len());
    let mut extended = resident.clone();
    extended.extend(by_weight[..fit].iter().copied());
    let problem = TimingProblem::new(graph, schedule, platform, &extended)?;
    Ok((run_timing(&problem, PortRule::ListByWeight)?, fit))
}

/// What the hybrid run-time phase decides for one activation.
#[derive(Debug, Clone)]
pub struct HybridActivation {
    /// Critical loads of the initialization phase, most critical first.
    pub init: Vec<SubtaskId>,
    /// Critical loads hidden in the port-idle window, most critical first.
    pub preloaded: Vec<SubtaskId>,
    /// The stored order minus the cancelled loads, then the rest by id.
    pub body: Vec<SubtaskId>,
    /// Stored loads cancelled because their configuration is resident.
    pub cancelled: usize,
    /// The body, timed after the initialization phase.
    pub timing: Timing,
}

/// The hybrid run-time phase for one activation, given the design-time
/// `critical` set (most critical first) and `stored_order`: decide the
/// initialization, preloaded, body and cancelled loads, then time the body.
///
/// # Errors
///
/// Returns an error when the schedule does not fit the platform or the body
/// order deadlocks.
pub fn hybrid_activation(
    graph: &SubtaskGraph,
    schedule: &InitialSchedule,
    platform: &Platform,
    critical: &[SubtaskId],
    stored_order: &[SubtaskId],
    resident: &BTreeSet<SubtaskId>,
    window: Time,
) -> Result<HybridActivation, OracleError> {
    let latency = platform.reconfig_latency();
    let base = TimingProblem::new(graph, schedule, platform, resident)?;
    let cs: BTreeSet<SubtaskId> = critical.iter().copied().collect();
    let assumed_resident: BTreeSet<SubtaskId> = resident.union(&cs).copied().collect();
    let assumed = TimingProblem::new(graph, schedule, platform, &assumed_resident)?;

    // Critical loads the initialization phase must realise (pre-loading
    // only helps when the slot is untouched before the subtask runs).
    let mut init: Vec<SubtaskId> = critical
        .iter()
        .copied()
        .filter(|&id| base.needs_load[id.index()] && !assumed.needs_load[id.index()])
        .collect();
    let fit = whole_loads(window, latency).min(init.len());
    let preloaded: Vec<SubtaskId> = init.drain(..fit).collect();

    // Body loads: the stored order minus cancelled entries, plus any
    // critical subtask whose reuse cannot be realised.
    let body_needed: BTreeSet<SubtaskId> = assumed.loads().into_iter().collect();
    let mut body: Vec<SubtaskId> = stored_order
        .iter()
        .copied()
        .filter(|id| body_needed.contains(id))
        .collect();
    for id in &body_needed {
        if !body.contains(id) {
            body.push(*id);
        }
    }
    let cancelled = stored_order
        .iter()
        .filter(|id| !body_needed.contains(id))
        .count();

    let init_duration = latency * init.len() as u64;
    let mut body_resident = resident.clone();
    body_resident.extend(init.iter().copied());
    body_resident.extend(preloaded.iter().copied());
    let body_problem = TimingProblem::new(graph, schedule, platform, &body_resident)?
        .with_offsets(init_duration, init_duration);
    let timing = run_timing(&body_problem, PortRule::FixedOrder(&body))?;
    Ok(HybridActivation {
        init,
        preloaded,
        body,
        cancelled,
        timing,
    })
}

/// `key`'s entry in `memo`, computed by `compute` on first use.
fn memoised<T: Clone>(
    memo: &RefCell<BTreeMap<(TaskId, ScenarioId), T>>,
    key: (TaskId, ScenarioId),
    compute: impl FnOnce() -> Result<T, OracleError>,
) -> Result<T, OracleError> {
    if let Some(value) = memo.borrow().get(&key) {
        return Ok(value.clone());
    }
    let value = compute()?;
    memo.borrow_mut().insert(key, value.clone());
    Ok(value)
}

/// How many whole loads of `latency` fit in the port-idle `window`.
fn whole_loads(window: Time, latency: Time) -> usize {
    if latency.is_zero() {
        usize::MAX
    } else {
        (window.as_micros() / latency.as_micros()) as usize
    }
}

/// Picks a scenario with probability proportional to the scenario weights.
fn pick_weighted_scenario(task: &Task, stream: &mut Stream) -> ScenarioId {
    let total: f64 = task.scenarios().iter().map(|s| s.probability()).sum();
    if total <= 0.0 {
        return task.scenarios()[0].id();
    }
    let mut draw = stream.unit_f64() * total;
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
mod tests {
    use super::*;
    use drhw_model::Subtask;

    fn toy_set() -> TaskSet {
        let mut g = SubtaskGraph::new("pipe");
        let a = g.add_subtask(Subtask::new("a", Time::from_millis(9), ConfigId::new(0)));
        let b = g.add_subtask(Subtask::new("b", Time::from_millis(7), ConfigId::new(1)));
        g.add_dependency(a, b).unwrap();
        TaskSet::new(
            "toy",
            vec![Task::single_scenario(TaskId::new(0), "pipe", g).unwrap()],
        )
        .unwrap()
    }

    #[test]
    fn iteration_streams_are_deterministic() {
        let set = toy_set();
        let platform = Platform::virtex_like(4).unwrap();
        let config = OracleConfig {
            iterations: 20,
            ..OracleConfig::default()
        };
        let oracle = ReferenceSimulator::new(&set, &platform, config).unwrap();
        assert_eq!(oracle.activations(7), oracle.activations(7));
        let a = oracle.simulate_policy(ReferencePolicy::Hybrid).unwrap();
        let b = oracle.simulate_policy(ReferencePolicy::Hybrid).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn policies_are_paired_on_identical_workloads() {
        let set = toy_set();
        let platform = Platform::virtex_like(4).unwrap();
        let config = OracleConfig {
            iterations: 12,
            ..OracleConfig::default()
        };
        let oracle = ReferenceSimulator::new(&set, &platform, config).unwrap();
        let hybrid = oracle.simulate_policy(ReferencePolicy::Hybrid).unwrap();
        let none = oracle.simulate_policy(ReferencePolicy::NoPrefetch).unwrap();
        for (h, n) in hybrid.iter().zip(&none) {
            assert_eq!(h.activations, n.activations);
            assert_eq!(h.ideal, n.ideal);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let set = toy_set();
        let platform = Platform::virtex_like(4).unwrap();
        let bad = OracleConfig {
            iterations: 0,
            ..OracleConfig::default()
        };
        assert!(ReferenceSimulator::new(&set, &platform, bad).is_err());
        let bad = OracleConfig {
            chunk_size: 0,
            ..OracleConfig::default()
        };
        assert!(ReferenceSimulator::new(&set, &platform, bad).is_err());
        let bad = OracleConfig {
            task_inclusion_probability: 1.5,
            ..OracleConfig::default()
        };
        assert!(ReferenceSimulator::new(&set, &platform, bad).is_err());
        let bad = OracleConfig {
            scenario_rule: ScenarioRule::Correlated(Vec::new()),
            ..OracleConfig::default()
        };
        assert!(ReferenceSimulator::new(&set, &platform, bad).is_err());
    }
}
