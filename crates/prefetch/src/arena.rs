//! The timing engine and the allocation-free per-activation kernels.
//!
//! Every prefetch policy in this crate — on-demand loading, the run-time
//! list scheduler of ref \[7\], the branch & bound optimum and the stored
//! hybrid schedules — boils down to choosing the order in which the single
//! reconfiguration port performs the needed loads. `simulate_core` is the
//! one implementation of the platform rules that times such an order (or an
//! online choice rule):
//!
//! 1. a subtask starts when its graph predecessors and the previous subtask
//!    on its PE have finished and its configuration is resident;
//! 2. a load may only start once the previous subtask on the target tile has
//!    finished (reconfiguring destroys the configuration still in use);
//! 3. the port performs loads one at a time.
//!
//! The simulation runs it thousands of times per (graph, initial schedule,
//! platform) triple through the per-activation kernels below; the one-shot
//! API ([`PrefetchProblem`](crate::PrefetchProblem), the schedulers, both
//! branch & bound searches and the critical-set loop) runs it at a wider
//! mask and can have it record the port order. The work splits in two:
//!
//! * [`PreparedSchedule`] owns everything that is *activation-independent*,
//!   computed once per (task, scenario) pair and laid out
//!   **struct-of-arrays**: parallel flat vectors indexed by subtask id
//!   (execution times, criticality weights, required configurations, per-PE
//!   predecessors) and by slot (first subtask, desired and last
//!   configuration), plus CSR-packed adjacency (graph + PE predecessors,
//!   per-slot subtask lists) so the timing loop streams contiguous cache
//!   lines instead of chasing per-slot structures.
//! * [`Scratch`] owns every buffer the per-activation kernels write into.
//!   One scratch per worker thread; buffers are pre-sized with
//!   [`Scratch::reserve`], so a warm evaluation loop performs **zero heap
//!   allocations**.
//!
//! Residency, needs-load, timed and pending-load sets are [`SlotMask`]
//! bitmasks: membership is a bit test, set union is `OR`, and "are all
//! dependencies timed?" is a single `AND` against a precomputed
//! per-subtask dependency mask. The per-activation kernels run at the
//! one-word default — [`PreparedSchedule::new`] rejects graphs above
//! [`SlotMask::CAPACITY`] — while the one-shot façade prepares its
//! schedules at four words.
//!
//! The replacement kernel applies the same idea to tiles: [`TileContents`]
//! keeps one tile mask per configuration and its tiles grouped into
//! last-use generations, so the reuse-aware rule finds the lowest free tile
//! holding a slot's configuration with one `AND` and one trailing-zeros
//! count, and both content-aware rules pick the tiles to evict by walking
//! the generations oldest first instead of sorting the platform. These
//! kernels and the one-shot [`assign_tiles`](crate::assign_tiles) family
//! share one implementation of the tile rules, generic over that width.
//!
//! The hybrid heuristic's run-time decision is written once as well,
//! generic over the mask width: the hybrid kernel runs it at one word and
//! [`HybridPrefetch`]'s one-shot run-time phase at four.

use drhw_model::{
    ConfigId, GraphAnalysis, InitialSchedule, PeAssignment, Platform, SubtaskGraph, SubtaskId,
    TileId, TileSlot, Time,
};

use crate::critical::CriticalSetAnalysis;
use crate::error::PrefetchError;
use crate::hybrid::HybridPrefetch;
use crate::inter_task::InterTaskWindow;
use crate::mask::SlotMask;
use crate::replacement::{ReplacementPolicy, SlotTables};
use crate::reuse::TileContents;

/// Sentinel in the flat per-PE predecessor table: no predecessor.
const NO_PRED: u32 = u32::MAX;

/// One (graph, initial schedule, platform) triple prepared for repeated
/// evaluation: every activation-independent artifact is computed once here
/// and flattened into index-addressed arrays the per-activation kernels
/// read. The schedule owns everything it needs — of the graph, its tables;
/// of the platform, the reconfiguration latency — so it borrows neither.
#[derive(Debug, Clone)]
pub struct PreparedSchedule<const W: usize = 1> {
    /// The platform's reconfiguration latency, the one platform number the
    /// timing loop and the window kernels read.
    reconfig_latency: Time,
    schedule: InitialSchedule,
    analysis: GraphAnalysis,
    /// Combined (precedence + per-PE order) topological order, the traversal
    /// order of the timing loop, as flat subtask indices.
    topo: Vec<u32>,
    /// Per-subtask execution time (SoA mirror of `graph.subtask(..)`).
    exec_times: Vec<Time>,
    /// Per-subtask criticality weight (SoA mirror of `analysis.weight(..)`).
    weights: Vec<Time>,
    /// Every subtask index ordered by decreasing weight (ties: ascending
    /// index) — the criticality order the windowed kernels load in.
    /// Restricting this fixed order to any pending subset reproduces the
    /// per-call sort the classic pipeline performs.
    weight_order: Vec<u32>,
    /// Per-subtask required configuration. Like every configuration table
    /// below, it holds raw ids until [`intern_configs`](Self::intern_configs)
    /// renames it into a plan-wide dense dictionary.
    required: Vec<Option<ConfigId>>,
    /// The subtask scheduled immediately before each subtask on the same PE
    /// ([`NO_PRED`] = none).
    pred_on_pe: Vec<u32>,
    /// All timing dependencies of each subtask (graph predecessors plus the
    /// PE predecessor) as one mask: "every dependency timed" is one `AND`.
    dep_masks: Vec<SlotMask<W>>,
    /// CSR offsets into `pred_ids`, one entry per subtask plus a tail.
    pred_offsets: Vec<u32>,
    /// CSR-packed dependency lists (graph predecessors, then the PE
    /// predecessor) — the ids the ready-time `max` folds over.
    pred_ids: Vec<u32>,
    /// CSR offsets into `slot_subtasks`, one entry per slot plus a tail.
    slot_offsets: Vec<u32>,
    /// CSR-packed subtasks of each slot, in schedule order.
    slot_subtasks: Vec<u32>,
    /// Makespan of the schedule under zero reconfiguration latency.
    ideal: Time,
    /// What the tile rules read, slot by slot.
    slots: SlotTables,
    /// Number of DRHW subtasks in the graph.
    drhw_count: usize,
}

impl<const W: usize> PreparedSchedule<W> {
    /// Prepares a schedule at a mask width of `W` words.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid, has more subtasks than the
    /// mask width ([`PrefetchError::ExceedsMaskWidth`]), or the schedule
    /// needs more tile slots than the platform has tiles.
    pub(crate) fn prepare(
        graph: &SubtaskGraph,
        schedule: InitialSchedule,
        platform: &Platform,
    ) -> Result<Self, PrefetchError> {
        graph.validate()?;
        let n = graph.len();
        if !SlotMask::<W>::fits(n) {
            return Err(PrefetchError::ExceedsMaskWidth {
                subtasks: n,
                capacity: SlotMask::<W>::CAPACITY,
            });
        }
        if schedule.slot_count() > platform.tile_count() {
            return Err(PrefetchError::NotEnoughTiles {
                required: schedule.slot_count(),
                available: platform.tile_count(),
            });
        }
        let analysis = GraphAnalysis::new(graph)?;
        let ideal = schedule.ideal_timing(graph)?.makespan();
        let topo: Vec<u32> = schedule
            .combined_topological_order(graph)?
            .iter()
            .map(|id| id.index() as u32)
            .collect();

        let mut exec_times = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        let mut required = Vec::with_capacity(n);
        let mut pred_on_pe = Vec::with_capacity(n);
        let mut dep_masks = Vec::with_capacity(n);
        let mut pred_offsets = Vec::with_capacity(n + 1);
        let mut pred_ids = Vec::new();
        pred_offsets.push(0u32);
        for id in graph.ids() {
            exec_times.push(graph.subtask(id).exec_time());
            weights.push(analysis.weight(id));
            required.push(graph.required_config(id));
            let mut deps = SlotMask::EMPTY;
            for &p in graph.predecessors(id) {
                pred_ids.push(p.index() as u32);
                deps.insert(p.index());
            }
            match schedule.predecessor_on_pe(id) {
                Some(prev) => {
                    pred_ids.push(prev.index() as u32);
                    deps.insert(prev.index());
                    pred_on_pe.push(prev.index() as u32);
                }
                None => pred_on_pe.push(NO_PRED),
            }
            pred_offsets.push(pred_ids.len() as u32);
            dep_masks.push(deps);
        }

        let slots = schedule.slot_count();
        let mut slot_offsets = Vec::with_capacity(slots + 1);
        let mut slot_subtasks = Vec::new();
        slot_offsets.push(0u32);
        for s in 0..slots {
            let on_slot = schedule.subtasks_on(PeAssignment::Tile(TileSlot::new(s)));
            slot_subtasks.extend(on_slot.iter().map(|id| id.index() as u32));
            slot_offsets.push(slot_subtasks.len() as u32);
        }
        let slot_tables = SlotTables::new(graph, &schedule);
        let drhw_count = graph.drhw_subtasks().len();
        let mut weight_order: Vec<u32> = (0..n as u32).collect();
        weight_order.sort_unstable_by(|&a, &b| {
            weights[b as usize]
                .cmp(&weights[a as usize])
                .then(a.cmp(&b))
        });
        Ok(PreparedSchedule {
            reconfig_latency: platform.reconfig_latency(),
            schedule,
            analysis,
            topo,
            exec_times,
            weights,
            weight_order,
            required,
            pred_on_pe,
            dep_masks,
            pred_offsets,
            pred_ids,
            slot_offsets,
            slot_subtasks,
            ideal,
            slots: slot_tables,
            drhw_count,
        })
    }

    /// Number of subtasks in the graph.
    pub fn subtask_count(&self) -> usize {
        self.exec_times.len()
    }

    /// The prepared initial schedule.
    pub fn schedule(&self) -> &InitialSchedule {
        &self.schedule
    }

    /// The precedence-only analysis (criticality weights).
    pub fn analysis(&self) -> &GraphAnalysis {
        &self.analysis
    }

    /// Makespan of the schedule with zero reconfiguration latency.
    pub fn ideal_makespan(&self) -> Time {
        self.ideal
    }

    /// Number of DRHW subtasks in the graph.
    pub fn drhw_count(&self) -> usize {
        self.drhw_count
    }

    /// The paper's criticality weight of subtask `idx` (its bottom level).
    pub(crate) fn weight(&self, idx: usize) -> Time {
        self.weights[idx]
    }

    /// The subtasks of `set` by decreasing criticality weight (ties:
    /// ascending id) — the order the list scheduler and the initialization
    /// phase prefer. Filtering the precomputed whole-graph order down to
    /// `set` is exactly a sort of `set` by that comparator.
    pub(crate) fn by_weight(&self, set: SlotMask<W>) -> impl Iterator<Item = SubtaskId> + '_ {
        self.weight_order
            .iter()
            .map(|&idx| idx as usize)
            .filter(move |&idx| set.contains(idx))
            .map(SubtaskId::new)
    }

    /// Computes which subtasks need a configuration load given a residency
    /// mask. A subtask needs none when the configuration on its slot is
    /// already its own: left there by the previous subtask of the slot
    /// (intra-task reuse), or resident from an earlier task — which only
    /// helps while no different configuration was loaded on the slot since
    /// the task started.
    pub(crate) fn needs_load_mask(&self, resident: SlotMask<W>) -> SlotMask<W> {
        let mut needs = SlotMask::EMPTY;
        for slot in 0..self.slot_offsets.len() - 1 {
            let range = self.slot_offsets[slot] as usize..self.slot_offsets[slot + 1] as usize;
            // What the tile holds while the task runs its slot sequence;
            // `None` is whatever a previous task left, which is not one of
            // this slot's resident configurations.
            let mut current: Option<ConfigId> = None;
            for (position, &raw) in self.slot_subtasks[range].iter().enumerate() {
                let idx = raw as usize;
                let Some(required) = self.required[idx] else {
                    continue;
                };
                let externally_resident = position == 0 && resident.contains(idx);
                let later_resident = position > 0 && resident.contains(idx) && current.is_none();
                if Some(required) == current || externally_resident || later_resident {
                    current = Some(required);
                    continue;
                }
                needs.insert(idx);
                current = Some(required);
            }
        }
        needs
    }

    /// How many whole loads `window` can hide, capped at the graph size.
    /// This is the only way [`evaluate_inter_task`](PreparedSchedule::evaluate_inter_task)
    /// and the hybrid decision read the window, so two windows with the same
    /// value give the same results — which makes it, with the residency
    /// mask, a complete memo key for both windowed kernels.
    pub fn window_loads(&self, window: InterTaskWindow) -> usize {
        window
            .whole_loads(self.reconfig_latency)
            .min(self.exec_times.len())
    }

    /// The hybrid heuristic's run-time decision for one activation with
    /// `resident` on the tiles. It schedules nothing: it tests masks against
    /// the stored artifact. `init` receives the critical loads the
    /// initialization phase realises, most critical first, of which the
    /// first [`preloaded`](HybridDecision::preloaded) hide in `window`;
    /// `body` the stored order minus the cancelled loads, then every other
    /// load of the body in id order.
    pub(crate) fn hybrid_decision(
        &self,
        critical: &CriticalSetAnalysis,
        resident: SlotMask<W>,
        window: InterTaskWindow,
        init: &mut Vec<SubtaskId>,
        body: &mut Vec<SubtaskId>,
    ) -> HybridDecision<W> {
        let needs_base = self.needs_load_mask(resident);
        // Assumed residency: the critical set on top of what is resident. A
        // subtask's need depends on its own residency alone, so the body
        // after the initialization phase needs just what this one needs.
        let mut assumed = resident;
        for &id in critical.critical_subtasks() {
            assumed.insert(id.index());
        }
        let body_needs = self.needs_load_mask(assumed);

        // Critical subtasks that need a load now and whose slot is untouched
        // before they run, so loading them ahead helps.
        init.clear();
        init.extend(
            critical
                .critical_subtasks()
                .iter()
                .copied()
                .filter(|id| needs_base.contains(id.index()) && !body_needs.contains(id.index())),
        );
        let preloaded = self.window_loads(window).min(init.len());

        // Plus the loads the stored order does not cover: critical subtasks
        // whose reuse cannot be realised.
        let stored = critical.stored_load_order();
        body.clear();
        body.extend(
            stored
                .iter()
                .copied()
                .filter(|id| body_needs.contains(id.index())),
        );
        let covered: SlotMask<W> = stored.iter().map(|id| id.index()).collect();
        body.extend(body_needs.difference(covered).iter().map(SubtaskId::new));
        let cancelled = stored
            .iter()
            .filter(|id| !body_needs.contains(id.index()))
            .count();
        HybridDecision {
            preloaded,
            cancelled,
            body_needs,
            init_duration: self.reconfig_latency * (init.len() - preloaded) as u64,
        }
    }

    /// Latest finish among the dependencies of `idx` (graph predecessors and
    /// the previous subtask on its PE), floored at `earliest_exec`: the
    /// instant `idx` could start if its own load were free. Meaningful once
    /// every dependency has its finish time in `exec_finish`.
    #[inline]
    pub(crate) fn deps_ready(&self, exec_finish: &[Time], earliest_exec: Time, idx: usize) -> Time {
        let range = self.pred_offsets[idx] as usize..self.pred_offsets[idx + 1] as usize;
        self.pred_ids[range]
            .iter()
            .fold(earliest_exec, |ready, &p| {
                ready.max(exec_finish[p as usize])
            })
    }
}

impl PreparedSchedule {
    /// Prepares a schedule for repeated evaluation by the per-activation
    /// kernels, which track at most [`SlotMask::CAPACITY`] subtasks.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid, has more subtasks than the
    /// [`SlotMask`] width ([`PrefetchError::ExceedsMaskWidth`]), or the
    /// schedule needs more tile slots than the platform has tiles.
    pub fn new(
        graph: &SubtaskGraph,
        schedule: InitialSchedule,
        platform: &Platform,
    ) -> Result<Self, PrefetchError> {
        Self::prepare(graph, schedule, platform)
    }

    /// Renames every configuration the prepared tables refer to (required,
    /// desired, wanted and last-on-slot) into its position in `dictionary`,
    /// a sorted list holding every configuration the graph requires.
    ///
    /// The renaming is one-to-one and order-preserving, so no kernel result
    /// changes. What changes is the id space: tile contents written by
    /// [`apply_to_contents`](Self::apply_to_contents), the configurations
    /// [`mark_reusable`](Self::mark_reusable) compares and the protection
    /// counts of [`Scratch`] then use small dense indices shared by every
    /// schedule interned into the same dictionary, instead of the sparse raw
    /// ids. Contents and protected configurations fed to an interned schedule
    /// must be in the same dense space.
    ///
    /// # Panics
    ///
    /// Panics if `dictionary` misses a configuration the graph requires.
    pub fn intern_configs(&mut self, dictionary: &[ConfigId]) {
        let intern = |config: ConfigId| {
            let dense = dictionary.binary_search(&config).unwrap_or_else(|_| {
                panic!("{config} is missing from the configuration dictionary")
            });
            ConfigId::new(dense)
        };
        for config in self.required.iter_mut().flatten() {
            *config = intern(*config);
        }
        self.slots.intern(intern);
    }

    /// The configuration of every DRHW subtask, in subtask order (repeats
    /// included; dense ids once [`intern_configs`](Self::intern_configs)
    /// ran).
    pub fn required_configs(&self) -> impl Iterator<Item = ConfigId> + '_ {
        self.required.iter().flatten().copied()
    }

    /// Chooses a physical tile for every abstract slot, writing the mapping
    /// into `scratch.slot_to_tile`: the rule of
    /// [`assign_tiles_protecting`](crate::assign_tiles_protecting), on the
    /// prepared per-slot tables, with the protected set being the
    /// configurations whose [`Scratch::protect`] count is above zero.
    ///
    /// A slot's tile holds its first subtask's configuration exactly when
    /// the reuse-aware rule's pass 1 matched it, so that rule also leaves
    /// the residency mask [`mark_reusable`](Self::mark_reusable) would
    /// compute; the other rules leave it as it was.
    ///
    /// # Errors
    ///
    /// Returns [`PrefetchError::NotEnoughTiles`] if the schedule uses more
    /// slots than `contents` tracks tiles.
    pub fn assign_tiles_into(
        &self,
        contents: &TileContents,
        policy: ReplacementPolicy,
        scratch: &mut Scratch,
    ) -> Result<(), PrefetchError> {
        let Scratch {
            slot_to_tile,
            resident,
            protect_counts,
            ..
        } = scratch;
        let is_protected =
            |config: ConfigId| protect_counts.get(config.index()).is_some_and(|&n| n > 0);
        let mut reused = SlotMask::EMPTY;
        let mark = |first: SubtaskId| reused.insert(first.index());
        self.slots
            .assign(contents, policy, is_protected, slot_to_tile, mark)?;
        if policy == ReplacementPolicy::ReuseAware {
            *resident = reused;
        }
        Ok(())
    }

    /// Marks in `scratch.resident` the subtasks that can reuse a
    /// configuration already resident on the physical tile their slot is
    /// mapped to (per `scratch.slot_to_tile`), returning how many there are:
    /// the check of [`reusable_subtasks`](crate::reusable_subtasks).
    pub fn mark_reusable(&self, contents: &TileContents, scratch: &mut Scratch) -> usize {
        let reused = self.slots.reused(contents, &scratch.slot_to_tile);
        scratch.resident = reused.map(SubtaskId::index).collect();
        scratch.resident.len()
    }

    /// Clears the residency mask (for policies that cannot exploit reuse).
    pub fn clear_residency(&self, scratch: &mut Scratch) {
        scratch.resident.clear();
    }

    /// Applies the effect of executing this schedule to the tile contents:
    /// every slot's tile (per `scratch.slot_to_tile`) ends up holding the
    /// configuration of the last DRHW subtask executed on it, stamped
    /// `now`, recorded as one batch — the update of
    /// [`apply_schedule_to_contents`](crate::apply_schedule_to_contents).
    pub fn apply_to_contents(&self, contents: &mut TileContents, scratch: &Scratch, now: Time) {
        self.slots.record(contents, &scratch.slot_to_tile, now);
    }

    /// Scores the on-demand (no-prefetch) policy with nothing resident.
    ///
    /// The outcome is activation-independent, so callers normally invoke this
    /// once at preparation time and cache the summary.
    ///
    /// # Errors
    ///
    /// Propagates timing-loop errors.
    pub fn evaluate_on_demand_cold(
        &self,
        scratch: &mut Scratch,
    ) -> Result<ExecSummary, PrefetchError> {
        scratch.resident.clear();
        let needs = self.needs_load_mask(SlotMask::EMPTY);
        simulate_core(
            self,
            needs,
            Strategy::OnDemand,
            Time::ZERO,
            Time::ZERO,
            &mut scratch.timeline,
            None,
        )
    }

    /// Scores the run-time list-scheduling policy against the residency mask
    /// currently in `scratch.resident`.
    ///
    /// # Errors
    ///
    /// Propagates timing-loop errors.
    pub fn evaluate_list(&self, scratch: &mut Scratch) -> Result<ExecSummary, PrefetchError> {
        let needs = self.needs_load_mask(scratch.resident);
        simulate_core(
            self,
            needs,
            Strategy::ListByWeight,
            Time::ZERO,
            Time::ZERO,
            &mut scratch.timeline,
            None,
        )
    }

    /// Scores the run-time policy with the §6 inter-task optimization: the
    /// most critical loads that fit in `window` are preloaded before the task
    /// starts. Returns the body summary and the number of preloaded loads
    /// (the caller adds them to the performed-load count and derives the next
    /// window from the summary's trailing idle time).
    ///
    /// # Errors
    ///
    /// Propagates timing-loop errors.
    pub fn evaluate_inter_task(
        &self,
        window: InterTaskWindow,
        scratch: &mut Scratch,
    ) -> Result<(ExecSummary, usize), PrefetchError> {
        let needs_base = self.needs_load_mask(scratch.resident);
        // The most critical pending loads that fit in the window are
        // preloaded; extended residency: what they leave on the tiles.
        let fit = self.window_loads(window).min(needs_base.len());
        let mut aux_resident = scratch.resident;
        aux_resident.extend(self.by_weight(needs_base).take(fit).map(SubtaskId::index));
        let needs_aux = self.needs_load_mask(aux_resident);
        let summary = simulate_core(
            self,
            needs_aux,
            Strategy::ListByWeight,
            Time::ZERO,
            Time::ZERO,
            &mut scratch.timeline,
            None,
        )?;
        Ok((summary, fit))
    }

    /// Scores one activation of the hybrid heuristic against the residency
    /// mask currently in `scratch.resident`: the run-time decision
    /// [`HybridPrefetch::evaluate`] takes, and its body timed after the
    /// initialization phase.
    ///
    /// # Errors
    ///
    /// Propagates timing-loop errors.
    pub fn evaluate_hybrid(
        &self,
        hybrid: &HybridPrefetch,
        window: InterTaskWindow,
        scratch: &mut Scratch,
    ) -> Result<HybridSummary, PrefetchError> {
        let Scratch {
            resident,
            init,
            body,
            timeline,
            ..
        } = scratch;
        let decision = self.hybrid_decision(hybrid.critical(), *resident, window, init, body);
        validate_order(decision.body_needs, body)?;
        let summary = simulate_core(
            self,
            decision.body_needs,
            Strategy::Fixed(body),
            decision.init_duration,
            decision.init_duration,
            timeline,
            None,
        )?;
        Ok(HybridSummary {
            penalty: summary.penalty,
            loads_performed: init.len() - decision.preloaded + body.len(),
            preloaded: decision.preloaded,
            cancelled: decision.cancelled,
            trailing_port_idle: summary.trailing_port_idle,
        })
    }
}

/// What [`PreparedSchedule::hybrid_decision`] decides besides its two lists.
pub(crate) struct HybridDecision<const W: usize> {
    /// How many leading initialization loads the window hides.
    pub(crate) preloaded: usize,
    /// Stored loads cancelled because their configuration is resident.
    pub(crate) cancelled: usize,
    /// The loads the body performs; the body order is a permutation of them.
    pub(crate) body_needs: SlotMask<W>,
    /// The initialization phase the window does not hide, before which no
    /// execution and no body load starts.
    pub(crate) init_duration: Time,
}

/// What the per-activation timing loop reports back to the simulation:
/// everything the aggregate statistics need, without materialising the timed
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSummary {
    /// Reconfiguration penalty versus the ideal makespan.
    pub penalty: Time,
    /// Number of loads the reconfiguration port performed.
    pub loads: usize,
    /// Idle time the port offers at the end of the task (for the inter-task
    /// optimization of the next activation).
    pub trailing_port_idle: Time,
}

/// The hybrid policy's per-activation summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridSummary {
    /// Reconfiguration penalty (initialization phase plus body stalls).
    pub penalty: Time,
    /// Loads performed by this activation (initialization + body, excluding
    /// loads hidden in the previous task's window).
    pub loads_performed: usize,
    /// Critical loads hidden entirely inside the previous task's idle window.
    pub preloaded: usize,
    /// Stored loads cancelled because their configuration was resident.
    pub cancelled: usize,
    /// Idle time the port offers at the end of the task.
    pub trailing_port_idle: Time,
}

/// Every buffer the per-activation kernels write into. One instance per
/// worker thread; create it once, [`reserve`](Scratch::reserve) it to the
/// largest graph it will see, and reuse it for every activation — the kernels
/// only `clear()` and refill, so a warm loop never touches the allocator.
///
/// The set-shaped state (residency, needs-load, pending loads) lives in
/// [`SlotMask`] words, not here; only the buffers that genuinely need heap
/// backing remain — the load-order lists, the flat finish/load timestamp
/// tables (valid only under the timing loop's internal masks), the
/// slot-to-tile mapping and the per-configuration protection counts the
/// caller maintains between activations. The replacement kernel's indexes
/// live with the tile state ([`TileContents`]), not here.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Residency mask consumed by the evaluation kernels (one bit per
    /// subtask). Fill via [`PreparedSchedule::mark_reusable`],
    /// [`PreparedSchedule::clear_residency`] or a reuse-aware
    /// [`PreparedSchedule::assign_tiles_into`].
    pub(crate) resident: SlotMask,
    /// Hybrid initialization loads.
    init: Vec<SubtaskId>,
    /// Hybrid body load order.
    body: Vec<SubtaskId>,
    /// The timing loop's timestamp tables.
    timeline: Timeline,
    /// The slot-to-tile mapping the replacement kernel produces.
    pub(crate) slot_to_tile: Vec<TileId>,
    /// Per-configuration protection counts, indexed by configuration id: a
    /// configuration is protected from eviction while its count is above
    /// zero (see [`protect`](Scratch::protect)).
    protect_counts: Vec<u32>,
}

impl Scratch {
    /// Creates an empty scratch. Buffers grow on first use; call
    /// [`reserve`](Scratch::reserve) to pre-size them and make even the first
    /// activation allocation-free.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Pre-sizes every buffer for graphs of up to `subtasks` subtasks,
    /// schedules of up to `slots` slots and configuration ids below
    /// `configs` (the size of an
    /// [interned](PreparedSchedule::intern_configs) dictionary).
    pub fn reserve(&mut self, subtasks: usize, slots: usize, configs: usize) {
        self.init.reserve(subtasks);
        self.body.reserve(subtasks);
        self.timeline.exec_finish.reserve(subtasks);
        self.timeline.loaded_at.reserve(subtasks);
        self.slot_to_tile.reserve(slots);
        if self.protect_counts.len() < configs {
            self.protect_counts.resize(configs, 0);
        }
    }

    /// The slot-to-tile mapping most recently produced by
    /// [`PreparedSchedule::assign_tiles_into`].
    pub fn slot_to_tile(&self) -> &[TileId] {
        &self.slot_to_tile
    }

    /// The residency mask most recently produced by
    /// [`PreparedSchedule::mark_reusable`] (or cleared by
    /// [`PreparedSchedule::clear_residency`]). Together with the inter-task
    /// window this is the *entire* activation-dependent input of the
    /// evaluation kernels, so callers can key memo tables on it.
    pub fn resident(&self) -> SlotMask {
        self.resident
    }

    /// Protects `configs` once more each. A configuration whose count is
    /// above zero is in the protected set of
    /// [`PreparedSchedule::assign_tiles_into`]. Counting instead of a set
    /// lets a caller protect every queued task's configurations once and
    /// release each task's own with [`unprotect`](Scratch::unprotect) just
    /// before it runs. Allocation-free for ids below the `configs` bound
    /// given to [`reserve`](Scratch::reserve).
    pub fn protect(&mut self, configs: &[ConfigId]) {
        for config in configs {
            let index = config.index();
            if index >= self.protect_counts.len() {
                self.protect_counts.resize(index + 1, 0);
            }
            self.protect_counts[index] += 1;
        }
    }

    /// Undoes one [`protect`](Scratch::protect) of each of `configs`.
    pub fn unprotect(&mut self, configs: &[ConfigId]) {
        for config in configs {
            if let Some(count) = self.protect_counts.get_mut(config.index()) {
                *count = count.saturating_sub(1);
            }
        }
    }

    /// Whether `config`'s protection count is above zero.
    pub fn is_protected(&self, config: ConfigId) -> bool {
        self.protect_counts
            .get(config.index())
            .is_some_and(|&count| count > 0)
    }

    /// Drops every protection (all counts back to zero).
    pub fn clear_protection(&mut self) {
        self.protect_counts.fill(0);
    }
}

/// How the port chooses its next load.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Strategy<'o> {
    /// Perform the loads exactly in the given order (a permutation of the
    /// loads; callers validate it).
    Fixed(&'o [SubtaskId]),
    /// Whenever the port is free, start the startable load with the highest
    /// criticality weight (the run-time heuristic of ref [7]).
    ListByWeight,
    /// No prefetch: a load is only requested once the subtask could otherwise
    /// start executing; requests are served first-come first-served.
    OnDemand,
}

/// The timing loop's flat per-subtask timestamp tables. While the loop
/// runs, entries are only meaningful under its internal masks; once it
/// returns `Ok`, `exec_finish` holds every subtask's finish time and
/// `loaded_at` the completion instant of every load it performed.
#[derive(Debug, Default, Clone)]
pub(crate) struct Timeline {
    pub(crate) exec_finish: Vec<Time>,
    pub(crate) loaded_at: Vec<Time>,
}

/// Checks that `order` is a permutation of `loads`, naming the first id of
/// the order that is not a load or repeats one, else the first load it
/// misses.
pub(crate) fn validate_order<const W: usize>(
    loads: SlotMask<W>,
    order: &[SubtaskId],
) -> Result<(), PrefetchError> {
    let mut seen = SlotMask::<W>::EMPTY;
    for &id in order {
        let index = id.index();
        if index >= SlotMask::<W>::CAPACITY || !loads.contains(index) || seen.contains(index) {
            return Err(PrefetchError::InvalidLoadOrder { id });
        }
        seen.insert(index);
    }
    match loads.difference(seen).iter().next() {
        Some(missing) => Err(PrefetchError::InvalidLoadOrder {
            id: SubtaskId::new(missing),
        }),
        None => Ok(()),
    }
}

/// Earliest instant a subtask could start, ignoring its own load. `None`
/// while a dependency is untimed (one mask `AND` against the precomputed
/// dependency set, then a `max` fold over the CSR predecessor list).
#[inline]
fn ready_time<const W: usize>(
    prepared: &PreparedSchedule<W>,
    timed: SlotMask<W>,
    exec_finish: &[Time],
    earliest_exec: Time,
    idx: usize,
) -> Option<Time> {
    if !prepared.dep_masks[idx].difference(timed).is_empty() {
        return None;
    }
    Some(prepared.deps_ready(exec_finish, earliest_exec, idx))
}

/// Earliest instant the tile of `idx` can accept a load. `None` while its
/// previous occupant is untimed.
#[inline]
fn tile_available<const W: usize>(
    prepared: &PreparedSchedule<W>,
    timed: SlotMask<W>,
    exec_finish: &[Time],
    idx: usize,
) -> Option<Time> {
    let prev = prepared.pred_on_pe[idx];
    if prev == NO_PRED {
        Some(Time::ZERO)
    } else if timed.contains(prev as usize) {
        Some(exec_finish[prev as usize])
    } else {
        None
    }
}

/// The timing loop every strategy and every caller shares. Times the loads
/// in `needs` under `strategy`, with no execution starting before
/// `earliest_exec` and the port free from `earliest_port`, and reports the
/// aggregate summary. The timed/loaded/pending sets are register-resident
/// bitmasks; the timestamps land in `timeline` (see [`Timeline`]). When
/// `order` is given, the loop records the port order into it — everything
/// else a timed schedule shows follows from the timeline.
///
/// # Errors
///
/// Returns [`PrefetchError::DeadlockedOrder`] when neither an execution nor
/// a load can make progress (only a fixed order can do that).
pub(crate) fn simulate_core<const W: usize>(
    prepared: &PreparedSchedule<W>,
    needs: SlotMask<W>,
    strategy: Strategy<'_>,
    earliest_exec: Time,
    earliest_port: Time,
    timeline: &mut Timeline,
    mut order: Option<&mut Vec<SubtaskId>>,
) -> Result<ExecSummary, PrefetchError> {
    let latency = prepared.reconfig_latency;
    let n = prepared.exec_times.len();
    let Timeline {
        exec_finish,
        loaded_at,
    } = timeline;

    if exec_finish.len() < n {
        exec_finish.resize(n, Time::ZERO);
    }
    if loaded_at.len() < n {
        loaded_at.resize(n, Time::ZERO);
    }
    let mut timed = SlotMask::<W>::EMPTY;
    let mut loaded = SlotMask::<W>::EMPTY;
    let mut pending = needs;
    let total_loads = needs.len();

    let mut port_free = earliest_port;
    let mut last_load_finish = Time::ZERO;
    let mut fixed_cursor = 0usize;
    let mut remaining_execs = n;
    let mut exec_makespan = Time::ZERO;

    while remaining_execs > 0 || !pending.is_empty() {
        let mut progress = false;

        // Phase 1: schedule every execution whose dependencies are all timed.
        for &raw in &prepared.topo {
            let idx = raw as usize;
            if timed.contains(idx) {
                continue;
            }
            let Some(ready) = ready_time(prepared, timed, exec_finish, earliest_exec, idx) else {
                continue;
            };
            if needs.contains(idx) && !loaded.contains(idx) {
                continue;
            }
            let start = if loaded.contains(idx) {
                ready.max(loaded_at[idx])
            } else {
                ready
            };
            let finish = start + prepared.exec_times[idx];
            exec_finish[idx] = finish;
            timed.insert(idx);
            exec_makespan = exec_makespan.max(finish);
            remaining_execs -= 1;
            progress = true;
        }

        // Phase 2: let the port start (at most) one more load.
        if !pending.is_empty() {
            let pick = match strategy {
                Strategy::Fixed(order) => {
                    while fixed_cursor < order.len() && loaded.contains(order[fixed_cursor].index())
                    {
                        fixed_cursor += 1;
                    }
                    order.get(fixed_cursor).and_then(|&next| {
                        tile_available(prepared, timed, exec_finish, next.index())
                            .map(|t| (next.index(), t))
                    })
                }
                Strategy::ListByWeight => {
                    // Horizon: earliest instant any known-available load could
                    // actually start.
                    let mut earliest: Option<Time> = None;
                    for idx in pending.iter() {
                        if let Some(t) = tile_available(prepared, timed, exec_finish, idx) {
                            earliest = Some(earliest.map_or(t, |e| e.min(t)));
                        }
                    }
                    earliest.and_then(|e| {
                        let horizon = e.max(port_free);
                        let mut best: Option<(usize, Time)> = None;
                        for idx in pending.iter() {
                            let Some(t) = tile_available(prepared, timed, exec_finish, idx) else {
                                continue;
                            };
                            if t > horizon {
                                continue;
                            }
                            // Higher weight wins, lower index breaks ties.
                            best = match best {
                                None => Some((idx, t)),
                                Some((bidx, _))
                                    if prepared.weights[idx] > prepared.weights[bidx]
                                        || (prepared.weights[idx] == prepared.weights[bidx]
                                            && idx < bidx) =>
                                {
                                    Some((idx, t))
                                }
                                keep => keep,
                            };
                        }
                        best
                    })
                }
                Strategy::OnDemand => {
                    // The earliest requested load wins, then the most
                    // critical, then the lowest index.
                    let mut best: Option<(usize, Time)> = None;
                    for idx in pending.iter() {
                        let Some(t) = ready_time(prepared, timed, exec_finish, earliest_exec, idx)
                        else {
                            continue;
                        };
                        best = match best {
                            None => Some((idx, t)),
                            Some((bidx, bt))
                                if t < bt
                                    || (t == bt
                                        && prepared.weights[idx] > prepared.weights[bidx])
                                    || (t == bt
                                        && prepared.weights[idx] == prepared.weights[bidx]
                                        && idx < bidx) =>
                            {
                                Some((idx, t))
                            }
                            keep => keep,
                        };
                    }
                    best
                }
            };
            if let Some((idx, available)) = pick {
                let start = port_free.max(available);
                let finish = start + latency;
                loaded_at[idx] = finish;
                loaded.insert(idx);
                port_free = finish;
                last_load_finish = finish;
                pending.remove(idx);
                if let Some(order) = order.as_deref_mut() {
                    order.push(SubtaskId::new(idx));
                }
                progress = true;
            }
        }

        if !progress {
            return Err(PrefetchError::DeadlockedOrder);
        }
    }

    Ok(ExecSummary {
        penalty: exec_makespan.saturating_sub(prepared.ideal),
        loads: total_loads,
        trailing_port_idle: exec_makespan.saturating_sub(last_load_finish),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3;
    use crate::{ListScheduler, PrefetchProblem, PrefetchScheduler, TileMapping};
    use drhw_model::Subtask;
    use std::collections::BTreeSet;

    fn resident_masks(n: usize) -> Vec<BTreeSet<SubtaskId>> {
        // Empty, every singleton, and the full set.
        let mut masks = vec![BTreeSet::new()];
        for i in 0..n {
            masks.push([SubtaskId::new(i)].into_iter().collect());
        }
        masks.push((0..n).map(SubtaskId::new).collect());
        masks
    }

    #[test]
    fn inter_task_kernel_matches_the_classic_pipeline() {
        let (g, schedule, platform) = fig3();
        let prepared = PreparedSchedule::new(&g, schedule.clone(), &platform).unwrap();
        let mut scratch = Scratch::new();
        let latency = platform.reconfig_latency();
        for resident in resident_masks(g.len()) {
            for window_ms in [0u64, 4, 9, 100] {
                let window = InterTaskWindow::new(Time::from_millis(window_ms));
                // The classic pipeline: preload the heaviest loads that fit
                // whole in the window, then list-schedule the rest.
                let base =
                    PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
                let by_weight = base.loads_by_weight_desc();
                let fit = window.whole_loads(latency).min(by_weight.len());
                let mut extended = resident.clone();
                extended.extend(by_weight[..fit].iter().copied());
                let problem =
                    PrefetchProblem::with_resident(&g, &schedule, &platform, &extended).unwrap();
                let classic = ListScheduler::new().schedule(&problem).unwrap();

                prepared.clear_residency(&mut scratch);
                for &id in &resident {
                    scratch.resident.insert(id.index());
                }
                let (summary, preloaded) =
                    prepared.evaluate_inter_task(window, &mut scratch).unwrap();
                assert_eq!(preloaded, fit, "{resident:?} w={window_ms}");
                assert_eq!(
                    summary.penalty,
                    classic.penalty(),
                    "{resident:?} w={window_ms}"
                );
                assert_eq!(
                    summary.loads,
                    classic.load_count(),
                    "{resident:?} w={window_ms}"
                );
                assert_eq!(
                    summary.trailing_port_idle,
                    classic.trailing_port_idle(),
                    "{resident:?} w={window_ms}"
                );
            }
        }
    }

    #[test]
    fn hybrid_kernel_matches_the_classic_evaluate() {
        let (g, schedule, platform) = fig3();
        let hybrid = HybridPrefetch::compute(&g, &schedule, &platform).unwrap();
        let prepared = PreparedSchedule::new(&g, schedule.clone(), &platform).unwrap();
        let mut scratch = Scratch::new();
        for resident in resident_masks(g.len()) {
            for window_ms in [0u64, 4, 9, 100] {
                let window = InterTaskWindow::new(Time::from_millis(window_ms));
                let classic = hybrid
                    .evaluate(&g, &schedule, &platform, &resident, window)
                    .unwrap();
                prepared.clear_residency(&mut scratch);
                for &id in &resident {
                    scratch.resident.insert(id.index());
                }
                let summary = prepared
                    .evaluate_hybrid(&hybrid, window, &mut scratch)
                    .unwrap();
                assert_eq!(
                    summary.penalty,
                    classic.penalty(),
                    "{resident:?} w={window_ms}"
                );
                assert_eq!(
                    summary.loads_performed,
                    classic.loads_performed(),
                    "{resident:?} w={window_ms}"
                );
                assert_eq!(
                    summary.preloaded,
                    classic.decision().preloaded.len(),
                    "{resident:?} w={window_ms}"
                );
                assert_eq!(
                    summary.cancelled,
                    classic.decision().cancelled_loads.len(),
                    "{resident:?} w={window_ms}"
                );
                assert_eq!(
                    summary.trailing_port_idle,
                    classic.trailing_window().remaining(),
                    "{resident:?} w={window_ms}"
                );
            }
        }
    }

    /// Residency masks over `n` subtasks: empty, full, every singleton and
    /// a few pseudo-random mixtures.
    fn mask_sample(n: usize) -> Vec<SlotMask> {
        let full: SlotMask = SlotMask::full(n);
        let mut masks = vec![SlotMask::EMPTY, full];
        masks.extend((0..n).map(|i| SlotMask::from_bits(1 << i)));
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..8 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            masks.push(SlotMask::from_bits(state & full.bits()));
        }
        masks
    }

    #[test]
    fn windowed_kernels_read_the_window_only_through_its_whole_loads() {
        use drhw_workloads::multimedia::{
            fully_parallel_schedule, jpeg_decoder_graph, mpeg_encoder_graph, parallel_jpeg_graph,
            pattern_recognition_graph, MpegFrame,
        };
        let mut cases = vec![fig3()];
        for graph in [
            pattern_recognition_graph(),
            jpeg_decoder_graph(),
            parallel_jpeg_graph(),
            mpeg_encoder_graph(MpegFrame::P),
        ] {
            let schedule = fully_parallel_schedule(&graph).unwrap();
            cases.push((graph, schedule, Platform::virtex_like(16).unwrap()));
        }
        let mut scratch = Scratch::new();
        for (graph, schedule, platform) in &cases {
            let hybrid = HybridPrefetch::compute(graph, schedule, platform).unwrap();
            let prepared = PreparedSchedule::new(graph, schedule.clone(), platform).unwrap();
            let n = graph.len() as u64;
            let latency = platform.reconfig_latency();
            // Windows a memo keyed on `window_loads` treats as one: the two
            // ends of every whole-load step below the graph size, and two
            // windows that already hold a load per subtask.
            let mut pairs: Vec<(Time, Time)> = (0..n)
                .map(|k| (latency * k, latency * k + latency - Time::from_micros(1)))
                .collect();
            pairs.push((latency * n, latency * (n + 5) + Time::from_micros(17)));
            for resident in mask_sample(graph.len()) {
                for &(a, b) in &pairs {
                    let (a, b) = (InterTaskWindow::new(a), InterTaskWindow::new(b));
                    let label = format!("{} {resident:?} {a:?} vs {b:?}", graph.name());
                    assert_eq!(
                        prepared.window_loads(a),
                        prepared.window_loads(b),
                        "{label}"
                    );
                    scratch.resident = resident;
                    let inter_a = prepared.evaluate_inter_task(a, &mut scratch);
                    let inter_b = prepared.evaluate_inter_task(b, &mut scratch);
                    assert_eq!(inter_a, inter_b, "inter-task {label}");
                    let hybrid_a = prepared.evaluate_hybrid(&hybrid, a, &mut scratch);
                    let hybrid_b = prepared.evaluate_hybrid(&hybrid, b, &mut scratch);
                    assert_eq!(hybrid_a, hybrid_b, "hybrid {label}");
                }
            }
        }
    }

    #[test]
    fn prepared_schedule_rejects_oversized_schedules() {
        let (g, schedule, _) = fig3();
        let small = Platform::virtex_like(2).unwrap();
        let err = PreparedSchedule::new(&g, schedule, &small).unwrap_err();
        assert_eq!(
            err,
            PrefetchError::NotEnoughTiles {
                required: 3,
                available: 2
            }
        );
    }

    #[test]
    fn prepared_schedule_rejects_graphs_wider_than_the_mask() {
        // 65 independent subtasks on one shared slot: a valid schedule, but
        // one more subtask than the bitmask kernels can track.
        let mut g = SubtaskGraph::new("wide");
        let n = SlotMask::<1>::CAPACITY + 1;
        for i in 0..n {
            g.add_subtask(Subtask::new(
                format!("s{i}"),
                Time::from_millis(1),
                ConfigId::new(i),
            ));
        }
        let schedule =
            InitialSchedule::from_assignment(&g, vec![PeAssignment::Tile(TileSlot::new(0)); n])
                .unwrap();
        let platform = Platform::virtex_like(3).unwrap();
        let err = PreparedSchedule::new(&g, schedule, &platform).unwrap_err();
        assert_eq!(
            err,
            PrefetchError::ExceedsMaskWidth {
                subtasks: n,
                capacity: SlotMask::<1>::CAPACITY
            }
        );
        assert!(err.to_string().contains("65 subtasks"));
    }

    #[test]
    fn accessors_expose_the_prepared_artifacts() {
        let (g, schedule, platform) = fig3();
        let ideal = schedule.ideal_timing(&g).unwrap().makespan();
        let prepared = PreparedSchedule::new(&g, schedule, &platform).unwrap();
        assert_eq!(prepared.ideal_makespan(), ideal);
        assert_eq!(prepared.drhw_count(), 4);
        assert_eq!(prepared.subtask_count(), 4);
        assert_eq!(prepared.schedule().slot_count(), 3);
        assert_eq!(prepared.analysis().topological_order().len(), 4);
        // TileMapping parity: identity mapping for the Direct policy.
        let mut scratch = Scratch::new();
        scratch.clear_protection();
        let contents = TileContents::new(3);
        prepared
            .assign_tiles_into(&contents, ReplacementPolicy::Direct, &mut scratch)
            .unwrap();
        let identity = TileMapping::identity(3);
        for s in 0..3 {
            assert_eq!(
                scratch.slot_to_tile()[s],
                identity.tile_of(TileSlot::new(s))
            );
        }
    }
}
