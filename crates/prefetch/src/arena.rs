//! The timing engine and the allocation-free per-activation kernels.
//!
//! Every prefetch policy in this crate — on-demand loading, the run-time
//! list scheduler of ref [7], the branch & bound optimum and the stored
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
//! The replacement kernel applies the same idea to tiles: [`Scratch`] keeps
//! one tile mask per configuration, so the reuse-aware rule finds the
//! lowest free tile holding a slot's configuration with one `AND` and one
//! trailing-zeros count instead of scanning the platform. Its tile masks
//! are one word too, so it rejects tile contents wider than
//! [`SlotMask::CAPACITY`] ([`PrefetchError::TooManyTiles`]).
//!
//! The replacement, reuse, inter-task and hybrid kernels replicate the
//! classic modules *exactly* (same traversal orders and tie-breaking
//! comparators; mask iteration is ascending like the classic id vectors),
//! and the differential oracle corpus (`drhw-oracle`) checks the whole
//! pipeline against an independent reference on every CI run.

use drhw_model::{
    ConfigId, GraphAnalysis, InitialSchedule, PeAssignment, Platform, SubtaskGraph, SubtaskId,
    TileId, TileSlot, Time,
};

use crate::error::PrefetchError;
use crate::hybrid::HybridPrefetch;
use crate::inter_task::InterTaskWindow;
use crate::mask::SlotMask;
use crate::replacement::ReplacementPolicy;
use crate::reuse::TileContents;

/// Sentinel in the flat per-PE predecessor table: no predecessor.
const NO_PRED: u32 = u32::MAX;

/// One (graph, initial schedule, platform) triple prepared for repeated
/// evaluation: every activation-independent artifact is computed once here,
/// flattened into index-addressed arrays, and borrowed by the per-activation
/// kernels.
#[derive(Debug, Clone)]
pub struct PreparedSchedule<'a, const W: usize = 1> {
    graph: &'a SubtaskGraph,
    platform: &'a Platform,
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
    /// First subtask executed on each abstract tile slot.
    first_on_slot: Vec<Option<SubtaskId>>,
    /// The configuration each slot wants to find already loaded (the one of
    /// its first DRHW subtask).
    desired_configs: Vec<Option<ConfigId>>,
    /// `desired_configs` flattened in slot order (the replacement module's
    /// "wanted" list).
    wanted_configs: Vec<ConfigId>,
    /// The configuration each slot's tile holds after the task ran (the one
    /// of its last DRHW subtask).
    last_config_on_slot: Vec<Option<ConfigId>>,
    /// Number of DRHW subtasks in the graph.
    drhw_count: usize,
}

impl<'a, const W: usize> PreparedSchedule<'a, W> {
    /// Prepares a schedule at a mask width of `W` words.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid, has more subtasks than the
    /// mask width ([`PrefetchError::ExceedsMaskWidth`]), or the schedule
    /// needs more tile slots than the platform has tiles.
    pub(crate) fn prepare(
        graph: &'a SubtaskGraph,
        schedule: InitialSchedule,
        platform: &'a Platform,
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
        let mut first_on_slot = Vec::with_capacity(slots);
        let mut last_config_on_slot = Vec::with_capacity(slots);
        slot_offsets.push(0u32);
        for s in 0..slots {
            let on_slot = schedule.subtasks_on(PeAssignment::Tile(TileSlot::new(s)));
            slot_subtasks.extend(on_slot.iter().map(|id| id.index() as u32));
            slot_offsets.push(slot_subtasks.len() as u32);
            first_on_slot.push(schedule.first_on_slot(TileSlot::new(s)));
            last_config_on_slot.push(
                on_slot
                    .iter()
                    .rev()
                    .find_map(|&id| graph.required_config(id)),
            );
        }
        let desired_configs: Vec<Option<ConfigId>> = first_on_slot
            .iter()
            .map(|first| first.and_then(|id| graph.required_config(id)))
            .collect();
        let wanted_configs = desired_configs.iter().flatten().copied().collect();
        let drhw_count = graph.drhw_subtasks().len();
        let mut weight_order: Vec<u32> = (0..n as u32).collect();
        weight_order.sort_unstable_by(|&a, &b| {
            weights[b as usize]
                .cmp(&weights[a as usize])
                .then(a.cmp(&b))
        });
        Ok(PreparedSchedule {
            graph,
            platform,
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
            first_on_slot,
            desired_configs,
            wanted_configs,
            last_config_on_slot,
            drhw_count,
        })
    }

    /// The graph being scheduled.
    pub fn graph(&self) -> &'a SubtaskGraph {
        self.graph
    }

    /// The prepared initial schedule.
    pub fn schedule(&self) -> &InitialSchedule {
        &self.schedule
    }

    /// The target platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
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

impl<'a> PreparedSchedule<'a> {
    /// Prepares a schedule for repeated evaluation by the per-activation
    /// kernels, which track at most [`SlotMask::CAPACITY`] subtasks.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid, has more subtasks than the
    /// [`SlotMask`] width ([`PrefetchError::ExceedsMaskWidth`]), or the
    /// schedule needs more tile slots than the platform has tiles.
    pub fn new(
        graph: &'a SubtaskGraph,
        schedule: InitialSchedule,
        platform: &'a Platform,
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
        for table in [
            &mut self.required,
            &mut self.desired_configs,
            &mut self.last_config_on_slot,
        ] {
            for config in table.iter_mut().flatten() {
                *config = intern(*config);
            }
        }
        for config in &mut self.wanted_configs {
            *config = intern(*config);
        }
    }

    /// The configuration of every DRHW subtask, in subtask order (repeats
    /// included; dense ids once [`intern_configs`](Self::intern_configs)
    /// ran).
    pub fn required_configs(&self) -> impl Iterator<Item = ConfigId> + '_ {
        self.required.iter().flatten().copied()
    }

    /// How many whole loads `window` can hide, capped at the graph size.
    /// This is the only way [`evaluate_inter_task`](Self::evaluate_inter_task)
    /// and [`evaluate_hybrid`](Self::evaluate_hybrid) read the window, so two
    /// windows with the same value give the same results — which makes it,
    /// with the residency mask, a complete memo key for both kernels.
    pub fn window_loads(&self, window: InterTaskWindow) -> usize {
        window
            .whole_loads(self.platform.reconfig_latency())
            .min(self.exec_times.len())
    }

    /// Chooses a physical tile for every abstract slot, writing the mapping
    /// into `scratch.slot_to_tile`. Replicates
    /// [`assign_tiles_protecting`](crate::assign_tiles_protecting) exactly,
    /// with the protected set being the configurations whose
    /// [`Scratch::protect`] count is above zero.
    ///
    /// The reuse-aware rule finds its tiles through one tile mask per
    /// configuration, built from `contents` on entry and cleared on exit:
    /// pass 1 picks a slot's tile with one `AND` and one trailing-zeros
    /// count, and pass 2's "holds a wanted configuration" flag is one bit
    /// test.
    ///
    /// # Errors
    ///
    /// Returns [`PrefetchError::NotEnoughTiles`] if the schedule uses more
    /// slots than `contents` tracks tiles, and
    /// [`PrefetchError::TooManyTiles`] if `contents` tracks more tiles than
    /// a one-word [`SlotMask`] holds.
    pub fn assign_tiles_into(
        &self,
        contents: &TileContents,
        policy: ReplacementPolicy,
        scratch: &mut Scratch,
    ) -> Result<(), PrefetchError> {
        let slots = self.schedule.slot_count();
        let tiles = contents.tile_count();
        if slots > tiles {
            return Err(PrefetchError::NotEnoughTiles {
                required: slots,
                available: tiles,
            });
        }
        if !SlotMask::<1>::fits(tiles) {
            return Err(PrefetchError::TooManyTiles {
                tiles,
                capacity: SlotMask::<1>::CAPACITY,
            });
        }
        let Scratch {
            slot_to_tile,
            tile_masks,
            free_keys,
            protect_counts,
            ..
        } = scratch;
        slot_to_tile.clear();
        match policy {
            ReplacementPolicy::Direct => {
                slot_to_tile.extend((0..slots).map(TileId::new));
            }
            ReplacementPolicy::LeastRecentlyUsed => {
                free_keys.clear();
                free_keys
                    .extend((0..tiles).map(|t| {
                        eviction_key(false, false, contents.last_used(TileId::new(t)), t)
                    }));
                sort_smallest(free_keys, slots);
                slot_to_tile.extend(free_keys[..slots].iter().map(|&key| key_tile(key)));
            }
            ReplacementPolicy::ReuseAware => {
                for t in 0..tiles {
                    if let Some(held) = contents.config_on(TileId::new(t)) {
                        if held.index() >= tile_masks.len() {
                            tile_masks.resize(held.index() + 1, SlotMask::EMPTY);
                        }
                        tile_masks[held.index()].insert(t);
                    }
                }
                let holding = |config: ConfigId| {
                    tile_masks
                        .get(config.index())
                        .copied()
                        .unwrap_or(SlotMask::EMPTY)
                };
                slot_to_tile.resize(slots, UNASSIGNED);
                // Pass 1: give every slot a tile that already holds its first
                // configuration (greedy, slot order, lowest matching tile).
                let mut taken = SlotMask::EMPTY;
                for (slot, desired) in self.desired_configs.iter().enumerate() {
                    let Some(desired) = *desired else { continue };
                    if let Some(tile) = holding(desired).difference(taken).iter().next() {
                        slot_to_tile[slot] = TileId::new(tile);
                        taken.insert(tile);
                    }
                }
                let unassigned = slots - taken.len();
                if unassigned > 0 {
                    // Pass 2: fill the rest with free tiles, evicting tiles
                    // whose content nobody wants first, oldest first. One
                    // packed key per free tile orders exactly like the
                    // classic tuple, and only the `unassigned` smallest keys
                    // are ever sorted.
                    let wanted = self
                        .wanted_configs
                        .iter()
                        .fold(SlotMask::EMPTY, |mask, &config| mask.union(holding(config)));
                    free_keys.clear();
                    free_keys.extend(SlotMask::full(tiles).difference(taken).iter().map(|t| {
                        let tile = TileId::new(t);
                        let holds_protected = contents.config_on(tile).is_some_and(|held| {
                            protect_counts.get(held.index()).is_some_and(|&n| n > 0)
                        });
                        eviction_key(
                            wanted.contains(t),
                            holds_protected,
                            contents.last_used(tile),
                            t,
                        )
                    }));
                    sort_smallest(free_keys, unassigned);
                    let mut free_iter = free_keys.iter().map(|&key| key_tile(key));
                    for tile in slot_to_tile.iter_mut().filter(|t| **t == UNASSIGNED) {
                        *tile = free_iter
                            .next()
                            .expect("slot count was checked against tile count");
                    }
                }
                // Leave every mask empty for the next call.
                for t in 0..tiles {
                    if let Some(held) = contents.config_on(TileId::new(t)) {
                        tile_masks[held.index()].clear();
                    }
                }
            }
        }
        Ok(())
    }

    /// Marks in `scratch.resident` the subtasks that can reuse a
    /// configuration already resident on the physical tile their slot is
    /// mapped to (per `scratch.slot_to_tile`), returning how many there are.
    /// Replicates [`reusable_subtasks`](crate::reusable_subtasks).
    pub fn mark_reusable(&self, contents: &TileContents, scratch: &mut Scratch) -> usize {
        scratch.resident.clear();
        let mut count = 0usize;
        for (slot, first) in self.first_on_slot.iter().enumerate() {
            let Some(first) = first else { continue };
            let Some(required) = self.required[first.index()] else {
                continue;
            };
            if slot < scratch.slot_to_tile.len()
                && contents.config_on(scratch.slot_to_tile[slot]) == Some(required)
            {
                scratch.resident.insert(first.index());
                count += 1;
            }
        }
        count
    }

    /// Clears the residency mask (for policies that cannot exploit reuse).
    pub fn clear_residency(&self, scratch: &mut Scratch) {
        scratch.resident.clear();
    }

    /// Applies the effect of executing this schedule to the tile contents:
    /// every slot's tile ends up holding the configuration of the last DRHW
    /// subtask executed on it, stamped `now`. Replicates
    /// [`apply_schedule_to_contents`](crate::apply_schedule_to_contents)
    /// against `scratch.slot_to_tile`.
    pub fn apply_to_contents(&self, contents: &mut TileContents, scratch: &Scratch, now: Time) {
        for (slot, &tile) in scratch.slot_to_tile.iter().enumerate() {
            if let Some(config) = self.last_config_on_slot[slot] {
                contents.record_load(tile, config, now);
            }
        }
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
        // The pending loads by decreasing criticality weight — the order the
        // initialization phase would load them in.
        let order_a = &mut scratch.order_a;
        order_a.clear();
        order_a.extend(self.by_weight(needs_base));
        let fit = self.window_loads(window).min(order_a.len());
        // Extended residency: what the preloads leave on the tiles.
        let mut aux_resident = scratch.resident;
        for &id in order_a.iter().take(fit) {
            aux_resident.insert(id.index());
        }
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
    /// mask currently in `scratch.resident`. Replicates
    /// [`HybridPrefetch::evaluate`] (runtime decision + body simulation).
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
        let latency = self.platform.reconfig_latency();
        let critical = hybrid.critical();
        let resident = scratch.resident;
        let needs_base = self.needs_load_mask(resident);
        // Assumed residency: the critical set on top of what is resident.
        let mut aux_resident = resident;
        for &id in critical.critical_subtasks() {
            aux_resident.insert(id.index());
        }
        let needs_aux = self.needs_load_mask(aux_resident);

        // Critical subtasks whose residency assumption must be realised by
        // the initialization phase, most critical first; the prefix that fits
        // in the inter-task window is preloaded for free.
        let order_a = &mut scratch.order_a;
        order_a.clear();
        order_a.extend(
            critical
                .critical_subtasks()
                .iter()
                .copied()
                .filter(|id| needs_base.contains(id.index()) && !needs_aux.contains(id.index())),
        );
        let preloaded = self.window_loads(window).min(order_a.len());
        let init_count = order_a.len() - preloaded;
        let init_duration = latency * init_count as u64;

        // Body loads: the stored order minus cancelled loads, plus any load
        // the stored order does not cover, in subtask-id order.
        let order_b = &mut scratch.order_b;
        order_b.clear();
        order_b.extend(
            critical
                .stored_load_order()
                .iter()
                .copied()
                .filter(|id| needs_aux.contains(id.index())),
        );
        for index in needs_aux.iter() {
            let id = SubtaskId::new(index);
            if !order_b.contains(&id) {
                order_b.push(id);
            }
        }
        let cancelled = critical
            .stored_load_order()
            .iter()
            .filter(|id| !needs_aux.contains(id.index()))
            .count();

        // During the body the initialization and preloaded configurations are
        // resident, and nothing starts before the initialization phase ends.
        let mut body_resident = resident;
        for &id in order_a.iter() {
            body_resident.insert(id.index());
        }
        let needs_body = self.needs_load_mask(body_resident);
        validate_order(needs_body, order_b)?;

        let summary = simulate_core(
            self,
            needs_body,
            Strategy::Fixed(order_b),
            init_duration,
            init_duration,
            &mut scratch.timeline,
            None,
        )?;
        Ok(HybridSummary {
            penalty: summary.penalty,
            loads_performed: init_count + scratch.order_b.len(),
            preloaded,
            cancelled,
            trailing_port_idle: summary.trailing_port_idle,
        })
    }
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
/// replacement kernel's per-configuration tile masks and eviction keys, and
/// the per-configuration protection counts the caller maintains between
/// activations.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Residency mask consumed by the evaluation kernels (one bit per
    /// subtask). Fill via [`PreparedSchedule::mark_reusable`] or
    /// [`PreparedSchedule::clear_residency`].
    pub(crate) resident: SlotMask,
    /// Weight-ordered load list / hybrid initialization loads.
    order_a: Vec<SubtaskId>,
    /// Hybrid body load order.
    order_b: Vec<SubtaskId>,
    /// The timing loop's timestamp tables.
    timeline: Timeline,
    /// The slot-to-tile mapping the replacement kernel produces.
    pub(crate) slot_to_tile: Vec<TileId>,
    /// The tiles holding each configuration, indexed by configuration id.
    /// The reuse-aware mapping fills the masks from the tile contents on
    /// entry and empties them again before it returns.
    tile_masks: Vec<SlotMask>,
    /// Packed eviction keys of the free tiles (see [`eviction_key`]).
    free_keys: Vec<u128>,
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
    /// schedules of up to `slots` slots, platforms of up to `tiles` tiles and
    /// configuration ids below `configs` (the size of an
    /// [interned](PreparedSchedule::intern_configs) dictionary).
    pub fn reserve(&mut self, subtasks: usize, slots: usize, tiles: usize, configs: usize) {
        self.order_a.reserve(subtasks);
        self.order_b.reserve(subtasks);
        self.timeline.exec_finish.reserve(subtasks);
        self.timeline.loaded_at.reserve(subtasks);
        self.slot_to_tile.reserve(slots.max(tiles));
        self.free_keys.reserve(tiles);
        if self.tile_masks.len() < configs {
            self.tile_masks.resize(configs, SlotMask::EMPTY);
        }
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

/// Sentinel in `Scratch::slot_to_tile` while the reuse-aware mapping still
/// looks for a slot's tile.
const UNASSIGNED: TileId = TileId::new(usize::MAX);

/// Bits of an eviction key below the last-use stamp: the tile index.
const KEY_TILE_BITS: u32 = 62;

/// Packs the classic eviction tuple `(holds_wanted, holds_protected,
/// last_used, tile)` into one integer whose order is the tuple order: the
/// two flags in the top bits, the last-use stamp in µs below them, the tile
/// index in the low [`KEY_TILE_BITS`] bits. Keys are distinct per tile, so
/// any sort of them is deterministic.
#[inline]
fn eviction_key(holds_wanted: bool, holds_protected: bool, last_used: Time, tile: usize) -> u128 {
    (u128::from(holds_wanted) << 127)
        | (u128::from(holds_protected) << 126)
        | (u128::from(last_used.as_micros()) << KEY_TILE_BITS)
        | tile as u128
}

/// The tile index an [`eviction_key`] was built for.
#[inline]
fn key_tile(key: u128) -> TileId {
    TileId::new((key & ((1 << KEY_TILE_BITS) - 1)) as usize)
}

/// Moves the `k` smallest keys to the front of `keys`, in ascending order;
/// the rest are left unordered.
fn sort_smallest(keys: &mut [u128], k: usize) {
    if k < keys.len() {
        keys.select_nth_unstable(k);
    }
    keys[..k].sort_unstable();
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
    prepared: &PreparedSchedule<'_, W>,
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
    prepared: &PreparedSchedule<'_, W>,
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
    prepared: &PreparedSchedule<'_, W>,
    needs: SlotMask<W>,
    strategy: Strategy<'_>,
    earliest_exec: Time,
    earliest_port: Time,
    timeline: &mut Timeline,
    mut order: Option<&mut Vec<SubtaskId>>,
) -> Result<ExecSummary, PrefetchError> {
    let latency = prepared.platform.reconfig_latency();
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
    use crate::{
        apply_schedule_to_contents, assign_tiles_protecting, plan_preloads, reusable_subtasks,
        ListScheduler, PrefetchProblem, PrefetchScheduler, TileMapping,
    };
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
                // Classic pipeline, as run_iteration used to do it.
                let base =
                    PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
                let (preloaded, _) = plan_preloads(&base.loads_by_weight_desc(), window, latency);
                let mut extended = resident.clone();
                extended.extend(preloaded.iter().copied());
                let problem =
                    PrefetchProblem::with_resident(&g, &schedule, &platform, &extended).unwrap();
                let classic = ListScheduler::new().schedule(&problem).unwrap();

                prepared.clear_residency(&mut scratch);
                for &id in &resident {
                    scratch.resident.insert(id.index());
                }
                let (summary, fit) = prepared.evaluate_inter_task(window, &mut scratch).unwrap();
                assert_eq!(fit, preloaded.len(), "{resident:?} w={window_ms}");
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
    fn replacement_and_reuse_kernels_match_the_classic_modules() {
        let (g, schedule, platform) = fig3();
        let prepared = PreparedSchedule::new(&g, schedule.clone(), &platform).unwrap();
        let mut scratch = Scratch::new();
        let mut contents = TileContents::new(platform.tile_count());
        // A few activations' worth of evolving contents.
        for step in 0..4u64 {
            for policy in [
                ReplacementPolicy::ReuseAware,
                ReplacementPolicy::LeastRecentlyUsed,
                ReplacementPolicy::Direct,
            ] {
                let protected = [ConfigId::new(2), ConfigId::new(7)];
                let classic = assign_tiles_protecting(
                    &g,
                    &schedule,
                    &contents,
                    policy,
                    &protected.into_iter().collect(),
                )
                .unwrap();
                scratch.clear_protection();
                scratch.protect(&protected);
                prepared
                    .assign_tiles_into(&contents, policy, &mut scratch)
                    .unwrap();
                let tiles: Vec<TileId> = (0..classic.slot_count())
                    .map(|s| classic.tile_of(TileSlot::new(s)))
                    .collect();
                assert_eq!(scratch.slot_to_tile(), &tiles[..], "{policy} step {step}");

                let classic_resident = reusable_subtasks(&g, &schedule, &classic, &contents);
                let count = prepared.mark_reusable(&contents, &mut scratch);
                assert_eq!(count, classic_resident.len(), "{policy} step {step}");
                for id in g.ids() {
                    assert_eq!(
                        scratch.resident.contains(id.index()),
                        classic_resident.contains(&id),
                        "{policy} step {step} {id}"
                    );
                }
            }
            // Advance the contents the classic way and via the kernel; both
            // must agree.
            let mapping = assign_tiles_protecting(
                &g,
                &schedule,
                &contents,
                ReplacementPolicy::ReuseAware,
                &BTreeSet::new(),
            )
            .unwrap();
            let mut classic_contents = contents.clone();
            apply_schedule_to_contents(
                &g,
                &schedule,
                &mapping,
                &mut classic_contents,
                Time::from_millis(10 * (step + 1)),
            );
            scratch.clear_protection();
            prepared
                .assign_tiles_into(&contents, ReplacementPolicy::ReuseAware, &mut scratch)
                .unwrap();
            prepared.apply_to_contents(&mut contents, &scratch, Time::from_millis(10 * (step + 1)));
            assert_eq!(contents, classic_contents, "step {step}");
        }
    }

    #[test]
    fn replacement_rejects_contents_wider_than_one_mask_word() {
        let (g, schedule, platform) = fig3();
        let prepared = PreparedSchedule::new(&g, schedule, &platform).unwrap();
        let mut scratch = Scratch::new();
        let widest = SlotMask::<1>::CAPACITY;
        for policy in [
            ReplacementPolicy::ReuseAware,
            ReplacementPolicy::LeastRecentlyUsed,
            ReplacementPolicy::Direct,
        ] {
            prepared
                .assign_tiles_into(&TileContents::new(widest), policy, &mut scratch)
                .unwrap();
            let err = prepared
                .assign_tiles_into(&TileContents::new(widest + 1), policy, &mut scratch)
                .unwrap_err();
            assert_eq!(
                err,
                PrefetchError::TooManyTiles {
                    tiles: widest + 1,
                    capacity: widest
                },
                "{policy}"
            );
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
        assert_eq!(prepared.graph().len(), 4);
        assert_eq!(prepared.schedule().slot_count(), 3);
        assert_eq!(prepared.platform().tile_count(), 3);
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
