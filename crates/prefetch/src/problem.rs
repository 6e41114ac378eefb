//! The reconfiguration-prefetch scheduling problem.
//!
//! > *Given an initial subtask schedule that neglects the reconfiguration
//! > latency, we want to update it including the needed reconfigurations
//! > scheduled in a way that minimizes the overhead they generate.* (§3)
//!
//! [`PrefetchProblem`] bundles everything the heuristics need: the graph, the
//! initial schedule, the platform, the criticality weights, the ideal
//! makespan, and — crucially — *which* subtasks actually need their
//! configuration loaded (the rest are reused). It is a thin façade over a
//! [`PreparedSchedule`] at [`PROBLEM_WORDS`] mask words: every scheduler
//! times its load orders on the arena's timing loop, the same code the
//! simulation's per-activation kernels run.

use std::collections::BTreeSet;

use drhw_model::{
    ConfigId, ExecutionWindow, GraphAnalysis, InitialSchedule, LoadWindow, Platform, SubtaskGraph,
    SubtaskId, TileSlot, Time, TimedSchedule,
};
use serde::{Deserialize, Serialize};

use crate::arena::{simulate_core, validate_order, PreparedSchedule, Strategy, Timeline};
use crate::error::PrefetchError;
use crate::mask::SlotMask;

/// Mask words of the one-shot API: problems of up to `64 × 4 = 256`
/// subtasks, the largest graphs its callers build.
const PROBLEM_WORDS: usize = 4;

/// A set of subtasks of a [`PrefetchProblem`].
pub(crate) type ProblemMask = SlotMask<PROBLEM_WORDS>;

/// One instance of the prefetch scheduling problem.
///
/// The problem is parameterised by the set of subtasks whose configuration is
/// *already resident* when the task starts (`resident`): those subtasks are
/// reused and need no load. Everything else mapped on DRHW needs a load,
/// except subtasks that inherit the configuration left on their slot by an
/// earlier subtask of the same task (intra-task reuse).
///
/// Graphs of up to 256 subtasks are supported.
///
/// # Examples
///
/// ```
/// use drhw_model::{ConfigId, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph,
///     TileSlot, Time};
/// use drhw_prefetch::PrefetchProblem;
///
/// # fn main() -> Result<(), drhw_prefetch::PrefetchError> {
/// let mut g = SubtaskGraph::new("demo");
/// let a = g.add_subtask(Subtask::new("a", Time::from_millis(10), ConfigId::new(0)));
/// let b = g.add_subtask(Subtask::new("b", Time::from_millis(10), ConfigId::new(1)));
/// g.add_dependency(a, b)?;
/// let schedule = InitialSchedule::from_assignment(
///     &g,
///     vec![PeAssignment::Tile(TileSlot::new(0)), PeAssignment::Tile(TileSlot::new(1))],
/// )?;
/// let platform = Platform::virtex_like(2)?;
/// let problem = PrefetchProblem::new(&g, &schedule, &platform)?;
/// assert_eq!(problem.loads().len(), 2);
/// assert_eq!(problem.ideal_makespan(), Time::from_millis(20));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchProblem<'a> {
    /// The caller's schedule. The prepared schedule holds a copy; this
    /// reference is what [`schedule`](Self::schedule) returns, so a
    /// [`SearchCache`](crate::SearchCache) can tell problems over the same
    /// schedule apart from problems over another one by address.
    schedule: &'a InitialSchedule,
    prepared: PreparedSchedule<'a, PROBLEM_WORDS>,
    needs: ProblemMask,
    earliest_exec_start: Time,
    earliest_port_start: Time,
}

impl<'a> PrefetchProblem<'a> {
    /// Creates the worst-case problem in which *no* configuration is resident
    /// (every DRHW subtask must be loaded, modulo intra-task reuse).
    ///
    /// # Errors
    ///
    /// Returns an error if the schedule needs more tile slots than the
    /// platform has tiles, the graph has more than 256 subtasks, or the
    /// model is otherwise invalid.
    pub fn new(
        graph: &'a SubtaskGraph,
        schedule: &'a InitialSchedule,
        platform: &'a Platform,
    ) -> Result<Self, PrefetchError> {
        Self::with_resident(graph, schedule, platform, &BTreeSet::new())
    }

    /// Creates a problem where the configurations of `resident` subtasks are
    /// already loaded on the tiles mapped to their slots when the task starts.
    ///
    /// Residency only helps a subtask if no *different* configuration is
    /// executed earlier on the same slot (a later load would overwrite it);
    /// the constructor applies that rule automatically, so callers may pass
    /// any subset — e.g. the Critical Subtask set — without pre-filtering.
    ///
    /// # Errors
    ///
    /// Returns an error if the schedule needs more tile slots than the
    /// platform has tiles, the graph has more than 256 subtasks, or the
    /// model is otherwise invalid.
    pub fn with_resident(
        graph: &'a SubtaskGraph,
        schedule: &'a InitialSchedule,
        platform: &'a Platform,
        resident: &BTreeSet<SubtaskId>,
    ) -> Result<Self, PrefetchError> {
        let prepared = PreparedSchedule::prepare(graph, schedule.clone(), platform)?;
        let mut problem = PrefetchProblem {
            schedule,
            prepared,
            needs: ProblemMask::EMPTY,
            earliest_exec_start: Time::ZERO,
            earliest_port_start: Time::ZERO,
        };
        problem.set_resident(resident);
        Ok(problem)
    }

    /// Re-targets the problem at another resident set, keeping everything
    /// prepared — what [`with_resident`](Self::with_resident) would build
    /// for `resident`, without preparing the schedule again. Ids outside the
    /// graph are ignored.
    pub(crate) fn set_resident(&mut self, resident: &BTreeSet<SubtaskId>) {
        let n = self.graph().len();
        let resident = resident
            .iter()
            .map(|id| id.index())
            .take_while(|&index| index < n)
            .collect();
        self.needs = self.prepared.needs_load_mask(resident);
    }

    /// Returns a copy of the problem in which no execution may start before
    /// `instant` (used to model the initialization phase of the hybrid
    /// heuristic, which must complete before the stored schedule starts).
    #[must_use]
    pub fn with_earliest_exec_start(mut self, instant: Time) -> Self {
        self.earliest_exec_start = instant;
        self
    }

    /// Returns a copy of the problem in which the reconfiguration port is
    /// busy until `instant` (used when the port is still finishing loads that
    /// belong to a previous task).
    #[must_use]
    pub fn with_earliest_port_start(mut self, instant: Time) -> Self {
        self.earliest_port_start = instant;
        self
    }

    /// The subtask graph being scheduled.
    pub fn graph(&self) -> &'a SubtaskGraph {
        self.prepared.graph()
    }

    /// The reconfiguration-oblivious initial schedule.
    pub fn schedule(&self) -> &'a InitialSchedule {
        self.schedule
    }

    /// The target platform.
    pub fn platform(&self) -> &'a Platform {
        self.prepared.platform()
    }

    /// Precedence-only analysis (criticality weights, ALAP levels).
    pub fn analysis(&self) -> &GraphAnalysis {
        self.prepared.analysis()
    }

    /// The paper's criticality weight of a subtask (its bottom level).
    pub fn weight(&self, id: SubtaskId) -> Time {
        self.prepared.weight(id.index())
    }

    /// Makespan of the initial schedule with zero reconfiguration latency.
    pub fn ideal_makespan(&self) -> Time {
        self.prepared.ideal_makespan()
    }

    /// Earliest instant any execution may start.
    pub fn earliest_exec_start(&self) -> Time {
        self.earliest_exec_start
    }

    /// Earliest instant the reconfiguration port may start a load.
    pub fn earliest_port_start(&self) -> Time {
        self.earliest_port_start
    }

    /// Whether a subtask requires a configuration load in this problem.
    pub fn needs_load(&self, id: SubtaskId) -> bool {
        id.index() < self.graph().len() && self.needs.contains(id.index())
    }

    /// The set of subtasks that require a load.
    pub(crate) fn needs_mask(&self) -> ProblemMask {
        self.needs
    }

    /// The subtasks that require a load, in subtask-id order.
    pub fn loads(&self) -> Vec<SubtaskId> {
        self.needs.iter().map(SubtaskId::new).collect()
    }

    /// The subtasks that require a load, ordered by decreasing criticality
    /// weight (the priority order of the list scheduler and of the hybrid
    /// initialization phase).
    pub fn loads_by_weight_desc(&self) -> Vec<SubtaskId> {
        self.prepared.by_weight(self.needs).collect()
    }

    /// Number of loads in the problem.
    pub fn load_count(&self) -> usize {
        self.needs.len()
    }

    /// The abstract tile slot a subtask is mapped on, if it runs on DRHW.
    pub fn slot_of(&self, id: SubtaskId) -> Option<TileSlot> {
        self.schedule.assignment(id).tile_slot()
    }

    /// The configuration a subtask requires, if it runs on DRHW.
    pub fn config_of(&self, id: SubtaskId) -> Option<ConfigId> {
        self.graph().required_config(id)
    }

    /// Times the problem's loads under `strategy` and records the full
    /// result: execution and load windows, port order and per-subtask load
    /// delays.
    ///
    /// # Errors
    ///
    /// Returns [`PrefetchError::InvalidLoadOrder`] if a fixed order is not a
    /// permutation of the problem's loads, and
    /// [`PrefetchError::DeadlockedOrder`] if it cannot be executed.
    pub(crate) fn simulate(
        &self,
        strategy: Strategy<'_>,
    ) -> Result<ExecutionResult, PrefetchError> {
        if let Strategy::Fixed(order) = strategy {
            validate_order(self.needs, order)?;
        }
        let mut timeline = Timeline::default();
        let mut order = Vec::with_capacity(self.needs.len());
        simulate_core(
            &self.prepared,
            self.needs,
            strategy,
            self.earliest_exec_start,
            self.earliest_port_start,
            &mut timeline,
            Some(&mut order),
        )?;
        Ok(self.record(&timeline, order))
    }

    /// Times `order` with only the loads of `needs` costing anything — the
    /// problem's own loads, or a subset of them for the relaxations branch &
    /// bound bounds its prefixes with — and returns the penalty. The load
    /// completion instants are left in `timeline.loaded_at`.
    ///
    /// # Errors
    ///
    /// As [`simulate`](Self::simulate), with `needs` in place of the
    /// problem's loads.
    pub(crate) fn time_order(
        &self,
        needs: ProblemMask,
        order: &[SubtaskId],
        timeline: &mut Timeline,
    ) -> Result<Time, PrefetchError> {
        validate_order(needs, order)?;
        let summary = simulate_core(
            &self.prepared,
            needs,
            Strategy::Fixed(order),
            self.earliest_exec_start,
            self.earliest_port_start,
            timeline,
            None,
        )?;
        Ok(summary.penalty)
    }

    /// Assembles the result of a finished loop from its timeline and port
    /// order: each execution started its duration before it finished, each
    /// load one latency before it completed, and a subtask's load delay is
    /// how long it started after its dependencies allowed.
    fn record(&self, timeline: &Timeline, order: Vec<SubtaskId>) -> ExecutionResult {
        let graph = self.graph();
        let latency = self.platform().reconfig_latency();
        let starts: Vec<Time> = graph
            .ids()
            .map(|id| timeline.exec_finish[id.index()] - graph.subtask(id).exec_time())
            .collect();
        let executions = graph
            .ids()
            .map(|id| ExecutionWindow {
                subtask: id,
                pe: self.schedule.assignment(id),
                start: starts[id.index()],
                finish: timeline.exec_finish[id.index()],
            })
            .collect();
        let loads = order
            .iter()
            .map(|&id| {
                let finish = timeline.loaded_at[id.index()];
                LoadWindow {
                    subtask: id,
                    slot: self
                        .slot_of(id)
                        .expect("only DRHW subtasks ever need a load"),
                    start: finish - latency,
                    finish,
                }
            })
            .collect();
        let load_delays = graph
            .ids()
            .map(|id| {
                let ready = self.prepared.deps_ready(
                    &timeline.exec_finish,
                    self.earliest_exec_start,
                    id.index(),
                );
                starts[id.index()].saturating_sub(ready)
            })
            .collect();
        ExecutionResult::new(
            TimedSchedule::new(executions, loads),
            order,
            load_delays,
            self.ideal_makespan(),
        )
    }
}

/// The outcome of timing a schedule under one load order / policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionResult {
    timed: TimedSchedule,
    order: Vec<SubtaskId>,
    load_delays: Vec<Time>,
    penalty: Time,
    ideal_makespan: Time,
}

impl ExecutionResult {
    pub(crate) fn new(
        timed: TimedSchedule,
        order: Vec<SubtaskId>,
        load_delays: Vec<Time>,
        ideal_makespan: Time,
    ) -> Self {
        let penalty = timed.execution_makespan().saturating_sub(ideal_makespan);
        ExecutionResult {
            timed,
            order,
            load_delays,
            penalty,
            ideal_makespan,
        }
    }

    /// The fully timed schedule (execution and load windows).
    pub fn timed(&self) -> &TimedSchedule {
        &self.timed
    }

    /// The order in which the reconfiguration port performed the loads.
    pub fn load_order(&self) -> &[SubtaskId] {
        &self.order
    }

    /// The stall directly attributable to waiting for a subtask's own load
    /// (zero for subtasks that were resident or whose load finished early).
    pub fn load_delay(&self, id: SubtaskId) -> Time {
        self.load_delays[id.index()]
    }

    /// Subtasks whose own load delayed their execution start.
    pub fn delayed_subtasks(&self) -> Vec<SubtaskId> {
        self.load_delays
            .iter()
            .enumerate()
            .filter(|(_, &d)| !d.is_zero())
            .map(|(i, _)| SubtaskId::new(i))
            .collect()
    }

    /// The reconfiguration penalty: how much later the executions finish
    /// compared to the ideal (zero-latency) makespan.
    pub fn penalty(&self) -> Time {
        self.penalty
    }

    /// The ideal makespan this result is measured against.
    pub fn ideal_makespan(&self) -> Time {
        self.ideal_makespan
    }

    /// Overhead as a fraction of the ideal makespan (e.g. `0.23` for +23 %).
    pub fn overhead_ratio(&self) -> f64 {
        self.penalty.ratio_of(self.ideal_makespan)
    }

    /// Duration of the trailing window during which the reconfiguration port
    /// is idle while the task is still executing. The inter-task optimization
    /// uses this window to start the initialization phase of the next task.
    pub fn trailing_port_idle(&self) -> Time {
        self.timed
            .execution_makespan()
            .saturating_sub(self.port_busy_until())
    }

    /// Instant until which the reconfiguration port is busy.
    pub fn port_busy_until(&self) -> Time {
        self.timed.port_idle_from()
    }

    /// Number of loads performed.
    pub fn load_count(&self) -> usize {
        self.timed.load_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3;
    use drhw_model::{PeAssignment, Subtask};

    fn graph_two_slots() -> (SubtaskGraph, Vec<SubtaskId>, InitialSchedule) {
        // slot0: a (cfg0) -> c (cfg0) ; slot1: b (cfg1)
        let mut g = SubtaskGraph::new("p");
        let a = g.add_subtask(Subtask::new("a", Time::from_millis(10), ConfigId::new(0)));
        let b = g.add_subtask(Subtask::new("b", Time::from_millis(10), ConfigId::new(1)));
        let c = g.add_subtask(Subtask::new("c", Time::from_millis(10), ConfigId::new(0)));
        g.add_dependency(a, b).unwrap();
        g.add_dependency(b, c).unwrap();
        let schedule = InitialSchedule::from_assignment(
            &g,
            vec![
                PeAssignment::Tile(TileSlot::new(0)),
                PeAssignment::Tile(TileSlot::new(1)),
                PeAssignment::Tile(TileSlot::new(0)),
            ],
        )
        .unwrap();
        (g, vec![a, b, c], schedule)
    }

    #[test]
    fn worst_case_problem_loads_everything_except_intra_task_reuse() {
        let (g, ids, schedule) = graph_two_slots();
        let platform = Platform::virtex_like(2).unwrap();
        let p = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        // c shares slot0 and cfg0 with a, so it is intra-task reused.
        assert!(p.needs_load(ids[0]));
        assert!(p.needs_load(ids[1]));
        assert!(!p.needs_load(ids[2]));
        assert_eq!(p.load_count(), 2);
        assert_eq!(p.loads(), vec![ids[0], ids[1]]);
    }

    #[test]
    fn resident_first_subtask_is_reused() {
        let (g, ids, schedule) = graph_two_slots();
        let platform = Platform::virtex_like(2).unwrap();
        let resident: BTreeSet<_> = [ids[0]].into_iter().collect();
        let p = PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
        assert!(!p.needs_load(ids[0]));
        assert!(p.needs_load(ids[1]));
        assert!(!p.needs_load(ids[2]));
    }

    #[test]
    fn residency_of_later_subtask_requires_untouched_slot() {
        // slot0 executes a (cfg0) then c (cfg2): marking c resident cannot help
        // because loading cfg0 for a overwrites whatever was on the tile.
        let mut g = SubtaskGraph::new("overwrite");
        let a = g.add_subtask(Subtask::new("a", Time::from_millis(5), ConfigId::new(0)));
        let c = g.add_subtask(Subtask::new("c", Time::from_millis(5), ConfigId::new(2)));
        g.add_dependency(a, c).unwrap();
        let schedule = InitialSchedule::from_assignment(
            &g,
            vec![
                PeAssignment::Tile(TileSlot::new(0)),
                PeAssignment::Tile(TileSlot::new(0)),
            ],
        )
        .unwrap();
        let platform = Platform::virtex_like(1).unwrap();
        let resident: BTreeSet<_> = [c].into_iter().collect();
        let p = PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
        assert!(p.needs_load(a));
        assert!(
            p.needs_load(c),
            "resident config would have been overwritten"
        );
        // Marking *a* resident instead lets c still require its own load.
        let resident: BTreeSet<_> = [a].into_iter().collect();
        let p = PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
        assert!(!p.needs_load(a));
        assert!(p.needs_load(c));
    }

    #[test]
    fn loads_by_weight_puts_critical_subtasks_first() {
        let (g, ids, schedule) = graph_two_slots();
        let platform = Platform::virtex_like(2).unwrap();
        let p = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        // a has weight 30 (whole chain), b has 20.
        assert_eq!(p.loads_by_weight_desc(), vec![ids[0], ids[1]]);
        assert_eq!(p.weight(ids[0]), Time::from_millis(30));
    }

    #[test]
    fn too_few_tiles_is_an_error() {
        let (g, _, schedule) = graph_two_slots();
        let platform = Platform::virtex_like(1).unwrap();
        let err = PrefetchProblem::new(&g, &schedule, &platform).unwrap_err();
        assert_eq!(
            err,
            PrefetchError::NotEnoughTiles {
                required: 2,
                available: 1
            }
        );
    }

    #[test]
    fn builder_style_offsets_are_recorded() {
        let (g, _, schedule) = graph_two_slots();
        let platform = Platform::virtex_like(2).unwrap();
        let p = PrefetchProblem::new(&g, &schedule, &platform)
            .unwrap()
            .with_earliest_exec_start(Time::from_millis(8))
            .with_earliest_port_start(Time::from_millis(2));
        assert_eq!(p.earliest_exec_start(), Time::from_millis(8));
        assert_eq!(p.earliest_port_start(), Time::from_millis(2));
    }

    #[test]
    fn ideal_makespan_matches_initial_schedule() {
        let (g, _, schedule) = graph_two_slots();
        let platform = Platform::virtex_like(2).unwrap();
        let p = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        assert_eq!(p.ideal_makespan(), Time::from_millis(30));
        assert_eq!(p.slot_of(SubtaskId::new(0)), Some(TileSlot::new(0)));
        assert_eq!(p.config_of(SubtaskId::new(2)), Some(ConfigId::new(0)));
    }

    #[test]
    fn on_demand_pays_for_every_load_on_the_critical_path() {
        let (g, schedule, platform) = fig3();
        let ids: Vec<SubtaskId> = g.ids().collect();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let result = problem.simulate(Strategy::OnDemand).unwrap();
        // Ideal: s1 0-10, s2 10-22, s3 10-16, s4 16-24 (s4 shares slot0 with s1).
        assert_eq!(problem.ideal_makespan(), Time::from_millis(24));
        // On demand the first load starts at t=0 and every execution start
        // waits for its own 4 ms load; penalty must be strictly positive.
        assert!(result.penalty() > Time::ZERO);
        assert_eq!(result.load_count(), 4);
        // s1 is directly delayed by its own load: nothing else can run first.
        assert_eq!(result.load_delay(ids[0]), Time::from_millis(4));
    }

    #[test]
    fn list_prefetch_hides_all_but_the_first_load() {
        let (g, schedule, platform) = fig3();
        let ids: Vec<SubtaskId> = g.ids().collect();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let result = problem.simulate(Strategy::ListByWeight).unwrap();
        // Only the very first load (subtask 1) cannot be hidden: 4 ms penalty,
        // exactly the "applying prefetch" schedule of Fig. 3(c).
        assert_eq!(result.penalty(), Time::from_millis(4));
        assert_eq!(result.load_delay(ids[0]), Time::from_millis(4));
        assert_eq!(result.load_delay(ids[1]), Time::ZERO);
        assert_eq!(result.load_delay(ids[2]), Time::ZERO);
        assert_eq!(result.load_delay(ids[3]), Time::ZERO);
        assert!(result.penalty() <= problem.simulate(Strategy::OnDemand).unwrap().penalty());
    }

    #[test]
    fn fixed_order_matches_list_result_for_the_same_order() {
        let (g, schedule, platform) = fig3();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let list = problem.simulate(Strategy::ListByWeight).unwrap();
        let replay = problem
            .simulate(Strategy::Fixed(list.load_order()))
            .unwrap();
        assert_eq!(replay.penalty(), list.penalty());
        assert_eq!(replay.timed().makespan(), list.timed().makespan());
    }

    #[test]
    fn fixed_order_rejects_non_permutations() {
        let (g, schedule, platform) = fig3();
        let ids: Vec<SubtaskId> = g.ids().collect();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let err = problem.simulate(Strategy::Fixed(&[ids[0]])).unwrap_err();
        assert!(matches!(err, PrefetchError::InvalidLoadOrder { .. }));
        let err = problem
            .simulate(Strategy::Fixed(&[ids[0], ids[1], ids[2], ids[2]]))
            .unwrap_err();
        assert!(matches!(err, PrefetchError::InvalidLoadOrder { .. }));
    }

    #[test]
    fn full_residency_leaves_only_the_unavoidable_slot_reload() {
        let (g, schedule, platform) = fig3();
        let ids: Vec<SubtaskId> = g.ids().collect();
        let resident: BTreeSet<SubtaskId> = g.ids().collect();
        let problem = PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
        // Subtask 4 shares slot0 with subtask 1 but uses a different
        // configuration, so its load cannot be removed by residency.
        assert_eq!(problem.load_count(), 1);
        assert_eq!(problem.loads(), vec![ids[3]]);
        let result = problem.simulate(Strategy::ListByWeight).unwrap();
        // That single load hides behind the execution of subtask 3.
        assert_eq!(result.penalty(), Time::ZERO);
        assert_eq!(
            result.timed().execution_makespan(),
            problem.ideal_makespan()
        );
        assert!(result.trailing_port_idle() > Time::ZERO);
    }

    #[test]
    fn no_loads_means_no_penalty() {
        // A graph whose slots each host a single configuration can be made
        // entirely resident, and then nothing is loaded at all.
        let mut g = SubtaskGraph::new("resident");
        let a = g.add_subtask(Subtask::new("a", Time::from_millis(5), ConfigId::new(0)));
        let b = g.add_subtask(Subtask::new("b", Time::from_millis(7), ConfigId::new(1)));
        g.add_dependency(a, b).unwrap();
        let schedule = InitialSchedule::from_assignment(
            &g,
            vec![
                PeAssignment::Tile(TileSlot::new(0)),
                PeAssignment::Tile(TileSlot::new(1)),
            ],
        )
        .unwrap();
        let platform = Platform::virtex_like(2).unwrap();
        let resident: BTreeSet<SubtaskId> = g.ids().collect();
        let problem = PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
        assert_eq!(problem.load_count(), 0);
        let result = problem.simulate(Strategy::ListByWeight).unwrap();
        assert_eq!(result.penalty(), Time::ZERO);
        assert_eq!(result.timed().makespan(), problem.ideal_makespan());
        assert_eq!(result.trailing_port_idle(), problem.ideal_makespan());
    }

    #[test]
    fn zero_latency_platform_never_pays_overhead() {
        let (g, schedule, _) = fig3();
        let platform = Platform::new(3, Time::ZERO).unwrap();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        for strategy in [Strategy::OnDemand, Strategy::ListByWeight] {
            let result = problem.simulate(strategy).unwrap();
            assert_eq!(result.penalty(), Time::ZERO);
        }
    }

    #[test]
    fn earliest_exec_start_delays_the_whole_body() {
        let (g, schedule, platform) = fig3();
        let problem = PrefetchProblem::new(&g, &schedule, &platform)
            .unwrap()
            .with_earliest_exec_start(Time::from_millis(100));
        let result = problem.simulate(Strategy::ListByWeight).unwrap();
        assert!(
            result.timed().execution_makespan()
                >= problem.ideal_makespan() + Time::from_millis(100)
        );
    }

    #[test]
    fn trailing_idle_window_is_reported() {
        let (g, schedule, platform) = fig3();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let result = problem.simulate(Strategy::ListByWeight).unwrap();
        // The port performs 4 loads of 4 ms; executions run for ~34 ms, so the
        // port is idle for a while at the end of the task.
        assert!(result.trailing_port_idle() > Time::ZERO);
        assert_eq!(
            result.trailing_port_idle(),
            result.timed().execution_makespan() - result.port_busy_until()
        );
    }

    #[test]
    fn head_of_line_blocking_order_still_completes_when_feasible() {
        // Loading the second slot-0 occupant (s4) before s3 is legal but
        // wasteful: its tile only frees after s1 finishes, so the order
        // [s1, s2, s4, s3] makes the port wait. The loop must not deadlock
        // on it.
        let (g, schedule, platform) = fig3();
        let ids: Vec<SubtaskId> = g.ids().collect();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let order = vec![ids[0], ids[1], ids[3], ids[2]];
        let result = problem.simulate(Strategy::Fixed(&order)).unwrap();
        assert!(result.penalty() >= Time::from_millis(4));
    }

    #[test]
    fn graphs_above_the_facade_width_are_rejected() {
        let mut g = SubtaskGraph::new("too-wide");
        let n = ProblemMask::CAPACITY + 1;
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
        let platform = Platform::virtex_like(1).unwrap();
        let err = PrefetchProblem::new(&g, &schedule, &platform).unwrap_err();
        assert_eq!(
            err,
            PrefetchError::ExceedsMaskWidth {
                subtasks: 257,
                capacity: 256
            }
        );
    }
}
