//! The hybrid design-time/run-time prefetch heuristic — the paper's
//! contribution.
//!
//! * **Design-time phase** ([`HybridPrefetch::compute`]): for one initial
//!   schedule, determine the Critical Subtask set and store the optimal load
//!   order for the non-critical subtasks (see [`CriticalSetAnalysis`]).
//! * **Run-time phase** ([`HybridPrefetch::runtime_decision`] /
//!   [`HybridPrefetch::evaluate`]): once the reuse module reports which
//!   configurations are resident, load the missing critical subtasks during a
//!   short *initialization phase* (most critical first), cancel the stored
//!   loads whose configuration turned out to be resident, and start the stored
//!   schedule. No scheduling computation happens at run time — only set
//!   membership tests — which is what makes the heuristic scale.

use std::collections::BTreeSet;

use drhw_model::{InitialSchedule, Platform, SubtaskGraph, SubtaskId, Time};
use serde::{Deserialize, Serialize};

use crate::arena::Strategy;
use crate::critical::CriticalSetAnalysis;
use crate::error::PrefetchError;
use crate::inter_task::InterTaskWindow;
use crate::problem::{ExecutionResult, PrefetchProblem};
use crate::scheduler::PrefetchScheduler;

/// The design-time artifact of the hybrid heuristic for one initial schedule.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeSet;
/// use drhw_model::{ConfigId, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph,
///     TileSlot, Time};
/// use drhw_prefetch::{HybridPrefetch, InterTaskWindow};
///
/// # fn main() -> Result<(), drhw_prefetch::PrefetchError> {
/// let mut g = SubtaskGraph::new("pair");
/// let a = g.add_subtask(Subtask::new("a", Time::from_millis(12), ConfigId::new(0)));
/// let b = g.add_subtask(Subtask::new("b", Time::from_millis(8), ConfigId::new(1)));
/// g.add_dependency(a, b)?;
/// let schedule = InitialSchedule::from_assignment(
///     &g,
///     vec![PeAssignment::Tile(TileSlot::new(0)), PeAssignment::Tile(TileSlot::new(1))],
/// )?;
/// let platform = Platform::virtex_like(2)?;
/// let hybrid = HybridPrefetch::compute(&g, &schedule, &platform)?;
/// // Only the entry subtask is critical; with nothing resident and no
/// // inter-task window the task pays exactly its initialization phase.
/// let outcome = hybrid.evaluate(&g, &schedule, &platform, &BTreeSet::new(),
///     InterTaskWindow::empty())?;
/// assert_eq!(outcome.penalty(), Time::from_millis(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridPrefetch {
    critical: CriticalSetAnalysis,
}

/// The decision the run-time phase takes for one task activation. Computing it
/// involves only set operations — no scheduling — which is the entire point of
/// the hybrid split.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HybridRuntimeDecision {
    /// Critical subtasks that must be loaded during the initialization phase,
    /// most critical first. Loads already covered by the inter-task window are
    /// excluded.
    pub init_loads: Vec<SubtaskId>,
    /// Critical loads hidden entirely inside the previous task's idle window.
    pub preloaded: Vec<SubtaskId>,
    /// Loads of the stored design-time schedule that must still be performed.
    pub body_loads: Vec<SubtaskId>,
    /// Stored loads cancelled because their configuration is resident.
    pub cancelled_loads: Vec<SubtaskId>,
}

impl HybridRuntimeDecision {
    /// Total number of loads the reconfiguration port will perform.
    pub fn load_count(&self) -> usize {
        self.init_loads.len() + self.preloaded.len() + self.body_loads.len()
    }
}

/// What actually happens on the platform when a task runs under the hybrid
/// heuristic with a given residency state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridOutcome {
    decision: HybridRuntimeDecision,
    init_duration: Time,
    result: ExecutionResult,
}

impl HybridOutcome {
    /// The run-time decision that produced this outcome.
    pub fn decision(&self) -> &HybridRuntimeDecision {
        &self.decision
    }

    /// Duration of the (non-hidden part of the) initialization phase.
    pub fn init_duration(&self) -> Time {
        self.init_duration
    }

    /// The timed execution of the task body.
    pub fn result(&self) -> &ExecutionResult {
        &self.result
    }

    /// Reconfiguration penalty of this activation (initialization phase plus
    /// any residual delay inside the body).
    pub fn penalty(&self) -> Time {
        self.result.penalty()
    }

    /// Overhead relative to the ideal makespan of the task.
    pub fn overhead_ratio(&self) -> f64 {
        self.result.overhead_ratio()
    }

    /// Loads actually performed for this activation (initialization + body,
    /// excluding loads hidden in the previous task's window).
    pub fn loads_performed(&self) -> usize {
        self.decision.init_loads.len() + self.decision.body_loads.len()
    }

    /// Idle window the port offers at the end of this task, available for the
    /// initialization phase of the next one.
    pub fn trailing_window(&self) -> InterTaskWindow {
        InterTaskWindow::new(self.result.trailing_port_idle())
    }
}

impl HybridPrefetch {
    /// Runs the design-time phase with the default scheduler (branch & bound
    /// with list-scheduler fallback).
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent.
    pub fn compute(
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
    ) -> Result<Self, PrefetchError> {
        Ok(HybridPrefetch {
            critical: CriticalSetAnalysis::compute(graph, schedule, platform)?,
        })
    }

    /// Runs the design-time phase with an explicit scheduler (ablation hook).
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent.
    pub fn compute_with(
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
        scheduler: &dyn PrefetchScheduler,
    ) -> Result<Self, PrefetchError> {
        Ok(HybridPrefetch {
            critical: CriticalSetAnalysis::compute_with(graph, schedule, platform, scheduler)?,
        })
    }

    /// Like [`compute`](Self::compute), reusing a caller-provided search
    /// cache (see
    /// [`CriticalSetAnalysis::compute_with_cache`]). Sharing the cache with
    /// the design-time search of the same schedule makes the first
    /// critical-set round nearly free; results are bit-identical to
    /// [`compute`](Self::compute).
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent.
    pub fn compute_assisted(
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
        cache: &mut crate::branch_bound::SearchCache,
    ) -> Result<Self, PrefetchError> {
        Ok(HybridPrefetch {
            critical: CriticalSetAnalysis::compute_with_cache(
                graph,
                schedule,
                platform,
                &crate::branch_bound::BranchBoundScheduler::new(),
                cache,
            )?,
        })
    }

    /// Wraps an already-computed (e.g. disk-restored) critical-set analysis.
    pub fn from_critical(critical: CriticalSetAnalysis) -> Self {
        HybridPrefetch { critical }
    }

    /// The critical-subtask analysis stored at design time.
    pub fn critical(&self) -> &CriticalSetAnalysis {
        &self.critical
    }

    /// The cheap run-time phase: given the set of subtasks whose configuration
    /// is resident (reported by the reuse module) and the idle window left by
    /// the previous task, decide which loads to perform.
    ///
    /// This performs no scheduling — only membership tests against the stored
    /// artifact — and is what a real run-time scheduler would execute.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent with the stored artifact.
    pub fn runtime_decision(
        &self,
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
        resident: &BTreeSet<SubtaskId>,
        window: InterTaskWindow,
    ) -> Result<HybridRuntimeDecision, PrefetchError> {
        let mut problem = PrefetchProblem::with_resident(graph, schedule, platform, resident)?;
        Ok(self.decide(&mut problem, resident, window))
    }

    /// The run-time decision for `resident`, given the problem built for it.
    /// Leaves `problem` re-targeted at the assumed residency: `resident`
    /// plus the critical set.
    fn decide(
        &self,
        problem: &mut PrefetchProblem<'_>,
        resident: &BTreeSet<SubtaskId>,
        window: InterTaskWindow,
    ) -> HybridRuntimeDecision {
        let critical = self.critical.critical_subtasks();
        let needed_now: Vec<SubtaskId> = critical
            .iter()
            .copied()
            .filter(|&id| problem.needs_load(id))
            .collect();
        let mut assumed_resident = resident.clone();
        assumed_resident.extend(critical.iter().copied());
        problem.set_resident(&assumed_resident);

        // Critical subtasks whose residency assumption must be realised by the
        // initialization phase: they need a load now, and pre-loading them
        // actually helps (their slot is untouched before they run).
        let mut init: Vec<SubtaskId> = needed_now
            .into_iter()
            .filter(|&id| !problem.needs_load(id))
            .collect();
        // Loads already hidden by the previous task's idle window.
        let fit = window
            .whole_loads(problem.platform().reconfig_latency())
            .min(init.len());
        let preloaded: Vec<SubtaskId> = init.drain(..fit).collect();

        // Body loads: the stored order, minus the loads whose configuration is
        // resident (cancelled), plus any critical subtask whose reuse cannot
        // be realised (its slot is overwritten earlier in the task).
        let stored = self.critical.stored_load_order();
        let mut body_loads: Vec<SubtaskId> = stored
            .iter()
            .copied()
            .filter(|&id| problem.needs_load(id))
            .collect();
        for id in problem.loads() {
            if !body_loads.contains(&id) {
                body_loads.push(id);
            }
        }
        let cancelled_loads: Vec<SubtaskId> = stored
            .iter()
            .copied()
            .filter(|&id| !problem.needs_load(id))
            .collect();

        HybridRuntimeDecision {
            init_loads: init,
            preloaded,
            body_loads,
            cancelled_loads,
        }
    }

    /// Simulates one activation of the task under the hybrid heuristic.
    ///
    /// The initialization phase (the init loads that did not fit in the
    /// inter-task window) runs first and delays the start of the stored
    /// design-time schedule; the body then executes with the surviving loads
    /// in their stored order.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent with the stored artifact.
    pub fn evaluate(
        &self,
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
        resident: &BTreeSet<SubtaskId>,
        window: InterTaskWindow,
    ) -> Result<HybridOutcome, PrefetchError> {
        let mut problem = PrefetchProblem::with_resident(graph, schedule, platform, resident)?;
        let decision = self.decide(&mut problem, resident, window);
        let latency = platform.reconfig_latency();
        let init_duration = latency * decision.init_loads.len() as u64;

        // During the body, the initialization loads (and the preloaded ones)
        // are resident; the executions may not start before the
        // initialization phase completes.
        let mut body_resident = resident.clone();
        body_resident.extend(decision.init_loads.iter().copied());
        body_resident.extend(decision.preloaded.iter().copied());
        problem.set_resident(&body_resident);
        let result = problem
            .with_earliest_exec_start(init_duration)
            .with_earliest_port_start(init_duration)
            .simulate(Strategy::Fixed(&decision.body_loads))?;
        Ok(HybridOutcome {
            decision,
            init_duration,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3;
    use crate::{BranchBoundScheduler, ListScheduler, PrefetchScheduler};

    #[test]
    fn cold_start_pays_exactly_the_initialization_phase() {
        let (g, schedule, platform) = fig3();
        let hybrid = HybridPrefetch::compute(&g, &schedule, &platform).unwrap();
        let outcome = hybrid
            .evaluate(
                &g,
                &schedule,
                &platform,
                &BTreeSet::new(),
                InterTaskWindow::empty(),
            )
            .unwrap();
        // One critical subtask, nothing resident, no window: 4 ms init phase
        // and a zero-penalty body.
        assert_eq!(outcome.init_duration(), Time::from_millis(4));
        assert_eq!(outcome.penalty(), Time::from_millis(4));
        assert_eq!(outcome.decision().init_loads, vec![SubtaskId::new(0)]);
        assert_eq!(outcome.decision().body_loads.len(), 3);
        assert!(outcome.decision().cancelled_loads.is_empty());
        assert_eq!(outcome.loads_performed(), 4);
    }

    #[test]
    fn reused_critical_subtask_removes_the_initialization_phase() {
        let (g, schedule, platform) = fig3();
        let hybrid = HybridPrefetch::compute(&g, &schedule, &platform).unwrap();
        let resident: BTreeSet<SubtaskId> = [SubtaskId::new(0)].into_iter().collect();
        let outcome = hybrid
            .evaluate(
                &g,
                &schedule,
                &platform,
                &resident,
                InterTaskWindow::empty(),
            )
            .unwrap();
        assert_eq!(outcome.init_duration(), Time::ZERO);
        assert_eq!(outcome.penalty(), Time::ZERO);
        assert_eq!(outcome.loads_performed(), 3);
    }

    #[test]
    fn inter_task_window_hides_the_initialization_phase() {
        let (g, schedule, platform) = fig3();
        let hybrid = HybridPrefetch::compute(&g, &schedule, &platform).unwrap();
        let outcome = hybrid
            .evaluate(
                &g,
                &schedule,
                &platform,
                &BTreeSet::new(),
                InterTaskWindow::new(Time::from_millis(4)),
            )
            .unwrap();
        assert_eq!(outcome.init_duration(), Time::ZERO);
        assert_eq!(outcome.penalty(), Time::ZERO);
        assert_eq!(outcome.decision().preloaded, vec![SubtaskId::new(0)]);
        // Loads hidden in the previous window still count as port work done
        // for this task, but not as part of this activation's own loads.
        assert_eq!(outcome.loads_performed(), 3);
        assert_eq!(outcome.decision().load_count(), 4);
    }

    #[test]
    fn cancelled_loads_follow_residency_of_non_critical_subtasks() {
        let (g, schedule, platform) = fig3();
        let hybrid = HybridPrefetch::compute(&g, &schedule, &platform).unwrap();
        // Subtask 3 (non-critical, first on its slot) is resident: its stored
        // load is cancelled without touching the rest of the schedule.
        let resident: BTreeSet<SubtaskId> = [SubtaskId::new(2)].into_iter().collect();
        let decision = hybrid
            .runtime_decision(
                &g,
                &schedule,
                &platform,
                &resident,
                InterTaskWindow::empty(),
            )
            .unwrap();
        assert_eq!(decision.cancelled_loads, vec![SubtaskId::new(2)]);
        assert_eq!(decision.init_loads, vec![SubtaskId::new(0)]);
        assert_eq!(decision.body_loads.len(), 2);
        let outcome = hybrid
            .evaluate(
                &g,
                &schedule,
                &platform,
                &resident,
                InterTaskWindow::empty(),
            )
            .unwrap();
        // The body stays penalty-free; only the init phase is paid.
        assert_eq!(outcome.penalty(), Time::from_millis(4));
    }

    #[test]
    fn everything_resident_cancels_every_avoidable_load() {
        let (g, schedule, platform) = fig3();
        let hybrid = HybridPrefetch::compute(&g, &schedule, &platform).unwrap();
        let resident: BTreeSet<SubtaskId> = g.ids().collect();
        let outcome = hybrid
            .evaluate(
                &g,
                &schedule,
                &platform,
                &resident,
                InterTaskWindow::empty(),
            )
            .unwrap();
        // Subtask 4 shares its slot with subtask 1 under a different
        // configuration, so its load is unavoidable — but it hides behind the
        // executions, leaving zero penalty and no initialization phase.
        assert_eq!(outcome.penalty(), Time::ZERO);
        assert_eq!(outcome.init_duration(), Time::ZERO);
        assert_eq!(outcome.loads_performed(), 1);
        assert_eq!(outcome.decision().cancelled_loads.len(), 2);
    }

    #[test]
    fn hybrid_is_never_better_than_the_pure_run_time_heuristic_on_a_cold_start() {
        // The paper observes the pure run-time approach is slightly better or
        // equal: it can overlap the critical loads with the body instead of
        // serialising them in an initialization phase.
        let (g, schedule, platform) = fig3();
        let hybrid = HybridPrefetch::compute(&g, &schedule, &platform).unwrap();
        let outcome = hybrid
            .evaluate(
                &g,
                &schedule,
                &platform,
                &BTreeSet::new(),
                InterTaskWindow::empty(),
            )
            .unwrap();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let run_time = ListScheduler::new().schedule(&problem).unwrap();
        assert!(outcome.penalty() >= run_time.penalty());
    }

    #[test]
    fn trailing_window_is_exposed_for_the_next_task() {
        let (g, schedule, platform) = fig3();
        let hybrid = HybridPrefetch::compute(&g, &schedule, &platform).unwrap();
        let outcome = hybrid
            .evaluate(
                &g,
                &schedule,
                &platform,
                &BTreeSet::new(),
                InterTaskWindow::empty(),
            )
            .unwrap();
        assert!(outcome.trailing_window().remaining() > Time::ZERO);
    }

    #[test]
    fn compute_with_list_scheduler_matches_branch_and_bound_here() {
        let (g, schedule, platform) = fig3();
        let a =
            HybridPrefetch::compute_with(&g, &schedule, &platform, &ListScheduler::new()).unwrap();
        let b =
            HybridPrefetch::compute_with(&g, &schedule, &platform, &BranchBoundScheduler::new())
                .unwrap();
        assert_eq!(
            a.critical().critical_subtasks(),
            b.critical().critical_subtasks()
        );
    }

    #[test]
    fn runtime_decision_does_not_reschedule_stored_loads() {
        // The body loads must appear in exactly the stored order (possibly
        // with cancelled entries removed) — the run-time phase never reorders.
        let (g, schedule, platform) = fig3();
        let hybrid = HybridPrefetch::compute(&g, &schedule, &platform).unwrap();
        let stored = hybrid.critical().stored_load_order().to_vec();
        let resident: BTreeSet<SubtaskId> = [SubtaskId::new(2)].into_iter().collect();
        let decision = hybrid
            .runtime_decision(
                &g,
                &schedule,
                &platform,
                &resident,
                InterTaskWindow::empty(),
            )
            .unwrap();
        let positions: Vec<usize> = decision
            .body_loads
            .iter()
            .map(|id| stored.iter().position(|s| s == id).unwrap())
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted);
    }
}
