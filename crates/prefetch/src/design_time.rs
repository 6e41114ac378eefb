//! Design-time-only prefetch (the second baseline of §7).
//!
//! An optimal prefetch schedule is computed offline under the worst-case
//! assumption that *every* DRHW subtask must be loaded. Because the schedule
//! is frozen at design time, run-time knowledge about resident configurations
//! cannot be exploited: "it is not possible to reuse previously loaded
//! subtasks since at design-time there is not enough information available".
//! This policy reduced the multimedia overhead from 23 % to 7 % in the paper,
//! and from 71 % to 25 % for the 3-D renderer.

use drhw_model::{InitialSchedule, Platform, SubtaskGraph, SubtaskId, Time};
use serde::{Deserialize, Serialize};

use crate::arena::Strategy;
use crate::branch_bound::{BranchBoundScheduler, SearchCache};
use crate::error::PrefetchError;
use crate::problem::{ExecutionResult, PrefetchProblem};
use crate::scheduler::PrefetchScheduler;

/// The artifact produced by the design-time-only prefetch flow: a fixed load
/// order and the penalty it pays on every execution of the task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignTimePrefetch {
    load_order: Vec<SubtaskId>,
    penalty: Time,
    ideal_makespan: Time,
}

impl DesignTimePrefetch {
    /// Computes the design-time prefetch schedule for one initial schedule,
    /// using branch & bound (with the list-scheduler fallback for large
    /// graphs) under the all-loads assumption.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent (e.g. more slots than
    /// tiles).
    pub fn compute(
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
    ) -> Result<Self, PrefetchError> {
        Self::compute_with(graph, schedule, platform, &BranchBoundScheduler::new())
    }

    /// Same as [`DesignTimePrefetch::compute`], with an explicit scheduler
    /// (useful for ablations).
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
        let problem = PrefetchProblem::new(graph, schedule, platform)?;
        let result = scheduler.schedule(&problem)?;
        Ok(DesignTimePrefetch {
            load_order: result.load_order().to_vec(),
            penalty: result.penalty(),
            ideal_makespan: problem.ideal_makespan(),
        })
    }

    /// Like [`compute`](Self::compute), reusing a caller-provided search
    /// cache. The all-loads problem solved here is exactly the first round of
    /// the critical-set loop over the same schedule, so sharing one cache
    /// between this call and
    /// [`HybridPrefetch::compute_assisted`](crate::HybridPrefetch::compute_assisted)
    /// lets the loop replay this search's prefix evaluations instead of
    /// redoing them. Results are bit-identical to [`compute`](Self::compute).
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent.
    pub fn compute_assisted(
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
        cache: &mut SearchCache,
    ) -> Result<Self, PrefetchError> {
        let problem = PrefetchProblem::new(graph, schedule, platform)?;
        let result = BranchBoundScheduler::new().schedule_assisted(&problem, cache, None)?;
        Ok(DesignTimePrefetch {
            load_order: result.load_order().to_vec(),
            penalty: result.penalty(),
            ideal_makespan: problem.ideal_makespan(),
        })
    }

    /// Reconstructs an artifact from its stored fields (the on-disk plan
    /// cache). The caller is responsible for the fields describing a real
    /// design-time schedule — nothing is re-derived or validated here.
    pub fn from_parts(load_order: Vec<SubtaskId>, penalty: Time, ideal_makespan: Time) -> Self {
        DesignTimePrefetch {
            load_order,
            penalty,
            ideal_makespan,
        }
    }

    /// The frozen load order executed on every run of the task.
    pub fn load_order(&self) -> &[SubtaskId] {
        &self.load_order
    }

    /// The reconfiguration penalty this policy pays on every execution,
    /// regardless of which configurations happen to be resident.
    pub fn penalty(&self) -> Time {
        self.penalty
    }

    /// The ideal makespan of the underlying schedule.
    pub fn ideal_makespan(&self) -> Time {
        self.ideal_makespan
    }

    /// The overhead ratio paid on every execution (penalty / ideal makespan).
    pub fn overhead_ratio(&self) -> f64 {
        self.penalty.ratio_of(self.ideal_makespan)
    }

    /// Number of loads the frozen schedule performs on every execution.
    pub fn load_count(&self) -> usize {
        self.load_order.len()
    }

    /// Replays the frozen schedule against a problem (for inspection).
    ///
    /// # Errors
    ///
    /// Returns an error if `problem` does not require exactly the loads of the
    /// frozen order (the policy never adapts, so the caller must pass the
    /// worst-case problem this artifact was computed from).
    pub fn replay(&self, problem: &PrefetchProblem<'_>) -> Result<ExecutionResult, PrefetchError> {
        problem.simulate(Strategy::Fixed(&self.load_order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ListScheduler, OnDemandScheduler};
    use drhw_model::{ConfigId, PeAssignment, Subtask, TileSlot};

    fn two_stage() -> (SubtaskGraph, InitialSchedule, Platform) {
        let mut g = SubtaskGraph::new("two-stage");
        let a = g.add_subtask(Subtask::new("a", Time::from_millis(12), ConfigId::new(0)));
        let b = g.add_subtask(Subtask::new("b", Time::from_millis(8), ConfigId::new(1)));
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
        (g, schedule, platform)
    }

    #[test]
    fn compute_produces_the_optimal_fixed_order() {
        let (g, schedule, platform) = two_stage();
        let dt = DesignTimePrefetch::compute(&g, &schedule, &platform).unwrap();
        // Only the first load is exposed: the 4 ms of load "a".
        assert_eq!(dt.penalty(), Time::from_millis(4));
        assert_eq!(dt.ideal_makespan(), Time::from_millis(20));
        assert!((dt.overhead_ratio() - 0.2).abs() < 1e-9);
        assert_eq!(dt.load_count(), 2);
        assert_eq!(dt.load_order()[0].index(), 0);
    }

    #[test]
    fn penalty_is_constant_even_when_reuse_would_be_possible() {
        // The design-time policy cannot benefit from residency: the API makes
        // that explicit by exposing a single stored penalty.
        let (g, schedule, platform) = two_stage();
        let dt = DesignTimePrefetch::compute(&g, &schedule, &platform).unwrap();
        let before = dt.penalty();
        // Nothing about the artifact changes between executions.
        assert_eq!(dt.penalty(), before);
    }

    #[test]
    fn compute_with_alternative_schedulers() {
        let (g, schedule, platform) = two_stage();
        let with_list =
            DesignTimePrefetch::compute_with(&g, &schedule, &platform, &ListScheduler::new())
                .unwrap();
        let with_od =
            DesignTimePrefetch::compute_with(&g, &schedule, &platform, &OnDemandScheduler::new())
                .unwrap();
        assert!(with_list.penalty() <= with_od.penalty());
    }

    #[test]
    fn replay_reproduces_the_stored_penalty() {
        let (g, schedule, platform) = two_stage();
        let dt = DesignTimePrefetch::compute(&g, &schedule, &platform).unwrap();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let replayed = dt.replay(&problem).unwrap();
        assert_eq!(replayed.penalty(), dt.penalty());
    }
}
