//! The run-time list-scheduling prefetch heuristic (ref [7]).
//!
//! Whenever the reconfiguration port becomes free, the heuristic starts the
//! most critical load among the ones whose tile is already available, where
//! criticality is the ALAP-based weight of [`GraphAnalysis::weight`]. The
//! dominant cost is ordering the loads by weight, giving the `N·log N`
//! complexity the paper quotes; the heuristic produced near-optimal schedules
//! in the authors' earlier work and serves as the "run-time" curve of
//! Figures 6 and 7.
//!
//! [`GraphAnalysis::weight`]: drhw_model::GraphAnalysis::weight

use crate::arena::Strategy;
use crate::error::PrefetchError;
use crate::problem::{ExecutionResult, PrefetchProblem};
use crate::scheduler::PrefetchScheduler;

/// Weight-driven list scheduler for configuration loads.
///
/// # Examples
///
/// ```
/// use drhw_model::{ConfigId, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph,
///     TileSlot, Time};
/// use drhw_prefetch::{ListScheduler, PrefetchProblem, PrefetchScheduler};
///
/// # fn main() -> Result<(), drhw_prefetch::PrefetchError> {
/// let mut g = SubtaskGraph::new("fork");
/// let root = g.add_subtask(Subtask::new("root", Time::from_millis(20), ConfigId::new(0)));
/// let left = g.add_subtask(Subtask::new("left", Time::from_millis(10), ConfigId::new(1)));
/// let right = g.add_subtask(Subtask::new("right", Time::from_millis(10), ConfigId::new(2)));
/// g.add_dependency(root, left)?;
/// g.add_dependency(root, right)?;
/// let schedule = InitialSchedule::from_assignment(
///     &g,
///     vec![
///         PeAssignment::Tile(TileSlot::new(0)),
///         PeAssignment::Tile(TileSlot::new(1)),
///         PeAssignment::Tile(TileSlot::new(2)),
///     ],
/// )?;
/// let platform = Platform::virtex_like(3)?;
/// let problem = PrefetchProblem::new(&g, &schedule, &platform)?;
/// let result = ListScheduler::new().schedule(&problem)?;
/// // The two fork loads hide completely behind the 20 ms root execution.
/// assert_eq!(result.penalty(), Time::from_millis(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListScheduler;

impl ListScheduler {
    /// Creates the list scheduler.
    pub fn new() -> Self {
        ListScheduler
    }
}

impl PrefetchScheduler for ListScheduler {
    fn name(&self) -> &str {
        "list-prefetch"
    }

    fn schedule(&self, problem: &PrefetchProblem<'_>) -> Result<ExecutionResult, PrefetchError> {
        problem.simulate(Strategy::ListByWeight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnDemandScheduler;
    use drhw_model::{
        ConfigId, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph, SubtaskId,
        TileSlot, Time,
    };
    use std::collections::BTreeSet;

    /// Wide fork: one root feeding `width` independent children on their own tiles.
    fn fork(width: usize, child_ms: u64) -> (SubtaskGraph, InitialSchedule, Platform) {
        let mut g = SubtaskGraph::new("fork");
        let root = g.add_subtask(Subtask::new(
            "root",
            Time::from_millis(30),
            ConfigId::new(0),
        ));
        let children: Vec<_> = (0..width)
            .map(|i| {
                g.add_subtask(Subtask::new(
                    format!("c{i}"),
                    Time::from_millis(child_ms),
                    ConfigId::new(i + 1),
                ))
            })
            .collect();
        for &c in &children {
            g.add_dependency(root, c).unwrap();
        }
        let mut assignment = vec![PeAssignment::Tile(TileSlot::new(0))];
        assignment.extend((0..width).map(|i| PeAssignment::Tile(TileSlot::new(i + 1))));
        let schedule = InitialSchedule::from_assignment(&g, assignment).unwrap();
        let platform = Platform::virtex_like(width + 1).unwrap();
        (g, schedule, platform)
    }

    #[test]
    fn loads_are_ordered_by_decreasing_weight() {
        let (g, schedule, platform) = fork(3, 10);
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let result = ListScheduler::new().schedule(&problem).unwrap();
        let weights: Vec<Time> = result
            .load_order()
            .iter()
            .map(|&id| problem.weight(id))
            .collect();
        let mut sorted = weights.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(
            weights, sorted,
            "port order must follow decreasing criticality"
        );
        assert_eq!(result.load_order()[0], SubtaskId::new(0));
    }

    #[test]
    fn hides_every_load_that_fits_behind_the_root() {
        // Root runs 30 ms; 3 loads of 4 ms fit easily behind it.
        let (g, schedule, platform) = fork(3, 10);
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let result = ListScheduler::new().schedule(&problem).unwrap();
        assert_eq!(result.penalty(), Time::from_millis(4));
        assert_eq!(result.delayed_subtasks(), vec![SubtaskId::new(0)]);
    }

    #[test]
    fn exposes_loads_when_the_port_saturates() {
        // 10 children but the root only runs 30 ms: 10 loads of 4 ms = 40 ms of
        // port work cannot all hide behind it, so some children stall.
        let (g, schedule, platform) = fork(10, 5);
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let result = ListScheduler::new().schedule(&problem).unwrap();
        assert!(result.penalty() > Time::from_millis(4));
        let on_demand = OnDemandScheduler::new().schedule(&problem).unwrap();
        assert!(result.penalty() <= on_demand.penalty());
    }

    #[test]
    fn reusing_the_root_removes_the_last_exposed_load() {
        let (g, schedule, platform) = fork(3, 10);
        let resident: BTreeSet<SubtaskId> = [SubtaskId::new(0)].into_iter().collect();
        let problem = PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
        let result = ListScheduler::new().schedule(&problem).unwrap();
        assert_eq!(result.penalty(), Time::ZERO);
        assert_eq!(result.load_count(), 3);
    }
}
