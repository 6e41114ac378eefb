//! The "without prefetch" baseline.
//!
//! Configurations are loaded only when the subtask is otherwise ready to run,
//! so every load sits squarely on the critical path. This is the first
//! simulation of §7 (23 % overhead on the multimedia set, 71 % on the 3-D
//! renderer).

use crate::arena::Strategy;
use crate::error::PrefetchError;
use crate::problem::{ExecutionResult, PrefetchProblem};
use crate::scheduler::PrefetchScheduler;

/// Loads each configuration on demand, first-come first-served.
///
/// # Examples
///
/// ```
/// use drhw_model::{ConfigId, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph,
///     TileSlot, Time};
/// use drhw_prefetch::{OnDemandScheduler, PrefetchProblem, PrefetchScheduler};
///
/// # fn main() -> Result<(), drhw_prefetch::PrefetchError> {
/// let mut g = SubtaskGraph::new("single");
/// g.add_subtask(Subtask::new("only", Time::from_millis(10), ConfigId::new(0)));
/// let schedule = InitialSchedule::from_assignment(&g, vec![PeAssignment::Tile(TileSlot::new(0))])?;
/// let platform = Platform::virtex_like(1)?;
/// let problem = PrefetchProblem::new(&g, &schedule, &platform)?;
/// let result = OnDemandScheduler::new().schedule(&problem)?;
/// // The single load cannot be hidden: the task pays the full 4 ms.
/// assert_eq!(result.penalty(), Time::from_millis(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnDemandScheduler;

impl OnDemandScheduler {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        OnDemandScheduler
    }
}

impl PrefetchScheduler for OnDemandScheduler {
    fn name(&self) -> &str {
        "on-demand"
    }

    fn schedule(&self, problem: &PrefetchProblem<'_>) -> Result<ExecutionResult, PrefetchError> {
        problem.simulate(Strategy::OnDemand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ListScheduler;
    use drhw_model::{
        ConfigId, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph, TileSlot, Time,
    };

    fn pipeline(n: usize) -> (SubtaskGraph, InitialSchedule, Platform) {
        let mut g = SubtaskGraph::new("pipe");
        let ids: Vec<_> = (0..n)
            .map(|i| {
                g.add_subtask(Subtask::new(
                    format!("s{i}"),
                    Time::from_millis(10),
                    ConfigId::new(i),
                ))
            })
            .collect();
        for w in ids.windows(2) {
            g.add_dependency(w[0], w[1]).unwrap();
        }
        let assignment = ids
            .iter()
            .map(|id| PeAssignment::Tile(TileSlot::new(id.index())))
            .collect();
        let schedule = InitialSchedule::from_assignment(&g, assignment).unwrap();
        let platform = Platform::virtex_like(n).unwrap();
        (g, schedule, platform)
    }

    #[test]
    fn on_demand_pays_one_latency_per_sequential_subtask() {
        let (g, schedule, platform) = pipeline(4);
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let result = OnDemandScheduler::new().schedule(&problem).unwrap();
        // A pure pipeline on separate tiles: every one of the 4 loads delays
        // the chain by the full 4 ms latency.
        assert_eq!(result.penalty(), Time::from_millis(16));
        assert_eq!(result.overhead_ratio(), 0.4);
    }

    #[test]
    fn prefetch_strictly_improves_a_pipeline() {
        let (g, schedule, platform) = pipeline(6);
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let on_demand = OnDemandScheduler::new().schedule(&problem).unwrap();
        let list = ListScheduler::new().schedule(&problem).unwrap();
        assert!(list.penalty() < on_demand.penalty());
        // With 10 ms executions and 4 ms loads, every later load hides behind
        // the running predecessor: only the first one is exposed.
        assert_eq!(list.penalty(), Time::from_millis(4));
    }
}
