//! The sequential batch run of a prepared plan.
//!
//! [`IterationPlan::run`] scores every requested policy over every
//! configured iteration on the calling thread: the synchronous single-plan
//! entry point for tests, benches and tools. It evaluates one chunk at a
//! time for all the policies at once, in the one multi-policy pass of
//! [`IterationPlan::evaluate_chunk_policies_with`]. Parallel execution
//! lives in one place, the `drhw-engine` worker pool, which claims the same
//! chunks and folds the per-policy results in the same (policy, chunk)
//! order — so both paths produce bit-identical reports.

use drhw_prefetch::PolicyKind;

use crate::error::SimError;
use crate::plan::IterationPlan;
use crate::stats::ChunkStats;
use crate::SimulationReport;

impl IterationPlan {
    /// Runs every requested policy over every configured iteration and
    /// returns one report per policy, in the order given.
    ///
    /// One scratch serves the whole pass; each chunk is evaluated for all
    /// the policies at once with
    /// [`evaluate_chunk_policies_with`](Self::evaluate_chunk_policies_with),
    /// and each policy's chunks are folded in chunk order with
    /// [`ChunkStats::merge`] and [`ChunkStats::finish`] — the fold the
    /// engine's worker pool performs, so an engine job over the same plan
    /// reports the same numbers bit for bit. Apart from the scratch and the
    /// returned reports, the pass performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns the first error in (policy, chunk) order.
    pub fn run(&self, policies: &[PolicyKind]) -> Result<Vec<SimulationReport>, SimError> {
        let mut scratch = self.make_scratch();
        let mut totals = vec![ChunkStats::default(); policies.len()];
        // Only the policies ahead of the earliest failed one still matter:
        // a later policy's error cannot come first in (policy, chunk) order.
        let mut live = policies.len();
        let mut first_error = None;
        for chunk in 0..self.chunk_count() {
            let results = self.evaluate_chunk_policies_with(&policies[..live], chunk, &mut scratch);
            for (position, result) in results.enumerate() {
                match result {
                    Ok(stats) => totals[position].merge(&stats),
                    Err(error) => {
                        first_error = Some(error);
                        live = position;
                        break;
                    }
                }
            }
            if live == 0 {
                break;
            }
        }
        if let Some(error) = first_error {
            return Err(error);
        }
        let tiles = self.platform().tile_count();
        Ok(totals
            .into_iter()
            .zip(policies)
            .map(|(total, &policy)| total.finish(policy, tiles, self.config().iterations))
            .collect())
    }
}

// §7-shape tests: the plan's sequential run is the simulation core every
// driver (engine jobs included) reproduces, so the behavioural contract
// lives here.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PointSelection, ScenarioPolicy};
    use crate::plan::tests::two_task_set;
    use crate::SimulationConfig;
    use drhw_model::{Platform, ScenarioId, TaskId};
    use std::collections::BTreeMap;

    #[test]
    fn reports_cover_the_requested_policies_in_order() {
        let set = two_task_set();
        let platform = Platform::virtex_like(4).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        let wanted = [PolicyKind::Hybrid, PolicyKind::NoPrefetch];
        let reports = plan.run(&wanted).unwrap();
        let kinds: Vec<PolicyKind> = reports.iter().map(|r| r.policy()).collect();
        assert_eq!(kinds, wanted);
    }

    fn simulate(policy: PolicyKind, tiles: usize) -> SimulationReport {
        let set = two_task_set();
        let platform = Platform::virtex_like(tiles).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        plan.run(&[policy]).unwrap().remove(0)
    }

    #[test]
    fn policies_are_ordered_as_the_paper_reports() {
        let tiles = 8;
        let no_prefetch = simulate(PolicyKind::NoPrefetch, tiles);
        let design_time = simulate(PolicyKind::DesignTimeOnly, tiles);
        let run_time = simulate(PolicyKind::RunTime, tiles);
        let inter_task = simulate(PolicyKind::RunTimeInterTask, tiles);
        let hybrid = simulate(PolicyKind::Hybrid, tiles);

        assert!(no_prefetch.overhead_percent() > design_time.overhead_percent());
        assert!(design_time.overhead_percent() >= run_time.overhead_percent());
        assert!(run_time.overhead_percent() >= inter_task.overhead_percent() - 1e-9);
        // Hybrid and run-time+inter-task are close; both remove most overhead.
        assert!(hybrid.overhead_percent() <= design_time.overhead_percent());
        assert!(hybrid.overhead_hidden_vs(&no_prefetch) > 50.0);
    }

    #[test]
    fn reuse_grows_with_the_number_of_tiles() {
        let few = simulate(PolicyKind::RunTime, 3);
        let many = simulate(PolicyKind::RunTime, 8);
        assert!(many.reuse_percent() >= few.reuse_percent());
        // With 8 tiles every configuration of the small set stays resident, so
        // reuse is substantial.
        assert!(
            many.reuse_percent() > 30.0,
            "reuse was {}",
            many.reuse_percent()
        );
    }

    #[test]
    fn run_all_covers_every_policy() {
        let set = two_task_set();
        let platform = Platform::virtex_like(8).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        let reports = plan.run(&PolicyKind::ALL).unwrap();
        assert_eq!(reports.len(), PolicyKind::ALL.len());
        for (report, policy) in reports.iter().zip(PolicyKind::ALL) {
            assert_eq!(report.policy(), policy);
            assert_eq!(report.iterations(), SimulationConfig::quick().iterations);
            assert!(report.activations() > 0);
        }
    }

    #[test]
    fn energy_aware_selection_also_runs() {
        let set = two_task_set();
        let platform = Platform::virtex_like(4).unwrap();
        let config = SimulationConfig::quick()
            .with_point_selection(PointSelection::EnergyAware)
            .with_iterations(20);
        let plan = IterationPlan::new(&set, &platform, config).unwrap();
        let report = plan.run(&[PolicyKind::Hybrid]).unwrap().remove(0);
        assert!(report.activations() > 0);
    }

    #[test]
    fn fully_parallel_falls_back_when_the_platform_is_small() {
        // The fork task needs 3 slots; with only 2 tiles the plan must fall
        // back to a Pareto point that fits.
        let set = two_task_set();
        let platform = Platform::virtex_like(2).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        let report = plan.run(&[PolicyKind::RunTime]).unwrap().remove(0);
        assert!(report.activations() > 0);
    }

    #[test]
    fn correlated_scenarios_use_the_listed_combinations() {
        let set = two_task_set();
        let platform = Platform::virtex_like(8).unwrap();
        let mut combo = BTreeMap::new();
        combo.insert(TaskId::new(0), ScenarioId::new(0));
        combo.insert(TaskId::new(1), ScenarioId::new(0));
        let config =
            SimulationConfig::quick().with_scenario_policy(ScenarioPolicy::Correlated(vec![combo]));
        let plan = IterationPlan::new(&set, &platform, config).unwrap();
        let report = plan.run(&[PolicyKind::Hybrid]).unwrap().remove(0);
        assert!(report.activations() > 0);
    }
}
