//! Configuration of the dynamic multi-iteration simulation.

use std::collections::BTreeMap;

use drhw_model::{ScenarioId, TaskId};
use drhw_prefetch::ReplacementPolicy;
use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// How the initial schedule of each activation is chosen from the design-time
/// artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PointSelection {
    /// Map every DRHW subtask on its own tile slot, as in the ICN platform
    /// model and the paper's Table 1 characterisation (default). Falls back to
    /// the fastest Pareto point that fits when the platform is too small.
    #[default]
    FullyParallel,
    /// Always pick the fastest Pareto point that fits on the platform.
    Fastest,
    /// TCM behaviour: the most energy-efficient Pareto point that meets the
    /// task's deadline (ablation).
    EnergyAware,
}

/// How scenarios are chosen for each activation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ScenarioPolicy {
    /// Each task picks one of its scenarios independently, weighted by the
    /// scenario probabilities (the multimedia experiments).
    #[default]
    Independent,
    /// One of the listed inter-task scenario combinations is drawn per
    /// iteration and every task follows it (the Pocket GL experiment, where
    /// inter-task dependencies leave only 20 feasible combinations).
    Correlated(Vec<BTreeMap<TaskId, ScenarioId>>),
}

/// Parameters of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Number of iterations (the paper simulates 1000).
    pub iterations: usize,
    /// Seed of the pseudo-random generator driving the workload dynamism.
    /// Every iteration derives its own sub-seed from this master seed, so any
    /// (policy, iteration) pair can be evaluated independently.
    pub seed: u64,
    /// Probability that each task of the set is activated in an iteration
    /// ("the applications executed during each iteration vary randomly").
    pub task_inclusion_probability: f64,
    /// Replacement policy used to map slots onto physical tiles.
    pub replacement: ReplacementPolicy,
    /// How initial schedules are selected.
    pub point_selection: PointSelection,
    /// How scenarios are selected.
    pub scenario_policy: ScenarioPolicy,
    /// Default size of a `drhw-engine` worker pool built with this
    /// configuration; the simulation itself never reads it. `0` (the
    /// default) leaves the choice to the engine: the `DRHW_SIM_THREADS`
    /// environment variable if set, else the machine's available
    /// parallelism. The thread count never changes the results: reports are
    /// bit-identical for any value.
    pub threads: usize,
    /// Number of consecutive iterations evaluated as one unit of parallel
    /// work. Tile contents and the inter-task idle window persist across the
    /// iterations of a chunk (the paper's "configurations remain on the tiles"
    /// behaviour) and reset at chunk boundaries, which is what makes chunks
    /// independent and therefore schedulable on any thread. The boundaries are
    /// fixed by this value alone, so results do not depend on the thread
    /// count. Must be at least 1.
    pub chunk_size: usize,
}

/// Default number of iterations per independent chunk of work.
pub const DEFAULT_CHUNK_SIZE: usize = 32;

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            iterations: 1000,
            seed: 2005,
            task_inclusion_probability: 0.75,
            replacement: ReplacementPolicy::ReuseAware,
            point_selection: PointSelection::FullyParallel,
            scenario_policy: ScenarioPolicy::Independent,
            threads: 0,
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl SimulationConfig {
    /// A configuration suitable for quick tests: few iterations, fixed seed.
    pub fn quick() -> Self {
        SimulationConfig {
            iterations: 50,
            ..Default::default()
        }
    }

    /// Checks the configuration for obvious mistakes.
    ///
    /// # Errors
    ///
    /// Returns an error if the iteration count is zero or the inclusion
    /// probability is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.iterations == 0 {
            return Err(SimError::NoIterations);
        }
        if !(0.0..=1.0).contains(&self.task_inclusion_probability)
            || !self.task_inclusion_probability.is_finite()
        {
            return Err(SimError::InvalidInclusionProbability {
                permille: (self.task_inclusion_probability * 1000.0) as u32,
            });
        }
        if self.chunk_size == 0 {
            return Err(SimError::InvalidChunkSize);
        }
        if matches!(&self.scenario_policy, ScenarioPolicy::Correlated(combos) if combos.is_empty())
        {
            return Err(SimError::NoScenarioCombinations);
        }
        Ok(())
    }

    /// Returns a copy with a different iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Returns a copy with a different point-selection strategy.
    #[must_use]
    pub fn with_point_selection(mut self, point_selection: PointSelection) -> Self {
        self.point_selection = point_selection;
        self
    }

    /// Returns a copy with a correlated scenario policy.
    #[must_use]
    pub fn with_scenario_policy(mut self, scenario_policy: ScenarioPolicy) -> Self {
        self.scenario_policy = scenario_policy;
        self
    }

    /// Returns a copy with an explicit engine worker-pool size (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with a different chunk size.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper_setup() {
        let c = SimulationConfig::default();
        assert_eq!(c.iterations, 1000);
        assert_eq!(c.replacement, ReplacementPolicy::ReuseAware);
        assert_eq!(c.point_selection, PointSelection::FullyParallel);
        assert_eq!(c.scenario_policy, ScenarioPolicy::Independent);
        assert_eq!(c.threads, 0);
        assert_eq!(c.chunk_size, DEFAULT_CHUNK_SIZE);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_compose() {
        let c = SimulationConfig::quick()
            .with_iterations(10)
            .with_seed(7)
            .with_replacement(ReplacementPolicy::LeastRecentlyUsed)
            .with_point_selection(PointSelection::Fastest);
        assert_eq!(c.iterations, 10);
        assert_eq!(c.seed, 7);
        assert_eq!(c.replacement, ReplacementPolicy::LeastRecentlyUsed);
        assert_eq!(c.point_selection, PointSelection::Fastest);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert_eq!(
            SimulationConfig::default()
                .with_iterations(0)
                .validate()
                .unwrap_err(),
            SimError::NoIterations
        );
        let c = SimulationConfig {
            task_inclusion_probability: 1.5,
            ..Default::default()
        };
        assert!(matches!(
            c.validate().unwrap_err(),
            SimError::InvalidInclusionProbability { .. }
        ));
        assert_eq!(
            SimulationConfig::default()
                .with_chunk_size(0)
                .validate()
                .unwrap_err(),
            SimError::InvalidChunkSize
        );
        assert_eq!(
            SimulationConfig::default()
                .with_scenario_policy(ScenarioPolicy::Correlated(Vec::new()))
                .validate()
                .unwrap_err(),
            SimError::NoScenarioCombinations
        );
    }
}
