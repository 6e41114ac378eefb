//! Aggregated statistics of a simulation run.

use drhw_model::Time;
use drhw_prefetch::PolicyKind;
use serde::{Deserialize, Serialize};

/// The aggregate outcome of simulating one policy over many iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    policy: PolicyKind,
    tile_count: usize,
    iterations: usize,
    activations: usize,
    ideal_total: Time,
    penalty_total: Time,
    loads_performed: usize,
    loads_cancelled: usize,
    drhw_subtasks_executed: usize,
    reused_subtasks: usize,
    reconfiguration_energy_mj: f64,
}

/// What one simulated iteration contributed to the aggregate statistics.
///
/// Produced by [`IterationPlan::evaluate`](crate::IterationPlan::evaluate);
/// summing the outcomes of every iteration (in iteration order) yields exactly
/// the [`SimulationReport`] of the whole run, which is how the engine's
/// worker pool reassembles bit-identical reports from work done on many
/// threads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IterationOutcome {
    pub(crate) activations: usize,
    pub(crate) ideal: Time,
    pub(crate) penalty: Time,
    pub(crate) loads_performed: usize,
    pub(crate) loads_cancelled: usize,
    pub(crate) drhw_subtasks_executed: usize,
    pub(crate) reused_subtasks: usize,
    pub(crate) reconfiguration_energy_mj: f64,
}

impl IterationOutcome {
    /// Number of task activations this iteration simulated.
    pub fn activations(&self) -> usize {
        self.activations
    }

    /// Total ideal (zero-latency) execution time of the iteration.
    pub fn ideal(&self) -> Time {
        self.ideal
    }

    /// Reconfiguration penalty the iteration left exposed.
    pub fn penalty(&self) -> Time {
        self.penalty
    }

    /// Number of configuration loads performed.
    pub fn loads_performed(&self) -> usize {
        self.loads_performed
    }

    /// Number of stored loads the hybrid policy cancelled thanks to reuse.
    pub fn loads_cancelled(&self) -> usize {
        self.loads_cancelled
    }

    /// Number of DRHW subtask executions this iteration simulated.
    pub fn drhw_subtasks_executed(&self) -> usize {
        self.drhw_subtasks_executed
    }

    /// Number of subtask executions that reused a resident configuration.
    pub fn reused_subtasks(&self) -> usize {
        self.reused_subtasks
    }

    /// Energy spent on this iteration's reconfigurations, in millijoule.
    pub fn reconfiguration_energy_mj(&self) -> f64 {
        self.reconfiguration_energy_mj
    }
}

/// Running statistics of part of a simulation run — the unit the parallel
/// engines fold.
///
/// Produced per policy by
/// [`IterationPlan::evaluate_chunk_policies_with`](crate::IterationPlan::evaluate_chunk_policies_with),
/// one per requested policy of a chunk, and by its one-policy case
/// [`IterationPlan::evaluate_chunk_with`](crate::IterationPlan::evaluate_chunk_with);
/// both give a policy the same statistics. Merging one policy's chunks of a
/// run **in chunk order** and calling
/// [`finish`](Self::finish) reproduces the aggregate [`SimulationReport`]
/// bit for bit (the ordering matters only for the floating-point energy
/// sum; every other field is an integer). This is the contract both
/// [`IterationPlan::run`](crate::IterationPlan::run) and the `drhw-engine`
/// job executor build their determinism guarantee on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkStats {
    pub(crate) activations: usize,
    pub(crate) ideal_total: Time,
    pub(crate) penalty_total: Time,
    pub(crate) loads_performed: usize,
    pub(crate) loads_cancelled: usize,
    pub(crate) drhw_subtasks_executed: usize,
    pub(crate) reused_subtasks: usize,
    pub(crate) reconfiguration_energy_mj: f64,
}

impl ChunkStats {
    /// Adds one iteration's contribution. Must be called in iteration order so
    /// the floating-point energy sum is reproduced bit-for-bit regardless of
    /// how iterations were distributed over threads.
    pub fn absorb(&mut self, outcome: &IterationOutcome) {
        self.activations += outcome.activations;
        self.ideal_total += outcome.ideal;
        self.penalty_total += outcome.penalty;
        self.loads_performed += outcome.loads_performed;
        self.loads_cancelled += outcome.loads_cancelled;
        self.drhw_subtasks_executed += outcome.drhw_subtasks_executed;
        self.reused_subtasks += outcome.reused_subtasks;
        self.reconfiguration_energy_mj += outcome.reconfiguration_energy_mj;
    }

    /// Folds another accumulator (a chunk's subtotal) into this one. Like
    /// [`absorb`](Self::absorb), callers fold chunks in chunk order.
    pub fn merge(&mut self, other: &ChunkStats) {
        self.activations += other.activations;
        self.ideal_total += other.ideal_total;
        self.penalty_total += other.penalty_total;
        self.loads_performed += other.loads_performed;
        self.loads_cancelled += other.loads_cancelled;
        self.drhw_subtasks_executed += other.drhw_subtasks_executed;
        self.reused_subtasks += other.reused_subtasks;
        self.reconfiguration_energy_mj += other.reconfiguration_energy_mj;
    }

    /// Number of task activations folded in so far.
    pub fn activations(&self) -> usize {
        self.activations
    }

    /// Seals the fold into the aggregate report of a run of `iterations`
    /// iterations on a `tile_count`-tile platform.
    pub fn finish(
        self,
        policy: PolicyKind,
        tile_count: usize,
        iterations: usize,
    ) -> SimulationReport {
        SimulationReport {
            policy,
            tile_count,
            iterations,
            activations: self.activations,
            ideal_total: self.ideal_total,
            penalty_total: self.penalty_total,
            loads_performed: self.loads_performed,
            loads_cancelled: self.loads_cancelled,
            drhw_subtasks_executed: self.drhw_subtasks_executed,
            reused_subtasks: self.reused_subtasks,
            reconfiguration_energy_mj: self.reconfiguration_energy_mj,
        }
    }
}

impl SimulationReport {
    /// The policy this report describes.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Number of DRHW tiles of the simulated platform.
    pub fn tile_count(&self) -> usize {
        self.tile_count
    }

    /// Number of iterations simulated.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of task activations simulated.
    pub fn activations(&self) -> usize {
        self.activations
    }

    /// Total ideal (zero-latency) execution time of every activation.
    pub fn ideal_total(&self) -> Time {
        self.ideal_total
    }

    /// Total reconfiguration penalty added on top of the ideal time.
    pub fn penalty_total(&self) -> Time {
        self.penalty_total
    }

    /// The headline metric of the paper: reconfiguration overhead as a
    /// percentage of the ideal execution time.
    pub fn overhead_percent(&self) -> f64 {
        self.penalty_total.ratio_of(self.ideal_total) * 100.0
    }

    /// Number of configuration loads actually performed.
    pub fn loads_performed(&self) -> usize {
        self.loads_performed
    }

    /// Number of stored loads cancelled thanks to reuse (only meaningful for
    /// the hybrid policy, which is the one that cancels pre-scheduled loads).
    pub fn loads_cancelled(&self) -> usize {
        self.loads_cancelled
    }

    /// Number of DRHW subtask executions simulated.
    pub fn drhw_subtasks_executed(&self) -> usize {
        self.drhw_subtasks_executed
    }

    /// Number of subtask executions that reused a resident configuration.
    pub fn reused_subtasks(&self) -> usize {
        self.reused_subtasks
    }

    /// Percentage of DRHW subtask executions that reused a resident
    /// configuration (the paper quotes "less than 20 % ... for 8 tiles").
    pub fn reuse_percent(&self) -> f64 {
        if self.drhw_subtasks_executed == 0 {
            0.0
        } else {
            self.reused_subtasks as f64 / self.drhw_subtasks_executed as f64 * 100.0
        }
    }

    /// Total energy spent on reconfigurations, in millijoule.
    pub fn reconfiguration_energy_mj(&self) -> f64 {
        self.reconfiguration_energy_mj
    }

    /// Average number of loads per activation.
    pub fn loads_per_activation(&self) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            self.loads_performed as f64 / self.activations as f64
        }
    }

    /// Fraction of the initial (no-prefetch) overhead that this report's
    /// policy removed, given the no-prefetch baseline report.
    pub fn overhead_hidden_vs(&self, baseline: &SimulationReport) -> f64 {
        let base = baseline.overhead_percent();
        if base <= 0.0 {
            0.0
        } else {
            (1.0 - self.overhead_percent() / base) * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(policy: PolicyKind, ideal_ms: u64, penalty_ms: u64) -> SimulationReport {
        let acc = ChunkStats {
            activations: 10,
            ideal_total: Time::from_millis(ideal_ms),
            penalty_total: Time::from_millis(penalty_ms),
            loads_performed: 40,
            loads_cancelled: 5,
            drhw_subtasks_executed: 50,
            reused_subtasks: 10,
            reconfiguration_energy_mj: 80.0,
        };
        acc.finish(policy, 8, 100)
    }

    #[test]
    fn overhead_percent_is_penalty_over_ideal() {
        let r = report(PolicyKind::NoPrefetch, 1000, 230);
        assert!((r.overhead_percent() - 23.0).abs() < 1e-9);
        assert_eq!(r.policy(), PolicyKind::NoPrefetch);
        assert_eq!(r.tile_count(), 8);
        assert_eq!(r.iterations(), 100);
        assert_eq!(r.activations(), 10);
    }

    #[test]
    fn reuse_and_load_ratios() {
        let r = report(PolicyKind::RunTime, 1000, 30);
        assert!((r.reuse_percent() - 20.0).abs() < 1e-9);
        assert!((r.loads_per_activation() - 4.0).abs() < 1e-9);
        assert_eq!(r.loads_cancelled(), 5);
        assert_eq!(r.drhw_subtasks_executed(), 50);
        assert_eq!(r.reused_subtasks(), 10);
        assert!((r.reconfiguration_energy_mj() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn hidden_overhead_compares_to_the_baseline() {
        let baseline = report(PolicyKind::NoPrefetch, 1000, 230);
        let hybrid = report(PolicyKind::Hybrid, 1000, 10);
        let hidden = hybrid.overhead_hidden_vs(&baseline);
        assert!(hidden > 95.0 && hidden < 96.0);
        // A zero baseline yields zero (avoid division by zero).
        let zero = report(PolicyKind::NoPrefetch, 1000, 0);
        assert_eq!(hybrid.overhead_hidden_vs(&zero), 0.0);
    }

    #[test]
    fn empty_accumulator_produces_zeroes() {
        let r = ChunkStats::default().finish(PolicyKind::Hybrid, 4, 1);
        assert_eq!(r.overhead_percent(), 0.0);
        assert_eq!(r.reuse_percent(), 0.0);
        assert_eq!(r.loads_per_activation(), 0.0);
        assert_eq!(r.ideal_total(), Time::ZERO);
        assert_eq!(r.penalty_total(), Time::ZERO);
        assert_eq!(r.loads_performed(), 0);
    }
}
