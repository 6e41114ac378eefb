//! Critical Subtask (CS) computation — the design-time core of the hybrid
//! heuristic (Fig. 4 of the paper).
//!
//! The CS subset of a scheduled graph is the minimal set of DRHW subtasks such
//! that, if every CS member is reused and every remaining subtask is loaded,
//! the prefetch heuristic hides the latency of *all* those remaining loads.
//! The selection loop mirrors the paper's pseudo code:
//!
//! ```text
//! CS := {};
//! while compute_penalty(CS) != 0 do
//!     S  := subtasks that generate delays;
//!     S1 := MAX_weight(S);
//!     add S1 to CS;
//! ```
//!
//! `compute_penalty(CS)` runs the configured prefetch scheduler (branch &
//! bound for small graphs, the list heuristic for large ones) assuming the CS
//! members are resident.

use std::collections::BTreeSet;

use drhw_model::{InitialSchedule, Platform, SubtaskGraph, SubtaskId, Time};
use serde::{Deserialize, Serialize};

use crate::branch_bound::{BranchBoundScheduler, SearchCache};
use crate::error::PrefetchError;
use crate::problem::{ExecutionResult, PrefetchProblem};
use crate::scheduler::PrefetchScheduler;

/// The result of the critical-subtask selection for one initial schedule.
///
/// Besides the CS set itself, the analysis stores the load order of the final
/// design-time schedule (the one computed under the "CS reused, everything
/// else loaded" assumption) and the penalty of that schedule — zero whenever
/// the assumption can be realised, which is the common case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalSetAnalysis {
    critical: Vec<SubtaskId>,
    stored_order: Vec<SubtaskId>,
    stored_penalty: Time,
    iterations: usize,
    drhw_subtasks: usize,
}

impl CriticalSetAnalysis {
    /// Runs the CS selection of Fig. 4 with the default design-time scheduler
    /// (branch & bound, falling back to the list heuristic on large graphs).
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent.
    pub fn compute(
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
    ) -> Result<Self, PrefetchError> {
        Self::compute_with(graph, schedule, platform, &BranchBoundScheduler::new())
    }

    /// Same as [`CriticalSetAnalysis::compute`] with an explicit scheduler.
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
        let mut cache = SearchCache::new();
        Self::compute_with_cache(graph, schedule, platform, scheduler, &mut cache)
    }

    /// The incremental selection loop: every round re-searches the same
    /// graph/schedule/platform with one more subtask assumed resident, so the
    /// rounds share a [`SearchCache`] (their prefix evaluations key on the
    /// load set and stay valid as the set shrinks) and each round warm-starts
    /// from the previous round's best order filtered to the loads that
    /// remain. Both are pure accelerations — the selected set, stored order
    /// and penalty are bit-identical to [`compute_naive`](Self::compute_naive).
    ///
    /// The cache must be fresh or previously used on the same
    /// graph/schedule/platform (see [`SearchCache::clear`]); sharing it with
    /// the design-time all-loads search of the same schedule is what makes
    /// the first round here nearly free.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent.
    pub fn compute_with_cache(
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
        scheduler: &dyn PrefetchScheduler,
        cache: &mut SearchCache,
    ) -> Result<Self, PrefetchError> {
        let mut critical: BTreeSet<SubtaskId> = BTreeSet::new();
        let mut iterations = 0usize;
        let mut previous_order: Vec<SubtaskId> = Vec::new();
        // One problem for every round: each round only re-targets it at the
        // grown critical set.
        let mut problem = PrefetchProblem::new(graph, schedule, platform)?;
        loop {
            iterations += 1;
            problem.set_resident(&critical);
            // Warm start: the loads of this round are a subset of the previous
            // round's (marking one more subtask resident never adds loads), so
            // the previous best order filtered to the current loads is a
            // feasible complete order whose penalty bounds the new optimum.
            let warm: Vec<SubtaskId> = previous_order
                .iter()
                .copied()
                .filter(|&id| problem.needs_load(id))
                .collect();
            let warm = (!warm.is_empty()).then_some(warm.as_slice());
            let result = scheduler.schedule_assisted(&problem, cache, warm)?;
            previous_order = result.load_order().to_vec();
            match next_critical(&problem, &result, &critical) {
                Some(pick) => {
                    critical.insert(pick);
                }
                None => return Ok(Self::assemble(&problem, critical, &result, iterations)),
            }
        }
    }

    /// The original, non-incremental selection loop: every round runs the
    /// scheduler's plain [`schedule`](PrefetchScheduler::schedule) from
    /// scratch, with no shared cache and no warm start. Kept as the
    /// differential reference for the scheduler-equivalence tests;
    /// [`compute_with`](Self::compute_with) must produce bit-identical
    /// analyses.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is inconsistent.
    pub fn compute_naive(
        graph: &SubtaskGraph,
        schedule: &InitialSchedule,
        platform: &Platform,
        scheduler: &dyn PrefetchScheduler,
    ) -> Result<Self, PrefetchError> {
        let mut critical: BTreeSet<SubtaskId> = BTreeSet::new();
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let problem = PrefetchProblem::with_resident(graph, schedule, platform, &critical)?;
            let result = scheduler.schedule(&problem)?;
            match next_critical(&problem, &result, &critical) {
                Some(pick) => {
                    critical.insert(pick);
                }
                None => return Ok(Self::assemble(&problem, critical, &result, iterations)),
            }
        }
    }

    /// Reconstructs an analysis from its stored fields (the on-disk plan
    /// cache). The caller is responsible for the fields describing a real
    /// analysis of the same graph/schedule/platform — nothing is re-derived
    /// or validated here.
    pub fn from_parts(
        critical: Vec<SubtaskId>,
        stored_order: Vec<SubtaskId>,
        stored_penalty: Time,
        iterations: usize,
        drhw_subtasks: usize,
    ) -> Self {
        CriticalSetAnalysis {
            critical,
            stored_order,
            stored_penalty,
            iterations,
            drhw_subtasks,
        }
    }

    /// The analysis a finished loop stores: its critical set and the load
    /// order and penalty of its last round's schedule.
    fn assemble(
        problem: &PrefetchProblem<'_>,
        critical: BTreeSet<SubtaskId>,
        result: &ExecutionResult,
        iterations: usize,
    ) -> Self {
        // The initialization phase loads critical subtasks most-critical first;
        // the loading order is decided at design time (paper §6).
        let mut critical: Vec<SubtaskId> = critical.into_iter().collect();
        critical.sort_by(|a, b| {
            problem
                .weight(*b)
                .cmp(&problem.weight(*a))
                .then(a.index().cmp(&b.index()))
        });
        CriticalSetAnalysis {
            critical,
            stored_order: result.load_order().to_vec(),
            stored_penalty: result.penalty(),
            iterations,
            drhw_subtasks: problem.graph().drhw_subtasks().len(),
        }
    }

    /// The critical subtasks, ordered by decreasing weight (the order the
    /// initialization phase loads them in).
    pub fn critical_subtasks(&self) -> &[SubtaskId] {
        &self.critical
    }

    /// Returns `true` if the given subtask is critical.
    pub fn is_critical(&self, id: SubtaskId) -> bool {
        self.critical.contains(&id)
    }

    /// The load order of the stored design-time schedule (the loads of the
    /// non-critical subtasks).
    pub fn stored_load_order(&self) -> &[SubtaskId] {
        &self.stored_order
    }

    /// The penalty of the stored design-time schedule. Zero whenever the CS
    /// assumption can hide every remaining load, which is the normal outcome.
    pub fn stored_penalty(&self) -> Time {
        self.stored_penalty
    }

    /// Number of `compute_penalty` evaluations the selection loop performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of critical subtasks.
    pub fn len(&self) -> usize {
        self.critical.len()
    }

    /// Returns `true` if no subtask is critical (every load can be hidden even
    /// in the worst case).
    pub fn is_empty(&self) -> bool {
        self.critical.is_empty()
    }

    /// Number of DRHW subtasks of the analysed graph (the denominator of
    /// [`critical_fraction`](Self::critical_fraction)).
    pub fn drhw_subtask_count(&self) -> usize {
        self.drhw_subtasks
    }

    /// Fraction of DRHW subtasks that are critical (the paper reports 62 % for
    /// the 3-D rendering application).
    pub fn critical_fraction(&self) -> f64 {
        if self.drhw_subtasks == 0 {
            0.0
        } else {
            self.critical.len() as f64 / self.drhw_subtasks as f64
        }
    }
}

/// The subtask one round of the selection loop adds to the critical set,
/// or `None` when the loop is done: the round's schedule has no penalty, or
/// every loaded subtask is already assumed resident and the residual
/// penalty cannot be removed by reuse (e.g. a slot forced to hold two
/// configurations in a row) — the stored schedule keeps it for the
/// run-time phase to account for.
fn next_critical(
    problem: &PrefetchProblem<'_>,
    result: &ExecutionResult,
    critical: &BTreeSet<SubtaskId>,
) -> Option<SubtaskId> {
    if result.penalty().is_zero() {
        return None;
    }
    let heaviest = |ids: &mut dyn Iterator<Item = SubtaskId>| {
        ids.filter(|id| !critical.contains(id)).max_by(|a, b| {
            problem
                .weight(*a)
                .cmp(&problem.weight(*b))
                .then(b.index().cmp(&a.index()))
        })
    };
    // Candidates: subtasks whose own load directly delayed them and that
    // are not already assumed resident. Fall back to the heaviest remaining
    // load if the delay is only inherited (rare, but keeps the loop
    // well-founded).
    heaviest(&mut result.delayed_subtasks().into_iter())
        .or_else(|| heaviest(&mut result.load_order().iter().copied()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3;
    use crate::{ListScheduler, PrefetchProblem};
    use drhw_model::{ConfigId, PeAssignment, Subtask, TileSlot};

    #[test]
    fn fig3_has_exactly_one_critical_subtask() {
        let (g, schedule, platform) = fig3();
        let cs = CriticalSetAnalysis::compute(&g, &schedule, &platform).unwrap();
        assert_eq!(cs.critical_subtasks(), &[SubtaskId::new(0)]);
        assert!(cs.is_critical(SubtaskId::new(0)));
        assert!(!cs.is_critical(SubtaskId::new(1)));
        assert_eq!(cs.stored_penalty(), Time::ZERO);
        assert_eq!(cs.len(), 1);
        assert!(!cs.is_empty());
        assert!((cs.critical_fraction() - 0.25).abs() < 1e-9);
        // The stored schedule loads the three non-critical subtasks.
        assert_eq!(cs.stored_load_order().len(), 3);
        assert!(!cs.stored_load_order().contains(&SubtaskId::new(0)));
    }

    #[test]
    fn cs_definition_holds_reusing_cs_hides_every_remaining_load() {
        let (g, schedule, platform) = fig3();
        let cs = CriticalSetAnalysis::compute(&g, &schedule, &platform).unwrap();
        let resident: BTreeSet<SubtaskId> = cs.critical_subtasks().iter().copied().collect();
        let problem = PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
        let result = BranchBoundScheduler::new().schedule(&problem).unwrap();
        assert_eq!(result.penalty(), cs.stored_penalty());
    }

    #[test]
    fn cs_is_minimal_for_fig3() {
        // Removing the lone critical subtask (i.e. assuming nothing is
        // resident) must leave a positive penalty — otherwise it would not be
        // critical in the first place.
        let (g, schedule, platform) = fig3();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let worst = BranchBoundScheduler::new().schedule(&problem).unwrap();
        assert!(worst.penalty() > Time::ZERO);
    }

    #[test]
    fn saturated_port_yields_multiple_critical_subtasks() {
        // Eight independent subtasks of 3 ms on eight tiles with 4 ms loads:
        // the port simply cannot hide 32 ms of loads behind 3 ms of slack, so
        // most subtasks end up critical.
        let mut g = SubtaskGraph::new("saturated");
        for i in 0..8 {
            g.add_subtask(Subtask::new(
                format!("s{i}"),
                Time::from_millis(3),
                ConfigId::new(i),
            ));
        }
        let assignment = (0..8)
            .map(|i| PeAssignment::Tile(TileSlot::new(i)))
            .collect();
        let schedule = InitialSchedule::from_assignment(&g, assignment).unwrap();
        let platform = Platform::virtex_like(8).unwrap();
        let cs = CriticalSetAnalysis::compute(&g, &schedule, &platform).unwrap();
        assert!(
            cs.len() >= 4,
            "expected a large critical set, got {}",
            cs.len()
        );
        assert_eq!(cs.stored_penalty(), Time::ZERO);
        assert!(cs.critical_fraction() >= 0.5);
        // Critical subtasks are ordered by decreasing weight.
        let analysis = drhw_model::GraphAnalysis::new(&g).unwrap();
        let weights: Vec<Time> = cs
            .critical_subtasks()
            .iter()
            .map(|&id| analysis.weight(id))
            .collect();
        let mut sorted = weights.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(weights, sorted);
    }

    #[test]
    fn list_scheduler_variant_also_converges() {
        let (g, schedule, platform) = fig3();
        let cs = CriticalSetAnalysis::compute_with(&g, &schedule, &platform, &ListScheduler::new())
            .unwrap();
        assert!(!cs.is_empty());
        assert_eq!(cs.stored_penalty(), Time::ZERO);
        assert!(cs.iterations() >= 2);
    }

    #[test]
    fn incremental_loop_matches_the_naive_loop_bit_for_bit() {
        let (g, schedule, platform) = fig3();
        let scheduler = BranchBoundScheduler::new();
        let naive =
            CriticalSetAnalysis::compute_naive(&g, &schedule, &platform, &scheduler).unwrap();
        let incremental =
            CriticalSetAnalysis::compute_with(&g, &schedule, &platform, &scheduler).unwrap();
        assert_eq!(incremental, naive);
        // Reusing one cache across the design-time search and the loop (the
        // plan-preparation pattern) must not change the outcome either.
        let mut cache = crate::branch_bound::SearchCache::new();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let _ = scheduler
            .schedule_with_stats(&problem, &mut cache, None)
            .unwrap();
        let shared = CriticalSetAnalysis::compute_with_cache(
            &g, &schedule, &platform, &scheduler, &mut cache,
        )
        .unwrap();
        assert_eq!(shared, naive);
    }

    #[test]
    fn from_parts_round_trips_every_field() {
        let (g, schedule, platform) = fig3();
        let cs = CriticalSetAnalysis::compute(&g, &schedule, &platform).unwrap();
        let rebuilt = CriticalSetAnalysis::from_parts(
            cs.critical_subtasks().to_vec(),
            cs.stored_load_order().to_vec(),
            cs.stored_penalty(),
            cs.iterations(),
            cs.drhw_subtask_count(),
        );
        assert_eq!(rebuilt, cs);
    }

    #[test]
    fn all_resident_graph_has_empty_critical_set() {
        // A single subtask with a long execution still cannot hide its own
        // load (nothing runs before it), so it must be critical...
        let mut g = SubtaskGraph::new("single");
        g.add_subtask(Subtask::new(
            "only",
            Time::from_millis(50),
            ConfigId::new(0),
        ));
        let schedule =
            InitialSchedule::from_assignment(&g, vec![PeAssignment::Tile(TileSlot::new(0))])
                .unwrap();
        let platform = Platform::virtex_like(1).unwrap();
        let cs = CriticalSetAnalysis::compute(&g, &schedule, &platform).unwrap();
        assert_eq!(cs.critical_subtasks(), &[SubtaskId::new(0)]);
        assert_eq!(cs.critical_fraction(), 1.0);
    }
}
