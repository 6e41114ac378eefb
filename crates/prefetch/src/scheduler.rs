//! The common interface every prefetch scheduler implements.

use drhw_model::SubtaskId;

use crate::branch_bound::SearchCache;
use crate::error::PrefetchError;
use crate::problem::{ExecutionResult, PrefetchProblem};

/// A strategy for placing the required configuration loads on the shared
/// reconfiguration port.
///
/// Implementors differ in how much computation they spend and how close to the
/// optimum they land:
///
/// * [`OnDemandScheduler`](crate::OnDemandScheduler) — no prefetch at all, the
///   "without prefetch" baseline of the paper;
/// * [`ListScheduler`](crate::ListScheduler) — the run-time heuristic of the
///   authors' earlier work (ref \[7\]), `N·log N`, near-optimal;
/// * [`BranchBoundScheduler`](crate::BranchBoundScheduler) — exact branch &
///   bound used inside the design-time phase for small graphs.
///
/// The trait is object-safe so simulations can switch policies at run time,
/// and requires `Send + Sync` so schedulers can be shared freely by the
/// engine's worker pool (`drhw-engine`), which evaluates many (policy,
/// iteration) pairs concurrently against the same design-time artifacts.
pub trait PrefetchScheduler: Send + Sync {
    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &str;

    /// Produces a timed schedule for the given problem.
    ///
    /// # Errors
    ///
    /// Returns an error if the problem's model is inconsistent (the schedulers
    /// themselves never produce deadlocking orders).
    fn schedule(&self, problem: &PrefetchProblem<'_>) -> Result<ExecutionResult, PrefetchError>;

    /// Produces a timed schedule, optionally assisted by a reusable
    /// [`SearchCache`] and a warm-start order carried over from a related
    /// search (e.g. the previous round of the critical-set loop, filtered to
    /// this problem's loads).
    ///
    /// The hints may only change how fast the answer is found, never the
    /// answer: implementations must return results bit-identical to
    /// [`schedule`](Self::schedule). The default ignores both hints and
    /// defers to `schedule`; schedulers whose searches can exploit them
    /// (notably [`BranchBoundScheduler`](crate::BranchBoundScheduler))
    /// override it.
    ///
    /// # Errors
    ///
    /// Returns an error if the problem's model is inconsistent.
    fn schedule_assisted(
        &self,
        problem: &PrefetchProblem<'_>,
        cache: &mut SearchCache,
        warm_order: Option<&[SubtaskId]>,
    ) -> Result<ExecutionResult, PrefetchError> {
        let _ = (cache, warm_order);
        self.schedule(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchBoundScheduler, ListScheduler, OnDemandScheduler};

    #[test]
    fn schedulers_are_object_safe_and_named() {
        let schedulers: Vec<Box<dyn PrefetchScheduler>> = vec![
            Box::new(OnDemandScheduler::new()),
            Box::new(ListScheduler::new()),
            Box::new(BranchBoundScheduler::new()),
        ];
        let names: Vec<&str> = schedulers.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["on-demand", "list-prefetch", "branch-and-bound"]
        );
    }
}
