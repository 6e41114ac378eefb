//! # drhw-prefetch
//!
//! Configuration-prefetch scheduling for dynamically reconfigurable hardware:
//! a reproduction of *"A Hybrid Prefetch Scheduling Heuristic to Minimize at
//! Run-Time the Reconfiguration Overhead of Dynamically Reconfigurable
//! Hardware"* (Resano, Mozos, Catthoor — DATE 2005).
//!
//! The crate implements the full run-time scheduling flow of the paper
//! (Fig. 2): the **reuse module** ([`reusable_subtasks`], [`TileContents`]),
//! the **prefetch module** in all the variants the evaluation compares
//! ([`OnDemandScheduler`], [`DesignTimePrefetch`], [`ListScheduler`],
//! [`BranchBoundScheduler`], and the [`HybridPrefetch`] heuristic built on the
//! Critical Subtask analysis of [`CriticalSetAnalysis`]), and the
//! **replacement module** ([`assign_tiles`]).
//!
//! # The hybrid heuristic in a nutshell
//!
//! ```
//! use std::collections::BTreeSet;
//! use drhw_model::{ConfigId, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph,
//!     TileSlot, Time};
//! use drhw_prefetch::{HybridPrefetch, InterTaskWindow, ListScheduler, PrefetchProblem,
//!     PrefetchScheduler};
//!
//! # fn main() -> Result<(), drhw_prefetch::PrefetchError> {
//! // A small task: decode -> {transform, filter} on three tiles.
//! let mut g = SubtaskGraph::new("demo");
//! let decode = g.add_subtask(Subtask::new("decode", Time::from_millis(16), ConfigId::new(0)));
//! let transform = g.add_subtask(Subtask::new("transform", Time::from_millis(9), ConfigId::new(1)));
//! let filter = g.add_subtask(Subtask::new("filter", Time::from_millis(7), ConfigId::new(2)));
//! g.add_dependency(decode, transform)?;
//! g.add_dependency(decode, filter)?;
//! let schedule = InitialSchedule::from_assignment(
//!     &g,
//!     vec![
//!         PeAssignment::Tile(TileSlot::new(0)),
//!         PeAssignment::Tile(TileSlot::new(1)),
//!         PeAssignment::Tile(TileSlot::new(2)),
//!     ],
//! )?;
//! let platform = Platform::virtex_like(3)?;
//!
//! // Design time: find the critical subtasks and store the load schedule.
//! let hybrid = HybridPrefetch::compute(&g, &schedule, &platform)?;
//! assert_eq!(hybrid.critical().critical_subtasks().len(), 1);
//!
//! // Run time: nothing resident, no idle window from a previous task.
//! let outcome = hybrid.evaluate(&g, &schedule, &platform, &BTreeSet::new(),
//!     InterTaskWindow::empty())?;
//! // Only the initialization phase (one 4 ms load) is exposed.
//! assert_eq!(outcome.penalty(), Time::from_millis(4));
//!
//! // For comparison, the pure run-time heuristic on the same cold start:
//! let problem = PrefetchProblem::new(&g, &schedule, &platform)?;
//! let run_time = ListScheduler::new().schedule(&problem)?;
//! assert_eq!(run_time.penalty(), Time::from_millis(4));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
mod branch_bound;
mod critical;
mod design_time;
mod error;
mod hybrid;
mod inter_task;
mod list_scheduler;
mod mask;
mod on_demand;
mod policy;
mod problem;
mod replacement;
mod reuse;
mod scheduler;

pub use arena::{ExecSummary, HybridSummary, PreparedSchedule, Scratch};
pub use branch_bound::{optimal_penalty, BranchBoundScheduler, SearchCache, SearchStats};
pub use critical::CriticalSetAnalysis;
pub use design_time::DesignTimePrefetch;
pub use error::PrefetchError;
pub use hybrid::{HybridOutcome, HybridPrefetch, HybridRuntimeDecision};
pub use inter_task::{plan_preloads, InterTaskWindow};
pub use list_scheduler::ListScheduler;
pub use mask::{SlotMask, SlotMaskIter};
pub use on_demand::OnDemandScheduler;
pub use policy::PolicyKind;
pub use problem::{ExecutionResult, PrefetchProblem};
pub use replacement::{assign_tiles, assign_tiles_protecting, ReplacementPolicy};
pub use reuse::{apply_schedule_to_contents, reusable_subtasks, TileContents, TileMapping};
pub use scheduler::PrefetchScheduler;

/// Fixtures shared by the unit tests.
#[cfg(test)]
mod fixtures {
    use drhw_model::{
        ConfigId, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph, TileSlot, Time,
    };

    /// The Fig. 3 / Fig. 5 example: four subtasks on three tiles,
    /// 1 -> {2, 3}, 3 -> 4. Subtask 4 shares slot 0 with subtask 1, which
    /// finishes early enough for load 4 to hide behind subtasks 2 and 3;
    /// only subtask 1 is critical.
    pub(crate) fn fig3() -> (SubtaskGraph, InitialSchedule, Platform) {
        let mut g = SubtaskGraph::new("fig3");
        let s1 = g.add_subtask(Subtask::new("1", Time::from_millis(10), ConfigId::new(1)));
        let s2 = g.add_subtask(Subtask::new("2", Time::from_millis(12), ConfigId::new(2)));
        let s3 = g.add_subtask(Subtask::new("3", Time::from_millis(6), ConfigId::new(3)));
        let s4 = g.add_subtask(Subtask::new("4", Time::from_millis(8), ConfigId::new(4)));
        g.add_dependency(s1, s2).unwrap();
        g.add_dependency(s1, s3).unwrap();
        g.add_dependency(s3, s4).unwrap();
        let schedule = InitialSchedule::from_assignment(
            &g,
            vec![
                PeAssignment::Tile(TileSlot::new(0)),
                PeAssignment::Tile(TileSlot::new(1)),
                PeAssignment::Tile(TileSlot::new(2)),
                PeAssignment::Tile(TileSlot::new(0)),
            ],
        )
        .unwrap();
        let platform = Platform::virtex_like(3).unwrap();
        (g, schedule, platform)
    }
}
