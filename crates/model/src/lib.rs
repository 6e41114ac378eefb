//! # drhw-model
//!
//! Task-graph, platform and schedule model for dynamically reconfigurable
//! hardware (DRHW). This crate is the foundation of a reproduction of
//! *"A Hybrid Prefetch Scheduling Heuristic to Minimize at Run-Time the
//! Reconfiguration Overhead of Dynamically Reconfigurable Hardware"*
//! (Resano, Mozos, Catthoor — DATE 2005).
//!
//! It provides:
//!
//! * [`Time`] — exact microsecond arithmetic for schedule computation;
//! * strongly typed identifiers ([`SubtaskId`], [`TileId`], [`TileSlot`],
//!   [`ConfigId`], …);
//! * [`Subtask`] and [`SubtaskGraph`] — the DAG model tasks are described with;
//! * [`GraphAnalysis`] — ASAP/ALAP levels and the criticality *weights* the
//!   paper's heuristics rank subtasks by;
//! * [`Platform`] — the ICN tile model (identical tiles, one reconfiguration
//!   port, configurable latency);
//! * [`InitialSchedule`] / [`TimedSchedule`] — reconfiguration-oblivious
//!   schedules and their timed realisations;
//! * [`Scenario`], [`Task`], [`TaskSet`] — the TCM application model;
//! * [`SplitMix64`], [`mix64`] and [`fnv1a`] — the one pseudo-random stream
//!   and the one hash every seed and fingerprint is derived from.
//!
//! # Quick example
//!
//! ```
//! use drhw_model::{
//!     ConfigId, GraphAnalysis, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph,
//!     TileSlot, Time,
//! };
//!
//! # fn main() -> Result<(), drhw_model::ModelError> {
//! // A two-stage pipeline mapped on two tiles of a Virtex-like platform.
//! let mut graph = SubtaskGraph::new("pipeline");
//! let front = graph.add_subtask(Subtask::new("front", Time::from_millis(12), ConfigId::new(0)));
//! let back = graph.add_subtask(Subtask::new("back", Time::from_millis(9), ConfigId::new(1)));
//! graph.add_dependency(front, back)?;
//!
//! let platform = Platform::virtex_like(2)?;
//! let schedule = InitialSchedule::from_assignment(
//!     &graph,
//!     vec![PeAssignment::Tile(TileSlot::new(0)), PeAssignment::Tile(TileSlot::new(1))],
//! )?;
//! let ideal = schedule.ideal_timing(&graph)?;
//! assert_eq!(ideal.makespan(), Time::from_millis(21));
//!
//! let analysis = GraphAnalysis::new(&graph)?;
//! assert!(analysis.weight(front) > analysis.weight(back));
//! assert_eq!(platform.reconfig_latency(), Time::from_millis(4));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod analysis;
mod error;
mod graph;
mod hash;
mod ids;
mod platform;
mod scenario;
mod schedule;
mod subtask;
mod time;

pub use analysis::GraphAnalysis;
pub use error::ModelError;
pub use graph::SubtaskGraph;
pub use hash::{fnv1a, mix64, splitmix64, SplitMix64, GOLDEN_GAMMA};
pub use ids::{
    ConfigId, IspId, PeAssignment, PeClass, ScenarioId, SubtaskId, TaskId, TileId, TileSlot,
};
pub use platform::Platform;
pub use scenario::{Scenario, Task, TaskSet};
pub use schedule::{ExecutionWindow, InitialSchedule, LoadWindow, TimedSchedule};
pub use subtask::Subtask;
pub use time::Time;
