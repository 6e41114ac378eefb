//! # drhw-sim
//!
//! The dynamic multi-iteration simulation driver used to reproduce the
//! experimental results of the DATE 2005 hybrid prefetch paper: Table 1, the
//! headline overhead numbers of §7, Figure 6 (multimedia task set) and
//! Figure 7 (Pocket GL 3-D renderer).
//!
//! An [`IterationPlan`] prepares a task set and a platform once — the TCM
//! design-time library, one initial schedule per (task, scenario) pair, the
//! design-time and hybrid prefetch artifacts — and then runs any
//! [`PolicyKind`](drhw_prefetch::PolicyKind) under an identical randomised
//! workload so policy comparisons are paired. The result is a
//! [`SimulationReport`] whose [`overhead_percent`](SimulationReport::overhead_percent)
//! is the metric plotted on the paper's figures.
//!
//! The plan can score any (policy, iteration) pair independently thanks to
//! per-iteration seeds. Work splits into fixed chunks of consecutive
//! iterations ([`SimulationConfig::chunk_size`]) whose boundaries depend
//! only on the configuration; [`IterationPlan::run`] evaluates each chunk
//! for all the requested policies in one pass on the calling thread and
//! folds each policy's per-chunk statistics back in (policy, chunk) order.
//!
//! This crate is the simulation *core* and starts no threads: plan
//! preparation and [`IterationPlan::run`] both run on the calling thread.
//! Parallel execution lives in the `drhw-engine` crate, whose `Engine`
//! submits jobs by workload name, fans their chunks out over
//! a worker pool (sized by [`SimulationConfig::threads`], or the
//! `DRHW_SIM_THREADS` environment variable) and adds plan caching across
//! runs, streaming progress and cancellation — with reports
//! **bit-identical** to [`IterationPlan::run`] for every worker count.
//!
//! ```
//! use drhw_model::{ConfigId, Platform, Subtask, SubtaskGraph, Task, TaskId, TaskSet, Time};
//! use drhw_prefetch::PolicyKind;
//! use drhw_sim::{IterationPlan, SimulationConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut graph = SubtaskGraph::new("toy");
//! let a = graph.add_subtask(Subtask::new("a", Time::from_millis(10), ConfigId::new(0)));
//! let b = graph.add_subtask(Subtask::new("b", Time::from_millis(10), ConfigId::new(1)));
//! graph.add_dependency(a, b)?;
//! let set = TaskSet::new("toy", vec![Task::single_scenario(TaskId::new(0), "toy", graph)?])?;
//! let platform = Platform::virtex_like(4)?;
//!
//! let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick())?;
//! let reports = plan.run(&[PolicyKind::NoPrefetch, PolicyKind::Hybrid])?;
//! assert!(reports[1].overhead_percent() <= reports[0].overhead_percent());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod batch;
mod config;
mod error;
mod plan;
mod scratch;
mod stats;

pub use config::{PointSelection, ScenarioPolicy, SimulationConfig, DEFAULT_CHUNK_SIZE};
pub use error::SimError;
pub use plan::{IterationPlan, ScenarioSearchArtifacts};
pub use scratch::SimScratch;
pub use stats::{ChunkStats, IterationOutcome, SimulationReport};
