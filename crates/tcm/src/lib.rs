//! # drhw-tcm
//!
//! A compact re-implementation of the Task Concurrency Management (TCM)
//! hybrid design-time/run-time scheduling substrate the DATE 2005 hybrid
//! prefetch paper builds on.
//!
//! The crate covers the parts of TCM the prefetch flow needs:
//!
//! * [`DesignTimeScheduler`] — a weight-driven list scheduler that explores
//!   the tile-allocation space of every scenario and produces
//!   reconfiguration-oblivious initial schedules;
//! * [`EnergyModel`] / [`ParetoCurve`] — the time/energy trade-off the
//!   design-time exploration optimises;
//! * [`DesignTimeLibrary`] / [`RuntimeScheduler`] — the run-time selection of
//!   the most energy-efficient Pareto point that still meets the deadline,
//!   producing the sequence of task activations the prefetch modules consume.
//!
//! # Example
//!
//! ```
//! use drhw_model::{ConfigId, Platform, ScenarioId, Subtask, SubtaskGraph, Task, TaskId, TaskSet,
//!     Time};
//! use drhw_tcm::{DesignTimeLibrary, DesignTimeScheduler, RuntimeScheduler, TaskActivation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut graph = SubtaskGraph::new("filter");
//! let a = graph.add_subtask(Subtask::new("a", Time::from_millis(10), ConfigId::new(0)));
//! let b = graph.add_subtask(Subtask::new("b", Time::from_millis(10), ConfigId::new(1)));
//! graph.add_dependency(a, b)?;
//! let task = Task::single_scenario(TaskId::new(0), "filter", graph)?;
//! let set = TaskSet::new("app", vec![task])?;
//! let platform = Platform::virtex_like(4)?;
//!
//! let library = DesignTimeLibrary::build(&set, &platform, &DesignTimeScheduler::new())?;
//! let runtime = RuntimeScheduler::new(&library);
//! let point = runtime.select(
//!     TaskActivation { task: TaskId::new(0), scenario: ScenarioId::new(0) },
//!     platform.tile_count(),
//! )?;
//! assert_eq!(point.exec_time(), Time::from_millis(20));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod design_time;
mod energy;
mod error;
mod pareto;
mod runtime;

pub use design_time::DesignTimeScheduler;
pub use energy::EnergyModel;
pub use error::TcmError;
pub use pareto::{ParetoCurve, ParetoPoint};
pub use runtime::{DesignTimeLibrary, RuntimeScheduler, TaskActivation, TaskArtifacts};
