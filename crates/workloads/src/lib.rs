//! # drhw-workloads
//!
//! Benchmark workloads for the DATE 2005 hybrid prefetch reproduction:
//!
//! * [`multimedia`] — the four multimedia tasks of Table 1 (Pattern
//!   Recognition, sequential and parallel JPEG decoding, MPEG encoding with
//!   B/P/I scenarios);
//! * [`pocket_gl`] — the highly dynamic Pocket GL 3-D rendering application of
//!   Figure 7 (6 tasks, 10 subtasks, 40 scenarios, 20 inter-task scenarios);
//! * [`random`] — TGFF-style layered random DAGs for the scalability studies;
//! * [`fuzz`] — seeded DAG-family generators (`fuzz-<family>-<seed>`) feeding
//!   the differential oracle of `drhw-oracle`.
//!
//! The [`registry`] module packages these as pluggable [`Workload`]s behind a
//! named [`WorkloadRegistry`], so experiment harnesses can sweep any
//! registered application without knowing it at compile time.
//!
//! The original task graphs were never published; these are synthetic
//! reconstructions matching every quantitative property the paper states
//! (subtask counts, ideal execution times, scenario counts, execution-time
//! ranges). `DESIGN.md` and `EXPERIMENTS.md` at the repository root document
//! the substitution and the paper-vs-measured comparison.
//!
//! ```
//! use drhw_workloads::multimedia::{jpeg_decoder_graph, fully_parallel_schedule};
//! # fn main() -> Result<(), drhw_model::ModelError> {
//! let graph = jpeg_decoder_graph();
//! let schedule = fully_parallel_schedule(&graph)?;
//! let ideal = schedule.ideal_timing(&graph)?.makespan();
//! assert_eq!(ideal, drhw_model::Time::from_millis(81));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod fuzz;
pub mod multimedia;
pub mod pocket_gl;
pub mod random;
pub mod registry;

pub use fuzz::{FuzzFamily, FuzzWorkload};
pub use registry::{
    parameterised_families, FamilyInfo, MultimediaWorkload, PocketGlWorkload, RandomDagWorkload,
    Workload, WorkloadError, WorkloadRegistry,
};
