//! # drhw-engine
//!
//! The session-oriented job engine — the single public entry point of the
//! DRHW hybrid-prefetch workspace for anything that *runs simulations*
//! (experiments, benches, examples, tests and the `engine_serve` JSON-lines
//! front-end all go through it).
//!
//! Where the simulation core hand-wires `TaskSet` → `IterationPlan` →
//! `IterationPlan::run` per run, on one thread, an [`Engine`] is built once
//! and serves many jobs on its worker pool — the workspace's only parallel
//! executor:
//!
//! * **Plan caching** — prepared [`IterationPlan`](drhw_sim::IterationPlan)
//!   artifacts are cached under (workload, tiles, point-selection) keys, so
//!   repeat jobs skip all design-time work (the same amortisation argument
//!   the paper makes for its design-time/run-time split, applied at the
//!   service layer). Seed, iteration count and the other run-time knobs are
//!   *not* part of the key: a re-seeded job is a cache hit.
//! * **Streaming progress** — [`JobHandle::progress`] yields one
//!   [`ProgressEvent`] per folded chunk, in deterministic (policy, chunk)
//!   order.
//! * **Cooperative cancellation** — [`JobHandle::cancel`] stops a job within
//!   one chunk of work per worker.
//! * **Bit-identical results** — job reports equal the sequential
//!   `IterationPlan::run` output bit for bit, regardless of cache hits,
//!   worker count or interleaved jobs (enforced by the integration tests and
//!   the differential-oracle corpus).
//!
//! ```
//! use drhw_engine::{Engine, JobSpec};
//! use drhw_prefetch::PolicyKind;
//!
//! # fn main() -> Result<(), drhw_engine::EngineError> {
//! let engine = Engine::builder().cache_capacity(8).build();
//! let spec = JobSpec::new("multimedia")
//!     .with_tiles(8)
//!     .with_iterations(100)
//!     .with_policies([PolicyKind::NoPrefetch, PolicyKind::Hybrid]);
//! let reports = engine.run(spec.clone())?;
//! assert!(reports[1].overhead_percent() <= reports[0].overhead_percent());
//!
//! // Same spec again: the cached plan skips all design-time work and the
//! // report is bit-identical.
//! assert_eq!(engine.run(spec)?, reports);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod disk;
mod engine;
mod error;
mod job;
pub mod json;
pub mod serve;
mod spec;
pub mod sweep;

pub use cache::CacheStats;
pub use engine::{Engine, EngineBuilder, ServiceMeasurement, DEFAULT_CACHE_CAPACITY};
pub use error::EngineError;
pub use job::{JobHandle, JobId, JobResult, ProgressEvent};
pub use serve::{
    command_reply, error_json, execute, parse_command, request_id, serve, spec_schema_json,
    workloads_json, Command, Request, ServeSummary, ENVELOPE_V1_FIELDS, ENVELOPE_V2_FIELDS,
    SHUTDOWN_DISABLED_MESSAGE,
};
pub use spec::{
    check_object_fields, nearest_field, parse_point_selection, point_selection_name,
    ConfigOverrides, JobSpec, SpecField, JOB_SPEC_FIELDS,
};
pub use sweep::{ExperimentSpec, ParamSet, ParamSetId, SweepOptions, SweepOutcome};
