//! The sweep orchestrator: thousands of parameter sets per session.
//!
//! Where [`serve`](mod@crate::serve) executes one [`JobSpec`](crate::JobSpec)
//! per request line, this module executes a whole *experiment*: an
//! [`ExperimentSpec`] declares per-field value axes (workloads × tiles ×
//! policies × iterations × seeds × overrides), [`ExperimentSpec::expand`]
//! turns them into a deterministic stream of parameter sets, and
//! [`run_sweep`] streams those through the shared engine — the plan cache
//! makes the seed and iteration axes nearly free, since they are not part
//! of the plan key.
//!
//! Sessions are **resumable**: each completed set appends one result line
//! keyed by its [`ParamSetId`], and a restarted runner skips everything
//! already on disk (see the `runner` module for the exact guarantees). When
//! the last set completes, the `summary` module aggregates the log into
//! per-axis medians and the best/worst policy per workload.

mod experiment;
mod runner;
mod summary;

pub use experiment::{
    Expansion, ExperimentSpec, ParamSet, ParamSetId, EXPERIMENT_SPEC_FIELDS, MAX_EXPANDED_SETS,
};
pub use runner::{
    run_sweep, SweepOptions, SweepOutcome, MANIFEST_FILE, RESULTS_FILE, SUMMARY_FILE,
};
pub use summary::{render_table, summarize, SetRecord};
