//! # drhw-oracle
//!
//! A differential oracle for the DRHW prefetch workspace, in two halves:
//!
//! * [`reference`] — a slow-but-obviously-correct **reference simulator**: a
//!   straight-line, event-driven re-implementation of execution and
//!   reconfiguration-overhead accounting that shares **only `drhw-model`
//!   types** with the fast path (no `IterationPlan`, no precomputed
//!   artifacts, no chunked worker pool), so it can arbitrate disagreements
//!   for any `(policy, workload, tiles, seed)` tuple;
//! * [`diff`] — the **differential harness**: a pinned fuzz corpus over the
//!   generated DAG families of `drhw-workloads::fuzz`, swept across all five
//!   policies, comparing the fast path against the reference bit for bit
//!   (per-iteration outcomes, the sequential aggregate reports, and cold
//!   and warm replays through the multi-threaded `drhw-engine` pool), with
//!   first divergences shrunk down to the smallest failing task set.
//!
//! The corpus size is controlled by the `DRHW_FUZZ_CASES` environment
//! variable (see [`diff::corpus_cases_from_env`]); the corpus itself is
//! derived from a pinned master seed so every run, local or CI, sweeps the
//! same cases unless the knob is turned.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diff;
pub mod reference;

pub use diff::{
    corpus_cases_from_env, pinned_corpus, run_case, run_corpus, CaseOutcome, DiffCase, Divergence,
};
pub use reference::{
    OracleConfig, OracleError, PointSelectionRule, ReferenceOutcome, ReferencePolicy,
    ReferenceReport, ReferenceSimulator, ReplacementRule, ScenarioRule,
};
