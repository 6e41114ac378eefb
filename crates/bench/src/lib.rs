//! # drhw-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! DATE 2005 hybrid prefetch paper. The heavy lifting lives in
//! [`experiments`]; the `table1`, `fig6`, `fig7`, `ablations` and
//! `all_experiments` binaries print the corresponding rows/series, and the
//! Criterion benches under `benches/` measure the scheduler run-time costs
//! behind the paper's scalability argument.
//!
//! The engine's own performance is tracked by [`stages`] (per-stage wall
//! clocks in the schema-v3 `BENCH_results.json`) and enforced by [`gate`]
//! plus the `perf_gate` binary, which compares measured medians against the
//! committed `BENCH_baseline.json` under per-metric tolerance bands.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod gate;
pub mod report;
pub mod serving;
pub mod stages;
