//! # drhw-traffic
//!
//! The open-loop traffic subsystem: a deterministic simulated-clock driver
//! where jobs *arrive* over virtual time from pluggable generators
//! ([`PoissonGenerator`], bursty [`OnOffGenerator`], [`TraceGenerator`]
//! replay), queue FIFO against a configurable number of service slots whose
//! service times are real per-iteration engine measurements, and stream
//! `traffic_event` records in virtual-time order.
//!
//! Where the rest of the workspace answers the paper's question — how much
//! reconfiguration overhead does each prefetch policy leave? — this crate
//! answers the production one: what do those per-task costs *do to tail
//! latency and utilization when tasks arrive under load*? Reports pair the
//! paper's overhead metric with log-bucketed p50/p99/p999 latencies
//! ([`Histogram`]), per-slot utilization and offered-vs-achieved
//! throughput.
//!
//! Everything is derived SplitMix64-style from the scenario's master seed
//! on an integer-microsecond virtual clock, so a scenario's
//! `TRAFFIC_results.jsonl` and summary are **byte-identical at any engine
//! worker count** (see [`driver`] for the exact tie-break rules).
//!
//! ```
//! use drhw_engine::Engine;
//! use drhw_traffic::{run_scenario, TrafficScenario};
//!
//! # fn main() -> Result<(), drhw_traffic::TrafficError> {
//! let scenario = TrafficScenario::from_json_text(
//!     r#"{
//!         "scenario": "doc",
//!         "duration_ms": 2000,
//!         "iterations": 16,
//!         "generators": [{"name": "g", "kind": "poisson", "rate_per_sec": 5}],
//!         "workloads": ["multimedia"],
//!         "policies": ["hybrid"]
//!     }"#,
//! )?;
//! let engine = Engine::builder().threads(1).build();
//! let mut events = Vec::new();
//! let outcome = run_scenario(&engine, &scenario, std::path::Path::new("."), &mut events)?;
//! assert_eq!(outcome.cells.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod generator;
pub mod latency;
pub mod record;
pub mod scenario;
mod session;

use std::fmt;

pub use driver::{run_scenario, CellReport, ScenarioOutcome, ServicePool};
pub use generator::{
    OnOffGenerator, PoissonGenerator, SplitMix64, TraceGenerator, TrafficGenerator,
};
pub use latency::Histogram;
pub use record::{
    parse_trace, render_summary, render_table, render_trace, TRACE_ARRIVAL_FIELDS,
    TRAFFIC_SCHEMA_VERSION,
};
pub use scenario::{
    GeneratorKind, GeneratorSpec, TrafficScenario, DEFAULT_ITERATIONS, DEFAULT_SEED, DEFAULT_SLOTS,
    GENERATOR_FIELDS, SCENARIO_FIELDS,
};
pub use session::{run_session, SessionOutcome, RESULTS_FILE, SUMMARY_FILE};

/// Why a traffic run failed.
#[derive(Debug)]
pub enum TrafficError {
    /// The scenario spec is invalid.
    Scenario {
        /// The offending field.
        field: &'static str,
        /// What is wrong with it.
        reason: String,
    },
    /// An engine-side failure (unknown workload, plan preparation, strict
    /// JSON field checking, ...).
    Engine(drhw_engine::EngineError),
    /// A filesystem failure.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        message: String,
    },
    /// A malformed arrival-trace file.
    Trace {
        /// The trace file.
        path: String,
        /// The offending line (1-based).
        line: usize,
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::Scenario { field, reason } => {
                write!(f, "invalid traffic scenario: {field}: {reason}")
            }
            TrafficError::Engine(e) => write!(f, "{e}"),
            TrafficError::Io { path, message } => write!(f, "{path}: {message}"),
            TrafficError::Trace {
                path,
                line,
                message,
            } => write!(f, "{path}:{line}: {message}"),
        }
    }
}

impl std::error::Error for TrafficError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrafficError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<drhw_engine::EngineError> for TrafficError {
    fn from(e: drhw_engine::EngineError) -> Self {
        TrafficError::Engine(e)
    }
}
