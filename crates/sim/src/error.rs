//! Errors produced by the simulation driver.

use std::error::Error;
use std::fmt;

use drhw_model::ModelError;
use drhw_prefetch::PrefetchError;
use drhw_tcm::TcmError;

/// Errors returned by the dynamic simulation runner.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The underlying model is invalid.
    Model(ModelError),
    /// The TCM substrate rejected a request.
    Tcm(TcmError),
    /// A prefetch scheduler rejected a request.
    Prefetch(PrefetchError),
    /// The simulation was configured with zero iterations.
    NoIterations,
    /// The simulation was configured with a zero chunk size.
    InvalidChunkSize,
    /// A correlated scenario policy was configured with no combinations to
    /// draw from.
    NoScenarioCombinations,
    /// An iteration index beyond the configured iteration count was requested.
    IterationOutOfRange {
        /// The requested iteration index.
        index: usize,
        /// The configured number of iterations.
        iterations: usize,
    },
    /// The configured task-inclusion probability is outside `[0, 1]`.
    InvalidInclusionProbability {
        /// The offending value, scaled by 1000 for exact comparison.
        permille: u32,
    },
    /// [`IterationPlan::with_config`](crate::IterationPlan::with_config) was
    /// asked to change a design-time knob, which would invalidate the shared
    /// artifacts.
    IncompatiblePlanConfig {
        /// The configuration field that differs from the prepared plan.
        field: &'static str,
    },
    /// The platform has more tiles than the bitmask-based hot kernels can
    /// track (the `SlotMask` width), so a plan cannot be prepared for it.
    PlatformExceedsMaskWidth {
        /// Tiles on the platform.
        tiles: usize,
        /// Maximum the simulation kernels support.
        capacity: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Model(e) => write!(f, "invalid model: {e}"),
            SimError::Tcm(e) => write!(f, "tcm substrate error: {e}"),
            SimError::Prefetch(e) => write!(f, "prefetch error: {e}"),
            SimError::NoIterations => write!(
                f,
                "config field `iterations`: the simulation needs at least one iteration"
            ),
            SimError::InvalidChunkSize => {
                write!(
                    f,
                    "config field `chunk_size`: simulation chunks need at least one iteration each"
                )
            }
            SimError::NoScenarioCombinations => {
                write!(
                    f,
                    "config field `scenario_policy`: a correlated scenario policy needs at least \
                     one combination"
                )
            }
            SimError::IterationOutOfRange { index, iterations } => {
                write!(
                    f,
                    "iteration {index} is out of range: the simulation has {iterations} iterations"
                )
            }
            SimError::InvalidInclusionProbability { permille } => {
                write!(
                    f,
                    "config field `task_inclusion_probability`: {} is outside [0, 1]",
                    *permille as f64 / 1000.0
                )
            }
            SimError::IncompatiblePlanConfig { field } => {
                write!(
                    f,
                    "config field `{field}` differs from the prepared plan's; design-time \
                     artifacts cannot be reused — build a fresh plan instead"
                )
            }
            SimError::PlatformExceedsMaskWidth { tiles, capacity } => {
                write!(
                    f,
                    "platform has {tiles} tiles but the simulation kernels track at most \
                     {capacity} slots; use the one-shot scheduler API for wider platforms"
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Model(e) => Some(e),
            SimError::Tcm(e) => Some(e),
            SimError::Prefetch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SimError {
    fn from(e: ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<TcmError> for SimError {
    fn from(e: TcmError) -> Self {
        SimError::Tcm(e)
    }
}

impl From<PrefetchError> for SimError {
    fn from(e: PrefetchError) -> Self {
        SimError::Prefetch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e = SimError::from(ModelError::CyclicGraph);
        assert!(Error::source(&e).is_some());
        let e = SimError::from(TcmError::EmptyCurve);
        assert!(e.to_string().contains("tcm"));
        let e = SimError::from(PrefetchError::DeadlockedOrder);
        assert!(e.to_string().contains("prefetch"));
        assert!(SimError::NoIterations.to_string().contains("iteration"));
        assert!(SimError::InvalidChunkSize.to_string().contains("chunk"));
        assert!(SimError::NoScenarioCombinations
            .to_string()
            .contains("combination"));
        let e = SimError::InvalidInclusionProbability { permille: 1500 };
        assert!(e.to_string().contains("1.5"));
        let e = SimError::PlatformExceedsMaskWidth {
            tiles: 128,
            capacity: 64,
        };
        assert!(e.to_string().contains("128 tiles"));
        assert!(e.to_string().contains("at most 64"));
    }

    #[test]
    fn config_errors_name_the_offending_field() {
        // Every configuration error must name the config field it rejects,
        // so service-level errors (drhw-engine) stay actionable.
        for (error, field) in [
            (SimError::NoIterations, "`iterations`"),
            (SimError::InvalidChunkSize, "`chunk_size`"),
            (SimError::NoScenarioCombinations, "`scenario_policy`"),
            (
                SimError::InvalidInclusionProbability { permille: 1500 },
                "`task_inclusion_probability`",
            ),
            (
                SimError::IncompatiblePlanConfig {
                    field: "point_selection",
                },
                "`point_selection`",
            ),
        ] {
            let message = error.to_string();
            assert!(message.contains(field), "{message:?} must name {field}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
    }
}
