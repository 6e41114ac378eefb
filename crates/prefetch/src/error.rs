//! Errors produced by the prefetch schedulers.

use std::error::Error;
use std::fmt;

use drhw_model::{ModelError, SubtaskId};

/// Errors returned by the prefetch-scheduling public API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PrefetchError {
    /// The underlying model (graph, schedule, platform) is invalid.
    Model(ModelError),
    /// A load order references a subtask that does not need a load (or does
    /// not exist), or misses one that does.
    InvalidLoadOrder {
        /// The offending subtask.
        id: SubtaskId,
    },
    /// The given load order cannot be executed: the port would wait forever
    /// for a tile that can only become free after a later load in the order.
    DeadlockedOrder,
    /// The initial schedule uses more tile slots than the platform provides.
    NotEnoughTiles {
        /// Slots required by the schedule.
        required: usize,
        /// Tiles available on the platform.
        available: usize,
    },
    /// The task graph has more subtasks than the timing engine tracks at
    /// the [`SlotMask`](crate::SlotMask) width in use: 64 for the
    /// per-activation kernels, 256 for the one-shot
    /// [`PrefetchProblem`](crate::PrefetchProblem) API.
    ExceedsMaskWidth {
        /// Subtasks in the graph.
        subtasks: usize,
        /// Maximum the mask width supports.
        capacity: usize,
    },
}

impl fmt::Display for PrefetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefetchError::Model(e) => write!(f, "invalid model: {e}"),
            PrefetchError::InvalidLoadOrder { id } => {
                write!(
                    f,
                    "load order is not a permutation of the required loads (subtask {id})"
                )
            }
            PrefetchError::DeadlockedOrder => {
                write!(
                    f,
                    "load order deadlocks against the tile occupancy constraints"
                )
            }
            PrefetchError::NotEnoughTiles {
                required,
                available,
            } => {
                write!(
                    f,
                    "schedule needs {required} tile slots but the platform has {available} tiles"
                )
            }
            PrefetchError::ExceedsMaskWidth { subtasks, capacity } => {
                write!(
                    f,
                    "graph has {subtasks} subtasks but the timing engine tracks at most \
                     {capacity} at this mask width"
                )
            }
        }
    }
}

impl Error for PrefetchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PrefetchError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for PrefetchError {
    fn from(e: ModelError) -> Self {
        PrefetchError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = PrefetchError::from(ModelError::CyclicGraph);
        assert!(e.to_string().contains("invalid model"));
        assert!(Error::source(&e).is_some());
        let e = PrefetchError::InvalidLoadOrder {
            id: SubtaskId::new(2),
        };
        assert!(e.to_string().contains("st2"));
        assert!(Error::source(&e).is_none());
        let e = PrefetchError::NotEnoughTiles {
            required: 8,
            available: 3,
        };
        assert!(e.to_string().contains("8"));
        let e = PrefetchError::ExceedsMaskWidth {
            subtasks: 90,
            capacity: 64,
        };
        assert!(e.to_string().contains("90 subtasks"));
        assert!(e.to_string().contains("at most 64"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<PrefetchError>();
    }
}
