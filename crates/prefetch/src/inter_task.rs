//! Inter-task optimization (§6).
//!
//! Once a task's last configuration load has finished, the reconfiguration
//! port sits idle until the task completes. The run-time prefetch module uses
//! that final idle window to start the initialization phase of the *next* task
//! in the sequence produced by the TCM run-time scheduler, hiding loads that
//! would otherwise delay it. [`InterTaskWindow`] is that window; both the
//! "run-time + inter-task" policy
//! ([`PreparedSchedule::evaluate_inter_task`](crate::PreparedSchedule::evaluate_inter_task))
//! and the hybrid heuristic read it only as the number of whole loads it
//! holds ([`PreparedSchedule::window_loads`](crate::PreparedSchedule::window_loads))
//! and preload that many of their most critical pending loads.

use drhw_model::Time;
use serde::{Deserialize, Serialize};

/// The idle window the reconfiguration port offers at the end of a task.
///
/// # Examples
///
/// ```
/// use drhw_model::Time;
/// use drhw_prefetch::InterTaskWindow;
///
/// let window = InterTaskWindow::new(Time::from_millis(10));
/// // Two whole 4 ms loads fit; the 2 ms left over hide nothing.
/// assert_eq!(window.whole_loads(Time::from_millis(4)), 2);
/// assert_eq!(window.remaining(), Time::from_millis(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InterTaskWindow {
    remaining: Time,
}

impl InterTaskWindow {
    /// Creates a window of the given duration.
    pub fn new(duration: Time) -> Self {
        InterTaskWindow {
            remaining: duration,
        }
    }

    /// An empty window (no idle time available).
    pub fn empty() -> Self {
        InterTaskWindow {
            remaining: Time::ZERO,
        }
    }

    /// The window's idle time.
    pub fn remaining(&self) -> Time {
        self.remaining
    }

    /// How many whole loads of the given latency fit in the window.
    pub fn whole_loads(&self, latency: Time) -> usize {
        if latency.is_zero() {
            usize::MAX
        } else {
            (self.remaining.as_micros() / latency.as_micros()) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_loads_floors_the_ratio() {
        let w = InterTaskWindow::new(Time::from_millis(11));
        assert_eq!(w.whole_loads(Time::from_millis(4)), 2);
        assert_eq!(w.whole_loads(Time::from_millis(12)), 0);
        assert_eq!(
            InterTaskWindow::empty().whole_loads(Time::from_millis(4)),
            0
        );
    }

    #[test]
    fn zero_latency_loads_always_fit() {
        let w = InterTaskWindow::new(Time::from_millis(1));
        assert_eq!(w.whole_loads(Time::ZERO), usize::MAX);
    }
}
