//! Names for the five prefetch policies compared in the paper's evaluation.

use serde::{Deserialize, Serialize};

/// One of the five scheduling policies the experiments of §7 compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PolicyKind {
    /// No prefetch at all: configurations are loaded on demand.
    NoPrefetch,
    /// An optimal prefetch schedule computed at design time only; reuse is
    /// impossible because residency is unknown offline.
    DesignTimeOnly,
    /// The run-time list-scheduling heuristic of ref \[7\] combined with the
    /// reuse and replacement modules.
    RunTime,
    /// The run-time heuristic plus the inter-task optimization of §6.
    RunTimeInterTask,
    /// The hybrid design-time/run-time heuristic of this paper (includes the
    /// inter-task optimization).
    Hybrid,
}

impl PolicyKind {
    /// All policies, in the order the paper introduces them.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::NoPrefetch,
        PolicyKind::DesignTimeOnly,
        PolicyKind::RunTime,
        PolicyKind::RunTimeInterTask,
        PolicyKind::Hybrid,
    ];

    /// The three policies plotted in Figures 6 and 7.
    pub const FIGURE_POLICIES: [PolicyKind; 3] = [
        PolicyKind::RunTime,
        PolicyKind::RunTimeInterTask,
        PolicyKind::Hybrid,
    ];

    /// Whether the policy can exploit configurations left over from previous
    /// task activations.
    pub fn exploits_reuse(self) -> bool {
        matches!(
            self,
            PolicyKind::RunTime | PolicyKind::RunTimeInterTask | PolicyKind::Hybrid
        )
    }

    /// Whether the policy uses the trailing port idle window of the previous
    /// task to prefetch for the next one.
    pub fn uses_inter_task_window(self) -> bool {
        matches!(self, PolicyKind::RunTimeInterTask | PolicyKind::Hybrid)
    }

    /// Parses the stable [`Display`](std::fmt::Display) name of a policy
    /// (`no-prefetch`, `design-time-prefetch`, `run-time`,
    /// `run-time+inter-task`, `hybrid`) — the names used in job specs,
    /// reports and `BENCH_results.json` keys. Returns `None` for anything
    /// else.
    pub fn parse(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL
            .into_iter()
            .find(|policy| policy.to_string() == name)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::NoPrefetch => write!(f, "no-prefetch"),
            PolicyKind::DesignTimeOnly => write!(f, "design-time-prefetch"),
            PolicyKind::RunTime => write!(f, "run-time"),
            PolicyKind::RunTimeInterTask => write!(f, "run-time+inter-task"),
            PolicyKind::Hybrid => write!(f, "hybrid"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_are_listed_once() {
        assert_eq!(PolicyKind::ALL.len(), 5);
        let mut unique: Vec<_> = PolicyKind::ALL.to_vec();
        unique.dedup();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn reuse_and_window_capabilities_match_the_paper() {
        assert!(!PolicyKind::NoPrefetch.exploits_reuse());
        assert!(!PolicyKind::DesignTimeOnly.exploits_reuse());
        assert!(PolicyKind::RunTime.exploits_reuse());
        assert!(!PolicyKind::RunTime.uses_inter_task_window());
        assert!(PolicyKind::RunTimeInterTask.uses_inter_task_window());
        assert!(PolicyKind::Hybrid.uses_inter_task_window());
    }

    #[test]
    fn parse_round_trips_every_display_name() {
        for policy in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(&policy.to_string()), Some(policy));
        }
        assert_eq!(PolicyKind::parse("turbo"), None);
        assert_eq!(PolicyKind::parse(""), None);
    }

    #[test]
    fn display_names_are_stable() {
        let names: Vec<String> = PolicyKind::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "no-prefetch",
                "design-time-prefetch",
                "run-time",
                "run-time+inter-task",
                "hybrid"
            ]
        );
    }
}
