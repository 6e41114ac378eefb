//! A pluggable workload abstraction and a named registry over it.
//!
//! A [`Workload`] bundles everything an experiment harness needs to simulate
//! one benchmark application: the task set itself plus the workload-specific
//! simulation knobs the paper fixes per experiment (the feasible inter-task
//! scenario combinations, the task-activation probability, and the tile-count
//! range its figure sweeps). The [`WorkloadRegistry`] maps stable names to
//! workloads so tile sweeps and policy comparisons can be launched over *any*
//! registered application — the paper's two benchmarks ship as built-ins, and
//! parameterised random DAG workloads can be registered alongside them.
//!
//! The trait deliberately speaks only `drhw-model` vocabulary; mapping a
//! workload onto a `SimulationConfig` stays in the experiment layer
//! (`drhw-bench`), which keeps this crate free of simulation dependencies.
//!
//! ```
//! use drhw_workloads::registry::WorkloadRegistry;
//!
//! let registry = WorkloadRegistry::with_builtins();
//! let multimedia = registry.get("multimedia").expect("built-in workload");
//! assert_eq!(multimedia.task_set().tasks().len(), 4);
//! assert!(registry.names().len() >= 3);
//! ```

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

use drhw_model::{ScenarioId, TaskId, TaskSet};

use crate::fuzz::{FuzzFamily, FuzzWorkload};
use crate::multimedia::multimedia_task_set;
use crate::pocket_gl::{inter_task_scenarios, pocket_gl_task_set, TASK_COUNT};
use crate::random::random_task_set;

/// Why a workload name could not be resolved.
///
/// [`WorkloadRegistry::resolve`] parses the parameterised name families
/// (`random-<tasks>x<subtasks>`, `fuzz-<family>-<seed>`) on demand; a name
/// that *looks* parameterised but is malformed gets a descriptive error
/// naming the offending input instead of a generic lookup failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The name matches no registered workload and no parameterised family.
    Unknown {
        /// The name that was looked up.
        name: String,
        /// The names currently registered, for the error message.
        known: Vec<String>,
    },
    /// A `random-…` name that does not parse as `random-<tasks>x<subtasks>`.
    MalformedRandom {
        /// The offending name.
        name: String,
        /// What exactly is wrong with it.
        reason: String,
    },
    /// A `fuzz-…` name that does not parse as `fuzz-<family>-<seed>`.
    MalformedFuzz {
        /// The offending name.
        name: String,
        /// What exactly is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Unknown { name, known } => write!(
                f,
                "unknown workload {name:?}; registered: {}",
                known.join(", ")
            ),
            WorkloadError::MalformedRandom { name, reason } => write!(
                f,
                "malformed random workload name {name:?}: {reason} \
                 (expected random-<tasks>x<subtasks>, e.g. random-3x5)"
            ),
            WorkloadError::MalformedFuzz { name, reason } => write!(
                f,
                "malformed fuzz workload name {name:?}: {reason} \
                 (expected fuzz-<family>-<seed>, e.g. fuzz-chain-7)"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One benchmark application, packaged with the simulation knobs the paper
/// fixes for it.
pub trait Workload: Send + Sync {
    /// Stable registry name (also used in experiment labels and reports).
    fn name(&self) -> &str;

    /// One-line description for listings.
    fn description(&self) -> &str;

    /// Builds the task set to simulate. Workloads are stateless descriptions;
    /// building is deterministic, so repeated calls return equal sets.
    fn task_set(&self) -> TaskSet;

    /// The feasible inter-task scenario combinations, if the application's
    /// inter-task dependencies restrict scenario selection (Pocket GL's 20
    /// inter-task scenarios). `None` means every task picks its scenario
    /// independently, weighted by the scenario probabilities.
    fn correlated_scenarios(&self) -> Option<Vec<BTreeMap<TaskId, ScenarioId>>> {
        None
    }

    /// Probability that each task of the set is activated in an iteration.
    fn task_inclusion_probability(&self) -> f64 {
        0.75
    }

    /// The tile-count range this workload's figure sweeps over.
    fn tile_sweep(&self) -> RangeInclusive<usize>;
}

/// The multimedia task set of Table 1 / Figure 6: four tasks, independent
/// weighted scenario selection, swept over 8–16 tiles.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultimediaWorkload;

impl Workload for MultimediaWorkload {
    fn name(&self) -> &str {
        "multimedia"
    }

    fn description(&self) -> &str {
        "Table 1 multimedia set: pattern recognition, two JPEG decoders, MPEG encoder"
    }

    fn task_set(&self) -> TaskSet {
        multimedia_task_set()
    }

    fn tile_sweep(&self) -> RangeInclusive<usize> {
        8..=16
    }
}

/// The Pocket GL 3-D renderer of Figure 7: six pipeline tasks that all run
/// every frame, restricted to the 20 feasible inter-task scenarios, swept
/// over 5–10 tiles.
#[derive(Debug, Clone, Copy, Default)]
pub struct PocketGlWorkload;

impl Workload for PocketGlWorkload {
    fn name(&self) -> &str {
        "pocket_gl"
    }

    fn description(&self) -> &str {
        "Figure 7 Pocket GL renderer: 6 tasks, 40 scenarios, 20 inter-task scenarios"
    }

    fn task_set(&self) -> TaskSet {
        pocket_gl_task_set()
    }

    fn correlated_scenarios(&self) -> Option<Vec<BTreeMap<TaskId, ScenarioId>>> {
        Some(
            inter_task_scenarios()
                .into_iter()
                .map(|combo| {
                    (0..TASK_COUNT)
                        .map(|t| (TaskId::new(10 + t), ScenarioId::new(combo.scenarios[t])))
                        .collect()
                })
                .collect(),
        )
    }

    fn task_inclusion_probability(&self) -> f64 {
        // Every frame runs the whole six-stage pipeline.
        1.0
    }

    fn tile_sweep(&self) -> RangeInclusive<usize> {
        5..=10
    }
}

/// A parameterised TGFF-style random workload: `tasks` layered random DAGs of
/// `subtasks_per_task` subtasks each, for scalability studies beyond the
/// published benchmarks.
#[derive(Debug, Clone)]
pub struct RandomDagWorkload {
    name: String,
    tasks: usize,
    subtasks_per_task: usize,
    seed: u64,
}

impl RandomDagWorkload {
    /// A random workload of `tasks` DAGs with `subtasks_per_task` subtasks
    /// each, generated from `seed`. The registry name encodes the shape:
    /// `random-<tasks>x<subtasks_per_task>`.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` or `subtasks_per_task` is zero.
    pub fn new(tasks: usize, subtasks_per_task: usize, seed: u64) -> Self {
        assert!(tasks > 0, "random workload needs at least one task");
        assert!(
            subtasks_per_task > 0,
            "random workload tasks need at least one subtask"
        );
        RandomDagWorkload {
            name: format!("random-{tasks}x{subtasks_per_task}"),
            tasks,
            subtasks_per_task,
            seed,
        }
    }

    /// The generator seed of this workload.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Workload for RandomDagWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        "parameterised layered random DAGs (TGFF-style) for scalability studies"
    }

    fn task_set(&self) -> TaskSet {
        random_task_set(self.tasks, self.subtasks_per_task, self.seed)
    }

    fn tile_sweep(&self) -> RangeInclusive<usize> {
        // Wide enough that the fully-parallel point rarely fits and the
        // Pareto fallback gets exercised, as in the scalability argument.
        self.subtasks_per_task..=(self.subtasks_per_task + 4)
    }
}

/// A named collection of workloads.
#[derive(Clone, Default)]
pub struct WorkloadRegistry {
    entries: BTreeMap<String, Arc<dyn Workload>>,
}

impl WorkloadRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        WorkloadRegistry::default()
    }

    /// A registry pre-populated with the paper's two benchmark applications
    /// and a small random workload:
    /// `multimedia`, `pocket_gl`, and `random-3x5`.
    pub fn with_builtins() -> Self {
        let mut registry = WorkloadRegistry::new();
        registry.register(Arc::new(MultimediaWorkload));
        registry.register(Arc::new(PocketGlWorkload));
        registry.register(Arc::new(RandomDagWorkload::new(3, 5, DEFAULT_RANDOM_SEED)));
        registry
    }

    /// Registers a workload under its own name, replacing any previous entry
    /// with the same name.
    pub fn register(&mut self, workload: Arc<dyn Workload>) {
        self.entries.insert(workload.name().to_string(), workload);
    }

    /// Looks a workload up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Workload>> {
        self.entries.get(name)
    }

    /// Resolves a name to a workload, constructing parameterised workloads
    /// (`random-<tasks>x<subtasks>`, `fuzz-<family>-<seed>`) on demand.
    ///
    /// Registered entries win over on-demand construction, so an explicitly
    /// registered `random-3x5` keeps its registered seed.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::MalformedRandom`] / [`WorkloadError::MalformedFuzz`]
    /// — naming the offending input — when a parameterised name does not parse,
    /// and [`WorkloadError::Unknown`] for everything else.
    pub fn resolve(&self, name: &str) -> Result<Arc<dyn Workload>, WorkloadError> {
        if let Some(entry) = self.entries.get(name) {
            return Ok(Arc::clone(entry));
        }
        if let Some(shape) = name.strip_prefix("random-") {
            let (tasks, subtasks) = parse_random_shape(name, shape)?;
            return Ok(Arc::new(RandomDagWorkload::new(
                tasks,
                subtasks,
                DEFAULT_RANDOM_SEED,
            )));
        }
        if let Some(spec) = name.strip_prefix("fuzz-") {
            let (family, seed) = parse_fuzz_spec(name, spec)?;
            return Ok(Arc::new(FuzzWorkload::new(family, seed)));
        }
        Err(WorkloadError::Unknown {
            name: name.to_string(),
            known: self.names().iter().map(|n| n.to_string()).collect(),
        })
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Iterates over the registered workloads in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Workload>> {
        self.entries.values()
    }

    /// Number of registered workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The seed used for `random-<t>x<s>` workloads resolved by name (the same
/// seed the built-in `random-3x5` registration uses, so resolution and
/// registration agree).
pub const DEFAULT_RANDOM_SEED: u64 = 2005;

/// One parameterised workload-name family [`WorkloadRegistry::resolve`]
/// constructs on demand — the machine-readable form of "anything matching
/// this pattern is a valid workload name", served by the engine's
/// `list_workloads` introspection command and enumerated by sweep specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyInfo {
    /// The name prefix that routes into this family (`"random-"`).
    pub prefix: &'static str,
    /// The full name pattern (`"random-<tasks>x<subtasks>"`).
    pub pattern: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    /// The enumerable members of the family's inner parameter, when it has
    /// one (the fuzz DAG family names); empty for purely numeric families.
    pub members: Vec<&'static str>,
}

/// The parameterised name families every registry resolves on demand, in
/// stable order: `random-<tasks>x<subtasks>` and `fuzz-<family>-<seed>`.
pub fn parameterised_families() -> Vec<FamilyInfo> {
    vec![
        FamilyInfo {
            prefix: "random-",
            pattern: "random-<tasks>x<subtasks>",
            description: "parameterised layered random DAGs (TGFF-style) for scalability studies",
            members: Vec::new(),
        },
        FamilyInfo {
            prefix: "fuzz-",
            pattern: "fuzz-<family>-<seed>",
            description: "seeded DAG-family generators feeding the differential oracle",
            members: FuzzFamily::ALL.iter().map(|f| f.name()).collect(),
        },
    ]
}

/// The largest task or subtask count a `random-<tasks>x<subtasks>` name may
/// ask for: 256 subtasks is the widest graph any scheduler here accepts, and
/// the cap keeps [`random_task_set`]'s per-task configuration ranges
/// disjoint.
const MAX_RANDOM_COUNT: usize = 256;

fn parse_random_shape(name: &str, shape: &str) -> Result<(usize, usize), WorkloadError> {
    let malformed = |reason: String| WorkloadError::MalformedRandom {
        name: name.to_string(),
        reason,
    };
    let (tasks, subtasks) = shape.split_once('x').ok_or_else(|| {
        malformed(format!(
            "missing the `x` separator in the shape suffix {shape:?}"
        ))
    })?;
    let parse_count = |what: &str, raw: &str| -> Result<usize, WorkloadError> {
        let value: usize = raw
            .parse()
            .map_err(|_| malformed(format!("{what} count {raw:?} is not an integer")))?;
        if value == 0 {
            return Err(malformed(format!("{what} count must be at least 1")));
        }
        if value > MAX_RANDOM_COUNT {
            return Err(malformed(format!(
                "{what} count {value} is above the limit of {MAX_RANDOM_COUNT}"
            )));
        }
        Ok(value)
    };
    Ok((
        parse_count("task", tasks)?,
        parse_count("subtask", subtasks)?,
    ))
}

fn parse_fuzz_spec(name: &str, spec: &str) -> Result<(FuzzFamily, u64), WorkloadError> {
    let malformed = |reason: String| WorkloadError::MalformedFuzz {
        name: name.to_string(),
        reason,
    };
    let (family, seed) = spec.rsplit_once('-').ok_or_else(|| {
        malformed(format!(
            "missing the `-` separator between family and seed in {spec:?}"
        ))
    })?;
    let family = FuzzFamily::parse(family).ok_or_else(|| {
        let known: Vec<&str> = FuzzFamily::ALL.iter().map(|f| f.name()).collect();
        malformed(format!(
            "unknown family {family:?}; families: {}",
            known.join(", ")
        ))
    })?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| malformed(format!("seed {seed:?} is not an unsigned integer")))?;
    Ok((family, seed))
}

impl std::fmt::Debug for WorkloadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_the_paper_benchmarks() {
        let registry = WorkloadRegistry::with_builtins();
        assert_eq!(
            registry.names(),
            vec!["multimedia", "pocket_gl", "random-3x5"]
        );
        assert!(!registry.is_empty());
        assert_eq!(registry.len(), 3);
    }

    #[test]
    fn workload_task_sets_build_deterministically() {
        for workload in WorkloadRegistry::with_builtins().iter() {
            let a = workload.task_set();
            let b = workload.task_set();
            assert_eq!(a, b, "{}", workload.name());
            assert!(!a.tasks().is_empty(), "{}", workload.name());
            assert!(!workload.tile_sweep().is_empty(), "{}", workload.name());
            assert!(
                (0.0..=1.0).contains(&workload.task_inclusion_probability()),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn pocket_gl_exposes_the_twenty_inter_task_scenarios() {
        let combos = PocketGlWorkload.correlated_scenarios().unwrap();
        assert_eq!(combos.len(), 20);
        for combo in &combos {
            assert_eq!(combo.len(), TASK_COUNT);
        }
        assert!(MultimediaWorkload.correlated_scenarios().is_none());
    }

    #[test]
    fn random_workload_names_encode_their_shape() {
        let w = RandomDagWorkload::new(4, 8, 7);
        assert_eq!(w.name(), "random-4x8");
        assert_eq!(w.seed(), 7);
        let mut registry = WorkloadRegistry::new();
        registry.register(Arc::new(w));
        assert!(registry.get("random-4x8").is_some());
        assert!(registry.get("random-9x9").is_none());
    }

    #[test]
    fn resolve_constructs_parameterised_workloads_on_demand() {
        let registry = WorkloadRegistry::with_builtins();
        // Registered entries resolve to themselves.
        assert_eq!(registry.resolve("multimedia").unwrap().name(), "multimedia");
        // The registered random-3x5 and the resolved one agree (same seed).
        let registered = registry.get("random-3x5").unwrap().task_set();
        assert_eq!(
            registry.resolve("random-3x5").unwrap().task_set(),
            registered
        );
        // Unregistered shapes and fuzz names are constructed on demand.
        assert_eq!(registry.resolve("random-4x8").unwrap().name(), "random-4x8");
        assert_eq!(
            registry.resolve("fuzz-chain-7").unwrap().name(),
            "fuzz-chain-7"
        );
    }

    /// `Arc<dyn Workload>` has no `Debug`, so `unwrap_err` is unavailable.
    fn resolve_err(registry: &WorkloadRegistry, name: &str) -> WorkloadError {
        match registry.resolve(name) {
            Ok(w) => panic!("{name}: expected an error, resolved {}", w.name()),
            Err(e) => e,
        }
    }

    #[test]
    fn malformed_random_names_get_descriptive_errors() {
        let registry = WorkloadRegistry::with_builtins();
        for (name, needle) in [
            ("random-35", "missing the `x` separator"),
            ("random-x5", "not an integer"),
            ("random-3x", "not an integer"),
            ("random-3xfive", "not an integer"),
            ("random-0x5", "task count must be at least 1"),
            ("random-3x0", "subtask count must be at least 1"),
            ("random-3x5x7", "not an integer"),
            (
                "random-99999999999x1",
                "task count 99999999999 is above the limit of 256",
            ),
            (
                "random-1x257",
                "subtask count 257 is above the limit of 256",
            ),
        ] {
            let err = resolve_err(&registry, name);
            match &err {
                WorkloadError::MalformedRandom {
                    name: offending,
                    reason,
                } => {
                    assert_eq!(offending, name);
                    assert!(
                        reason.contains(needle),
                        "{name}: reason {reason:?} should mention {needle:?}"
                    );
                }
                other => panic!("{name}: expected MalformedRandom, got {other:?}"),
            }
            // The rendered message names the offending input and the shape.
            let message = err.to_string();
            assert!(message.contains(name), "{message}");
            assert!(message.contains("random-<tasks>x<subtasks>"), "{message}");
        }
    }

    #[test]
    fn malformed_fuzz_names_get_descriptive_errors() {
        let registry = WorkloadRegistry::with_builtins();
        let err = resolve_err(&registry, "fuzz-chain");
        assert!(matches!(err, WorkloadError::MalformedFuzz { .. }));
        let err = resolve_err(&registry, "fuzz-bogus-3");
        assert!(err.to_string().contains("unknown family"));
        let err = resolve_err(&registry, "fuzz-chain-x");
        assert!(err.to_string().contains("not an unsigned integer"));
        // Seeds parse greedily from the right: fuzz-chain-1-2 has family
        // "chain-1", which is unknown.
        let err = resolve_err(&registry, "fuzz-chain-1-2");
        assert!(err.to_string().contains("unknown family"));
    }

    #[test]
    fn unknown_names_list_the_registered_workloads() {
        let registry = WorkloadRegistry::with_builtins();
        let err = resolve_err(&registry, "nonsense");
        match &err {
            WorkloadError::Unknown { name, known } => {
                assert_eq!(name, "nonsense");
                assert!(known.iter().any(|n| n == "multimedia"));
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert!(err.to_string().contains("multimedia"));
    }

    #[test]
    fn registering_the_same_name_replaces_the_entry() {
        let mut registry = WorkloadRegistry::new();
        registry.register(Arc::new(RandomDagWorkload::new(2, 4, 1)));
        registry.register(Arc::new(RandomDagWorkload::new(2, 4, 99)));
        assert_eq!(registry.len(), 1);
        let entry = registry.get("random-2x4").unwrap();
        // Latest registration wins.
        let dag = entry.task_set();
        assert_eq!(dag, RandomDagWorkload::new(2, 4, 99).task_set());
    }
}
