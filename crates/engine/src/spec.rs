//! Job specifications: what a client submits to the engine.
//!
//! A [`JobSpec`] names a registered workload and the run parameters — the
//! policies to sweep, iteration count, seed and the optional
//! [`ConfigOverrides`]. It deliberately does **not** carry a task set:
//! workloads are resolved by name through the engine's
//! [`WorkloadRegistry`](drhw_workloads::WorkloadRegistry), which is what
//! makes specs small enough to ship over the JSON-lines wire and lets the
//! engine cache design-time work across jobs naming the same workload.
//!
//! The wire format is hand-rolled JSON (see [`crate::json`]); the
//! `serde` derives record serialisability for the day a real serde backend
//! is restored (the vendored stub has no runtime code).

use drhw_prefetch::{PolicyKind, ReplacementPolicy};
use drhw_sim::{PointSelection, ScenarioPolicy, SimulationConfig};
use drhw_workloads::Workload;
use serde::{Deserialize, Serialize};

use crate::error::EngineError;
use crate::json::JsonValue;

/// The most iterations one job may ask for, 1000× the paper's runs: a job's
/// chunk count and the per-iteration outcomes of a service-time measurement
/// grow with it.
const MAX_ITERATIONS: usize = 1_000_000;

/// Optional run-time configuration overrides of a job.
///
/// Only *run-time* knobs can be overridden per job. The design-time knobs
/// (`point_selection` being the exception: it participates in the plan-cache
/// key, so overriding it costs a separate cache entry rather than an error)
/// are fixed by the workload so cached plans stay valid.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigOverrides {
    /// Replacement policy used to map slots onto physical tiles.
    pub replacement: Option<ReplacementPolicy>,
    /// Initial-schedule selection strategy (part of the plan-cache key).
    pub point_selection: Option<PointSelection>,
    /// Iterations per independent chunk of parallel work.
    pub chunk_size: Option<usize>,
    /// Probability that each task of the set is activated per iteration
    /// (defaults to the workload's own value).
    pub task_inclusion_probability: Option<f64>,
}

impl ConfigOverrides {
    /// Whether no override is set.
    pub fn is_empty(&self) -> bool {
        *self == ConfigOverrides::default()
    }
}

/// One job: a workload name plus run parameters.
///
/// Build with [`JobSpec::new`] and the `with_*` methods, or parse one from
/// the JSON-lines wire with [`JobSpec::from_json`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Name of the workload, resolved through the engine's registry
    /// (built-ins, `random-<t>x<s>`, `fuzz-<family>-<seed>`, or anything
    /// registered at build time).
    pub workload: String,
    /// DRHW tile count of the simulated platform. `None` uses the first
    /// point of the workload's own tile sweep.
    pub tiles: Option<usize>,
    /// Policies to sweep, in order. Empty means all five, in
    /// [`PolicyKind::ALL`] order.
    pub policies: Vec<PolicyKind>,
    /// Iteration count. `None` uses the engine's default configuration.
    pub iterations: Option<usize>,
    /// Master seed. `None` uses the engine's default configuration.
    pub seed: Option<u64>,
    /// Run-time configuration overrides.
    pub overrides: ConfigOverrides,
}

impl JobSpec {
    /// A spec for `workload` with every parameter at its default.
    pub fn new(workload: impl Into<String>) -> Self {
        JobSpec {
            workload: workload.into(),
            tiles: None,
            policies: Vec::new(),
            iterations: None,
            seed: None,
            overrides: ConfigOverrides::default(),
        }
    }

    /// Returns a copy with an explicit tile count.
    #[must_use]
    pub fn with_tiles(mut self, tiles: usize) -> Self {
        self.tiles = Some(tiles);
        self
    }

    /// Returns a copy sweeping exactly the given policies.
    #[must_use]
    pub fn with_policies(mut self, policies: impl Into<Vec<PolicyKind>>) -> Self {
        self.policies = policies.into();
        self
    }

    /// Returns a copy with an explicit iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Returns a copy with an explicit seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Returns a copy with a replacement-policy override.
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.overrides.replacement = Some(replacement);
        self
    }

    /// Returns a copy with a point-selection override.
    #[must_use]
    pub fn with_point_selection(mut self, point_selection: PointSelection) -> Self {
        self.overrides.point_selection = Some(point_selection);
        self
    }

    /// Returns a copy with a chunk-size override.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.overrides.chunk_size = Some(chunk_size);
        self
    }

    /// Returns a copy with a task-inclusion-probability override.
    #[must_use]
    pub fn with_task_inclusion_probability(mut self, probability: f64) -> Self {
        self.overrides.task_inclusion_probability = Some(probability);
        self
    }

    /// The policies this job sweeps: the explicit list, or all five.
    pub fn resolved_policies(&self) -> Vec<PolicyKind> {
        if self.policies.is_empty() {
            PolicyKind::ALL.to_vec()
        } else {
            self.policies.clone()
        }
    }

    /// The point-selection strategy this job runs under (override or the
    /// engine default) — the third component of the plan-cache key.
    pub fn resolved_point_selection(&self, default: &SimulationConfig) -> PointSelection {
        self.overrides
            .point_selection
            .unwrap_or(default.point_selection)
    }

    /// The tile count this job simulates: the explicit value, or the first
    /// point of the workload's own tile sweep.
    pub fn resolved_tiles(&self, workload: &dyn Workload) -> usize {
        self.tiles.unwrap_or(*workload.tile_sweep().start())
    }

    /// Builds the full [`SimulationConfig`] of this job: the engine default,
    /// the workload-fixed knobs (inclusion probability, correlated
    /// scenarios), the spec's iteration count and seed, then the overrides.
    ///
    /// This mirrors exactly how the pre-engine experiment harness derived
    /// configurations (`drhw_bench::experiments::workload_config`), which is
    /// what makes engine reports bit-identical to the old API's.
    pub fn config_for(
        &self,
        workload: &dyn Workload,
        default: &SimulationConfig,
    ) -> SimulationConfig {
        let mut config = default.clone();
        if let Some(iterations) = self.iterations {
            config.iterations = iterations;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        config.task_inclusion_probability = workload.task_inclusion_probability();
        config.scenario_policy = match workload.correlated_scenarios() {
            Some(combos) => ScenarioPolicy::Correlated(combos),
            None => ScenarioPolicy::Independent,
        };
        if let Some(replacement) = self.overrides.replacement {
            config.replacement = replacement;
        }
        if let Some(point_selection) = self.overrides.point_selection {
            config.point_selection = point_selection;
        }
        if let Some(chunk_size) = self.overrides.chunk_size {
            config.chunk_size = chunk_size;
        }
        if let Some(probability) = self.overrides.task_inclusion_probability {
            config.task_inclusion_probability = probability;
        }
        config
    }

    /// Validates the spec fields that can be checked without resolving the
    /// workload (the registry reports unknown names itself).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.workload.is_empty() {
            return Err(EngineError::InvalidSpec {
                field: "workload",
                reason: "must name a registered workload".to_string(),
            });
        }
        if self.tiles == Some(0) {
            return Err(EngineError::InvalidSpec {
                field: "tiles",
                reason: "the platform needs at least one tile".to_string(),
            });
        }
        for (index, policy) in self.policies.iter().enumerate() {
            if self.policies[..index].contains(policy) {
                return Err(EngineError::InvalidSpec {
                    field: "policies",
                    reason: format!("policy {policy} appears twice"),
                });
            }
        }
        if self.iterations == Some(0) {
            return Err(EngineError::InvalidSpec {
                field: "iterations",
                reason: "the simulation needs at least one iteration".to_string(),
            });
        }
        if let Some(iterations) = self.iterations.filter(|&n| n > MAX_ITERATIONS) {
            return Err(EngineError::InvalidSpec {
                field: "iterations",
                reason: format!("{iterations} is above the limit of {MAX_ITERATIONS} per job"),
            });
        }
        if self.overrides.chunk_size == Some(0) {
            return Err(EngineError::InvalidSpec {
                field: "chunk_size",
                reason: "chunks need at least one iteration each".to_string(),
            });
        }
        if let Some(p) = self.overrides.task_inclusion_probability {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(EngineError::InvalidSpec {
                    field: "task_inclusion_probability",
                    reason: format!("{p} is outside [0, 1]"),
                });
            }
        }
        Ok(())
    }

    /// Parses a spec from a JSON object — strictly: a field that is not part
    /// of the [`JOB_SPEC_FIELDS`] wire schema, or appears twice, is rejected
    /// (with the nearest valid field name), never silently ignored.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] naming the offending field,
    /// [`EngineError::UnknownField`] or [`EngineError::DuplicateField`].
    pub fn from_json(value: &JsonValue) -> Result<Self, EngineError> {
        Self::from_json_with(value, &[])
    }

    /// [`from_json`](Self::from_json) for protocol layers that wrap a spec
    /// object in envelope fields (the v1 request line carries `id`,
    /// `progress`, `priority` beside the spec): `envelope` names the extra
    /// top-level fields the strict check tolerates.
    ///
    /// # Errors
    ///
    /// As [`from_json`](Self::from_json).
    pub fn from_json_with(value: &JsonValue, envelope: &[&str]) -> Result<Self, EngineError> {
        let invalid =
            |field: &'static str, reason: String| EngineError::InvalidSpec { field, reason };
        let Some(entries) = value.entries() else {
            return Err(invalid(
                "job",
                "each line must be a JSON object".to_string(),
            ));
        };
        let valid: Vec<&str> = JOB_SPEC_FIELDS.iter().map(|f| f.name).collect();
        check_object_fields(entries, "job spec", &valid, envelope)?;
        let workload = match value.get("workload") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| invalid("workload", format!("expected a string, got {v:?}")))?
                .to_string(),
            None => return Err(invalid("workload", "missing required field".to_string())),
        };
        let mut spec = JobSpec::new(workload);
        if let Some(v) = value.get("tiles") {
            spec.tiles = Some(v.as_usize().ok_or_else(|| {
                invalid("tiles", format!("expected an unsigned integer, got {v:?}"))
            })?);
        }
        if let Some(v) = value.get("iterations") {
            spec.iterations = Some(v.as_usize().ok_or_else(|| {
                invalid(
                    "iterations",
                    format!("expected an unsigned integer, got {v:?}"),
                )
            })?);
        }
        if let Some(v) = value.get("seed") {
            spec.seed = Some(v.as_u64().ok_or_else(|| {
                invalid("seed", format!("expected an unsigned integer, got {v:?}"))
            })?);
        }
        if let Some(v) = value.get("policies") {
            let items = v
                .as_array()
                .ok_or_else(|| invalid("policies", format!("expected an array, got {v:?}")))?;
            for item in items {
                let name = item.as_str().ok_or_else(|| {
                    invalid("policies", format!("expected a string, got {item:?}"))
                })?;
                let policy = PolicyKind::parse(name).ok_or_else(|| {
                    let known: Vec<String> =
                        PolicyKind::ALL.iter().map(|p| p.to_string()).collect();
                    invalid(
                        "policies",
                        format!("unknown policy {name:?}; known: {}", known.join(", ")),
                    )
                })?;
                spec.policies.push(policy);
            }
        }
        if let Some(v) = value.get("replacement") {
            let name = v
                .as_str()
                .ok_or_else(|| invalid("replacement", format!("expected a string, got {v:?}")))?;
            spec.overrides.replacement = Some(ReplacementPolicy::parse(name).ok_or_else(|| {
                invalid(
                    "replacement",
                    format!("unknown replacement policy {name:?}; known: reuse-aware, lru, direct"),
                )
            })?);
        }
        if let Some(v) = value.get("point_selection") {
            let name = v.as_str().ok_or_else(|| {
                invalid("point_selection", format!("expected a string, got {v:?}"))
            })?;
            spec.overrides.point_selection =
                Some(parse_point_selection(name).ok_or_else(|| {
                    invalid(
                        "point_selection",
                        format!(
                            "unknown point selection {name:?}; known: fully-parallel, fastest, \
                         energy-aware"
                        ),
                    )
                })?);
        }
        if let Some(v) = value.get("chunk_size") {
            spec.overrides.chunk_size = Some(v.as_usize().ok_or_else(|| {
                invalid(
                    "chunk_size",
                    format!("expected an unsigned integer, got {v:?}"),
                )
            })?);
        }
        if let Some(v) = value.get("task_inclusion_probability") {
            spec.overrides.task_inclusion_probability = Some(v.as_f64().ok_or_else(|| {
                invalid(
                    "task_inclusion_probability",
                    format!("expected a number, got {v:?}"),
                )
            })?);
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec as a JSON object — the inverse of
    /// [`from_json`](Self::from_json); optional fields are omitted when
    /// unset.
    pub fn to_json(&self) -> JsonValue {
        let mut entries = vec![(
            "workload".to_string(),
            JsonValue::String(self.workload.clone()),
        )];
        if let Some(tiles) = self.tiles {
            entries.push(("tiles".to_string(), JsonValue::UInt(tiles as u64)));
        }
        if !self.policies.is_empty() {
            entries.push((
                "policies".to_string(),
                JsonValue::Array(
                    self.policies
                        .iter()
                        .map(|p| JsonValue::String(p.to_string()))
                        .collect(),
                ),
            ));
        }
        if let Some(iterations) = self.iterations {
            entries.push(("iterations".to_string(), JsonValue::UInt(iterations as u64)));
        }
        if let Some(seed) = self.seed {
            entries.push(("seed".to_string(), JsonValue::UInt(seed)));
        }
        if let Some(replacement) = self.overrides.replacement {
            entries.push((
                "replacement".to_string(),
                JsonValue::String(replacement.to_string()),
            ));
        }
        if let Some(point_selection) = self.overrides.point_selection {
            entries.push((
                "point_selection".to_string(),
                JsonValue::String(point_selection_name(point_selection).to_string()),
            ));
        }
        if let Some(chunk_size) = self.overrides.chunk_size {
            entries.push(("chunk_size".to_string(), JsonValue::UInt(chunk_size as u64)));
        }
        if let Some(probability) = self.overrides.task_inclusion_probability {
            entries.push((
                "task_inclusion_probability".to_string(),
                JsonValue::Float(probability),
            ));
        }
        JsonValue::Object(entries)
    }
}

/// One row of a wire-schema field table: enough for the `describe_spec`
/// introspection reply and for the strict parser's suggestions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecField {
    /// The wire name of the field.
    pub name: &'static str,
    /// A short JSON-ish type description (`"string"`, `"uint"`, …).
    pub kind: &'static str,
    /// Whether the field must be present.
    pub required: bool,
    /// One-line description for the introspection reply.
    pub description: &'static str,
}

/// The wire schema of a [`JobSpec`] object: every field a request line (or
/// the `spec` object of a v2 envelope) may carry. The strict parser rejects
/// anything else, and `describe_spec` serves this table verbatim.
pub const JOB_SPEC_FIELDS: [SpecField; 9] = [
    SpecField {
        name: "workload",
        kind: "string",
        required: true,
        description: "registered workload name (see list_workloads)",
    },
    SpecField {
        name: "tiles",
        kind: "uint",
        required: false,
        description: "DRHW tile count; defaults to the workload's first sweep point",
    },
    SpecField {
        name: "policies",
        kind: "array of strings",
        required: false,
        description: "prefetch policies to sweep, in order; empty/absent means all five",
    },
    SpecField {
        name: "iterations",
        kind: "uint",
        required: false,
        description: "iteration count; defaults to the engine configuration",
    },
    SpecField {
        name: "seed",
        kind: "uint",
        required: false,
        description: "master seed; defaults to the engine configuration",
    },
    SpecField {
        name: "replacement",
        kind: "string",
        required: false,
        description: "replacement-policy override (reuse-aware, lru, direct)",
    },
    SpecField {
        name: "point_selection",
        kind: "string",
        required: false,
        description: "schedule-selection override (fully-parallel, fastest, energy-aware)",
    },
    SpecField {
        name: "chunk_size",
        kind: "uint",
        required: false,
        description: "iterations per independent chunk of parallel work",
    },
    SpecField {
        name: "task_inclusion_probability",
        kind: "number",
        required: false,
        description: "per-iteration task activation probability in [0, 1]",
    },
];

/// Levenshtein edit distance — small inputs only (field names), so the full
/// DP table is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            current[j + 1] = substitute.min(prev[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// The valid field name nearest to `field` by edit distance (ties break to
/// the earlier entry, so suggestions are deterministic).
pub fn nearest_field(field: &str, valid: &[&str]) -> String {
    valid
        .iter()
        .min_by_key(|candidate| edit_distance(field, candidate))
        .unwrap_or(&"")
        .to_string()
}

/// Strictly checks an object's keys: every key must be one of `valid` or
/// `extra` (envelope fields of the surrounding protocol layer), and no key
/// may appear twice. `context` names the object kind in error messages.
///
/// # Errors
///
/// [`EngineError::UnknownField`] (with the nearest valid name) or
/// [`EngineError::DuplicateField`].
pub fn check_object_fields(
    entries: &[(String, JsonValue)],
    context: &'static str,
    valid: &[&str],
    extra: &[&str],
) -> Result<(), EngineError> {
    for (index, (key, _)) in entries.iter().enumerate() {
        if entries[..index].iter().any(|(earlier, _)| earlier == key) {
            return Err(EngineError::DuplicateField {
                context,
                field: key.clone(),
            });
        }
        if !valid.contains(&key.as_str()) && !extra.contains(&key.as_str()) {
            let mut candidates: Vec<&str> = valid.to_vec();
            candidates.extend_from_slice(extra);
            return Err(EngineError::UnknownField {
                context,
                field: key.clone(),
                nearest: nearest_field(key, &candidates),
            });
        }
    }
    Ok(())
}

/// The stable wire name of a point-selection strategy.
pub fn point_selection_name(point_selection: PointSelection) -> &'static str {
    match point_selection {
        PointSelection::FullyParallel => "fully-parallel",
        PointSelection::Fastest => "fastest",
        PointSelection::EnergyAware => "energy-aware",
    }
}

/// Parses the stable wire name of a point-selection strategy.
pub fn parse_point_selection(name: &str) -> Option<PointSelection> {
    match name {
        "fully-parallel" => Some(PointSelection::FullyParallel),
        "fastest" => Some(PointSelection::Fastest),
        "energy-aware" => Some(PointSelection::EnergyAware),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use drhw_workloads::MultimediaWorkload;

    #[test]
    fn config_for_mirrors_the_workload_and_overrides() {
        let spec = JobSpec::new("multimedia")
            .with_iterations(120)
            .with_seed(7)
            .with_replacement(ReplacementPolicy::Direct)
            .with_chunk_size(16);
        let config = spec.config_for(&MultimediaWorkload, &SimulationConfig::default());
        assert_eq!(config.iterations, 120);
        assert_eq!(config.seed, 7);
        assert_eq!(config.replacement, ReplacementPolicy::Direct);
        assert_eq!(config.chunk_size, 16);
        assert_eq!(
            config.task_inclusion_probability,
            MultimediaWorkload.task_inclusion_probability()
        );
        assert_eq!(config.scenario_policy, ScenarioPolicy::Independent);
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let spec = JobSpec::new("pocket_gl")
            .with_tiles(6)
            .with_policies([PolicyKind::Hybrid, PolicyKind::NoPrefetch])
            .with_iterations(33)
            .with_seed(u64::MAX)
            .with_replacement(ReplacementPolicy::LeastRecentlyUsed)
            .with_point_selection(PointSelection::Fastest)
            .with_chunk_size(8)
            .with_task_inclusion_probability(0.5);
        let json = spec.to_json().to_json();
        let parsed = JobSpec::from_json(&parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn minimal_spec_defaults_everything_else() {
        let spec = JobSpec::from_json(&parse(r#"{"workload":"multimedia"}"#).unwrap()).unwrap();
        assert_eq!(spec, JobSpec::new("multimedia"));
        assert_eq!(spec.resolved_policies(), PolicyKind::ALL.to_vec());
        assert_eq!(spec.resolved_tiles(&MultimediaWorkload), 8);
    }

    #[test]
    fn parse_errors_name_the_offending_field() {
        for (line, field, needle) in [
            (r#"{"tiles":4}"#, "`workload`", "missing"),
            (
                r#"{"workload":"m","tiles":"x"}"#,
                "`tiles`",
                "unsigned integer",
            ),
            (
                r#"{"workload":"m","tiles":0}"#,
                "`tiles`",
                "at least one tile",
            ),
            (
                r#"{"workload":"m","policies":["turbo"]}"#,
                "`policies`",
                "turbo",
            ),
            (
                r#"{"workload":"m","policies":["hybrid","run-time","hybrid"]}"#,
                "`policies`",
                "policy hybrid appears twice",
            ),
            (
                r#"{"workload":"m","replacement":"fifo"}"#,
                "`replacement`",
                "fifo",
            ),
            (
                r#"{"workload":"m","point_selection":"psychic"}"#,
                "`point_selection`",
                "psychic",
            ),
            (
                r#"{"workload":"m","iterations":0}"#,
                "`iterations`",
                "at least one",
            ),
            (
                r#"{"workload":"multimedia","tiles":8,"iterations":18446744073709551615}"#,
                "`iterations`",
                "limit of 1000000",
            ),
            (
                r#"{"workload":"m","task_inclusion_probability":1.5}"#,
                "`task_inclusion_probability`",
                "outside [0, 1]",
            ),
            (r#"{"workload":""}"#, "`workload`", "must name"),
        ] {
            let err = JobSpec::from_json(&parse(line).unwrap()).unwrap_err();
            let message = err.to_string();
            assert!(
                message.contains(field) && message.contains(needle),
                "{line}: message {message:?} must contain {field} and {needle:?}"
            );
        }
    }

    #[test]
    fn point_selection_names_round_trip() {
        for ps in [
            PointSelection::FullyParallel,
            PointSelection::Fastest,
            PointSelection::EnergyAware,
        ] {
            assert_eq!(parse_point_selection(point_selection_name(ps)), Some(ps));
        }
        assert_eq!(parse_point_selection("bogus"), None);
    }
}
