//! Traffic scenarios: the declarative spec a `traffic` run executes.
//!
//! A [`TrafficScenario`] binds generators × workloads × policies to a
//! virtual-clock horizon: every (generator, workload, policy) triple becomes
//! one *cell*, an independent queueing run sharing the generator's arrival
//! stream (arrivals depend only on `(seed, generator)`, so cells of one
//! generator are paired across workloads and policies). The grammar is
//! hand-rolled JSON parsed strictly, like `ExperimentSpec`: unknown or
//! duplicate fields are rejected with the nearest valid name.

use drhw_engine::json::JsonValue;
use drhw_engine::{check_object_fields, JobSpec};
use drhw_prefetch::PolicyKind;

use crate::generator::{OnOffGenerator, PoissonGenerator, TraceGenerator, TrafficGenerator};
use crate::TrafficError;

/// Default master seed of a scenario.
pub const DEFAULT_SEED: u64 = 2005;
/// Default number of service slots.
pub const DEFAULT_SLOTS: usize = 1;
/// Default size of the per-(workload, policy) service-time pool, i.e. the
/// `iterations` of the measurement job service times are sampled from.
pub const DEFAULT_ITERATIONS: usize = 200;

/// The wire fields of a scenario object.
pub const SCENARIO_FIELDS: [&str; 11] = [
    "scenario",
    "seed",
    "slots",
    "duration_ms",
    "warmup_ms",
    "iterations",
    "queue_capacity",
    "tiles",
    "generators",
    "workloads",
    "policies",
];

/// The wire fields of a generator object.
pub const GENERATOR_FIELDS: [&str; 8] = [
    "name",
    "kind",
    "rate_per_sec",
    "rate_on_per_sec",
    "rate_off_per_sec",
    "mean_on_ms",
    "mean_off_ms",
    "path",
];

/// The arrival process a [`GeneratorSpec`] instantiates.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorKind {
    /// Poisson arrivals at a fixed rate (per second).
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Bursty on-off (two-state MMPP) arrivals.
    OnOff {
        /// Arrival rate during the on phase (per second, must be positive).
        rate_on_per_sec: f64,
        /// Arrival rate during the off phase (per second, may be zero).
        rate_off_per_sec: f64,
        /// Mean on-phase duration in milliseconds.
        mean_on_ms: f64,
        /// Mean off-phase duration in milliseconds.
        mean_off_ms: f64,
    },
    /// Replay of a recorded JSONL arrival trace.
    Trace {
        /// Path of the trace file, resolved against the scenario file's
        /// directory by the runner.
        path: String,
    },
}

/// One named arrival process of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorSpec {
    /// Label of the generator — appears in every record and names the
    /// recorded trace file (`trace-<name>.jsonl`), so it must be
    /// filename-safe (`[A-Za-z0-9_-]`).
    pub name: String,
    /// The arrival process.
    pub kind: GeneratorKind,
}

impl GeneratorSpec {
    /// Instantiates the generator. Random generators draw from a SplitMix64
    /// stream derived from `(master_seed, generator index)`; trace replay
    /// takes its pre-loaded arrivals (`trace` must be `Some` exactly for
    /// [`GeneratorKind::Trace`]).
    pub fn build(&self, seed: u64, trace: Option<Vec<u64>>) -> Box<dyn TrafficGenerator> {
        match &self.kind {
            GeneratorKind::Poisson { rate_per_sec } => {
                Box::new(PoissonGenerator::new(seed, *rate_per_sec))
            }
            GeneratorKind::OnOff {
                rate_on_per_sec,
                rate_off_per_sec,
                mean_on_ms,
                mean_off_ms,
            } => Box::new(OnOffGenerator::new(
                seed,
                *rate_on_per_sec,
                *rate_off_per_sec,
                *mean_on_ms,
                *mean_off_ms,
            )),
            GeneratorKind::Trace { .. } => Box::new(TraceGenerator::from_arrivals(
                trace.expect("trace generators are built with pre-loaded arrivals"),
            )),
        }
    }

    fn to_json(&self) -> JsonValue {
        let mut entries = vec![("name".to_string(), JsonValue::String(self.name.clone()))];
        match &self.kind {
            GeneratorKind::Poisson { rate_per_sec } => {
                entries.push(("kind".to_string(), JsonValue::String("poisson".into())));
                entries.push(("rate_per_sec".to_string(), JsonValue::Float(*rate_per_sec)));
            }
            GeneratorKind::OnOff {
                rate_on_per_sec,
                rate_off_per_sec,
                mean_on_ms,
                mean_off_ms,
            } => {
                entries.push(("kind".to_string(), JsonValue::String("onoff".into())));
                entries.push((
                    "rate_on_per_sec".to_string(),
                    JsonValue::Float(*rate_on_per_sec),
                ));
                entries.push((
                    "rate_off_per_sec".to_string(),
                    JsonValue::Float(*rate_off_per_sec),
                ));
                entries.push(("mean_on_ms".to_string(), JsonValue::Float(*mean_on_ms)));
                entries.push(("mean_off_ms".to_string(), JsonValue::Float(*mean_off_ms)));
            }
            GeneratorKind::Trace { path } => {
                entries.push(("kind".to_string(), JsonValue::String("trace".into())));
                entries.push(("path".to_string(), JsonValue::String(path.clone())));
            }
        }
        JsonValue::Object(entries)
    }
}

/// A full scenario: generators × workloads × policies over one horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficScenario {
    /// Name of the scenario — names the session directory, so it must be
    /// filename-safe (`[A-Za-z0-9_-]`).
    pub scenario: String,
    /// Master seed every stream of randomness is derived from.
    pub seed: u64,
    /// Number of parallel service slots jobs are dispatched onto.
    pub slots: usize,
    /// Virtual-clock horizon: arrivals stop at this time (milliseconds).
    pub duration_ms: u64,
    /// Jobs arriving before this virtual time are excluded from every
    /// latency, throughput and utilization statistic (milliseconds).
    pub warmup_ms: u64,
    /// Iterations of the per-(workload, policy) measurement job — the size
    /// of the service-time pool jobs sample from.
    pub iterations: usize,
    /// Bound on the waiting queue per cell; arrivals beyond it are dropped.
    /// `None` means unbounded.
    pub queue_capacity: Option<usize>,
    /// Tile count override for the measurement jobs (`None`: workload
    /// default).
    pub tiles: Option<usize>,
    /// The arrival processes.
    pub generators: Vec<GeneratorSpec>,
    /// Workload names, resolved through the engine registry.
    pub workloads: Vec<String>,
    /// Policies to sweep. Empty means all five, in [`PolicyKind::ALL`]
    /// order.
    pub policies: Vec<PolicyKind>,
}

fn filename_safe(value: &str) -> bool {
    !value.is_empty()
        && value
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

fn invalid(field: &'static str, reason: String) -> TrafficError {
    TrafficError::Scenario { field, reason }
}

impl TrafficScenario {
    /// The policies this scenario sweeps: the explicit list, or all five.
    pub fn resolved_policies(&self) -> Vec<PolicyKind> {
        if self.policies.is_empty() {
            PolicyKind::ALL.to_vec()
        } else {
            self.policies.clone()
        }
    }

    /// The cells of the scenario in canonical (generator, workload, policy)
    /// order — the order cells run and appear in every output file.
    pub fn cells(&self) -> Vec<(usize, usize, PolicyKind)> {
        let policies = self.resolved_policies();
        let mut cells = Vec::new();
        for generator in 0..self.generators.len() {
            for workload in 0..self.workloads.len() {
                for &policy in &policies {
                    cells.push((generator, workload, policy));
                }
            }
        }
        cells
    }

    /// The measurement job of one workload of this scenario. The seed is
    /// the scenario's master seed: service pools depend on (seed, workload,
    /// tiles, iterations) and nothing else.
    pub fn measurement_spec(&self, workload: &str) -> JobSpec {
        let mut spec = JobSpec::new(workload)
            .with_iterations(self.iterations)
            .with_seed(self.seed)
            .with_policies(self.resolved_policies());
        if let Some(tiles) = self.tiles {
            spec = spec.with_tiles(tiles);
        }
        spec
    }

    /// Validates every cross-field constraint.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::Scenario`] naming the offending field.
    pub fn validate(&self) -> Result<(), TrafficError> {
        if !filename_safe(&self.scenario) {
            return Err(invalid(
                "scenario",
                format!(
                    "{:?} must be non-empty and use only [A-Za-z0-9_-]",
                    self.scenario
                ),
            ));
        }
        if self.slots == 0 {
            return Err(invalid("slots", "need at least one service slot".into()));
        }
        if self.duration_ms == 0 {
            return Err(invalid(
                "duration_ms",
                "the horizon must be positive".into(),
            ));
        }
        if self.warmup_ms >= self.duration_ms {
            return Err(invalid(
                "warmup_ms",
                format!(
                    "warmup ({} ms) must end before the horizon ({} ms)",
                    self.warmup_ms, self.duration_ms
                ),
            ));
        }
        if self.iterations == 0 {
            return Err(invalid(
                "iterations",
                "the service pool needs at least one measured iteration".into(),
            ));
        }
        if self.queue_capacity == Some(0) {
            return Err(invalid(
                "queue_capacity",
                "a bounded queue needs capacity for at least one job \
                 (omit the field for an unbounded queue)"
                    .into(),
            ));
        }
        if self.generators.is_empty() {
            return Err(invalid("generators", "need at least one generator".into()));
        }
        for (index, generator) in self.generators.iter().enumerate() {
            if !filename_safe(&generator.name) {
                return Err(invalid(
                    "generators",
                    format!(
                        "generator {index}: name {:?} must be non-empty and use \
                         only [A-Za-z0-9_-]",
                        generator.name
                    ),
                ));
            }
            if self.generators[..index]
                .iter()
                .any(|earlier| earlier.name == generator.name)
            {
                return Err(invalid(
                    "generators",
                    format!("generator name {:?} appears twice", generator.name),
                ));
            }
            let positive = |field: &str, value: f64| {
                if value.is_finite() && value > 0.0 {
                    Ok(())
                } else {
                    Err(invalid(
                        "generators",
                        format!(
                            "generator {:?}: {field} must be positive and finite, got {value}",
                            generator.name
                        ),
                    ))
                }
            };
            match &generator.kind {
                GeneratorKind::Poisson { rate_per_sec } => {
                    positive("rate_per_sec", *rate_per_sec)?;
                }
                GeneratorKind::OnOff {
                    rate_on_per_sec,
                    rate_off_per_sec,
                    mean_on_ms,
                    mean_off_ms,
                } => {
                    positive("rate_on_per_sec", *rate_on_per_sec)?;
                    positive("mean_on_ms", *mean_on_ms)?;
                    positive("mean_off_ms", *mean_off_ms)?;
                    if !rate_off_per_sec.is_finite() || *rate_off_per_sec < 0.0 {
                        return Err(invalid(
                            "generators",
                            format!(
                                "generator {:?}: rate_off_per_sec must be \
                                 non-negative and finite, got {rate_off_per_sec}",
                                generator.name
                            ),
                        ));
                    }
                }
                GeneratorKind::Trace { path } => {
                    if path.is_empty() {
                        return Err(invalid(
                            "generators",
                            format!("generator {:?}: path must be non-empty", generator.name),
                        ));
                    }
                }
            }
        }
        if self.workloads.is_empty() {
            return Err(invalid("workloads", "need at least one workload".into()));
        }
        for (index, workload) in self.workloads.iter().enumerate() {
            if workload.is_empty() {
                return Err(invalid(
                    "workloads",
                    format!("workload {index} must be a non-empty name"),
                ));
            }
            if self.workloads[..index].contains(workload) {
                return Err(invalid(
                    "workloads",
                    format!("workload {workload:?} appears twice"),
                ));
            }
        }
        let policies = self.resolved_policies();
        for (index, policy) in policies.iter().enumerate() {
            if policies[..index].contains(policy) {
                return Err(invalid(
                    "policies",
                    format!("policy {policy} appears twice"),
                ));
            }
        }
        if self.tiles == Some(0) {
            return Err(invalid(
                "tiles",
                "the platform needs at least one tile".into(),
            ));
        }
        Ok(())
    }

    /// Parses a scenario from JSON text — strictly: unknown or duplicate
    /// fields are rejected with the nearest valid name, like every other
    /// wire object of the workspace.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::Scenario`] (or a wrapped [`EngineError`](drhw_engine::EngineError) for
    /// malformed JSON / field-set violations).
    pub fn from_json_text(text: &str) -> Result<Self, TrafficError> {
        let value = drhw_engine::json::parse(text)
            .map_err(|e| invalid("scenario", format!("malformed JSON: {e}")))?;
        Self::from_json(&value)
    }

    /// Parses a scenario from a JSON value. See
    /// [`from_json_text`](Self::from_json_text).
    ///
    /// # Errors
    ///
    /// As [`from_json_text`](Self::from_json_text).
    pub fn from_json(value: &JsonValue) -> Result<Self, TrafficError> {
        let Some(entries) = value.entries() else {
            return Err(invalid("scenario", "expected a JSON object".into()));
        };
        check_object_fields(entries, "traffic scenario", &SCENARIO_FIELDS, &[])
            .map_err(TrafficError::Engine)?;

        let scenario = match value.get("scenario") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| invalid("scenario", format!("expected a string, got {v:?}")))?
                .to_string(),
            None => return Err(invalid("scenario", "missing required field".into())),
        };
        let u64_field = |field: &'static str| -> Result<Option<u64>, TrafficError> {
            match value.get(field) {
                Some(v) => Ok(Some(v.as_u64().ok_or_else(|| {
                    invalid(field, format!("expected an unsigned integer, got {v:?}"))
                })?)),
                None => Ok(None),
            }
        };
        let usize_field = |field: &'static str| -> Result<Option<usize>, TrafficError> {
            match value.get(field) {
                Some(v) => Ok(Some(v.as_usize().ok_or_else(|| {
                    invalid(field, format!("expected an unsigned integer, got {v:?}"))
                })?)),
                None => Ok(None),
            }
        };

        let seed = u64_field("seed")?.unwrap_or(DEFAULT_SEED);
        let slots = usize_field("slots")?.unwrap_or(DEFAULT_SLOTS);
        let duration_ms = u64_field("duration_ms")?
            .ok_or_else(|| invalid("duration_ms", "missing required field".into()))?;
        let warmup_ms = u64_field("warmup_ms")?.unwrap_or(0);
        let iterations = usize_field("iterations")?.unwrap_or(DEFAULT_ITERATIONS);
        let queue_capacity = usize_field("queue_capacity")?;
        let tiles = usize_field("tiles")?;

        let generator_items = match value.get("generators") {
            Some(v) => v
                .as_array()
                .ok_or_else(|| invalid("generators", format!("expected an array, got {v:?}")))?,
            None => return Err(invalid("generators", "missing required field".into())),
        };
        let mut generators = Vec::with_capacity(generator_items.len());
        for item in generator_items {
            generators.push(parse_generator(item)?);
        }

        let workloads = match value.get("workloads") {
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| invalid("workloads", format!("expected an array, got {v:?}")))?;
                items
                    .iter()
                    .map(|item| {
                        item.as_str().map(str::to_string).ok_or_else(|| {
                            invalid("workloads", format!("expected a string, got {item:?}"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            None => return Err(invalid("workloads", "missing required field".into())),
        };

        let mut policies = Vec::new();
        if let Some(v) = value.get("policies") {
            let items = v
                .as_array()
                .ok_or_else(|| invalid("policies", format!("expected an array, got {v:?}")))?;
            for item in items {
                let name = item.as_str().ok_or_else(|| {
                    invalid("policies", format!("expected a string, got {item:?}"))
                })?;
                policies.push(PolicyKind::parse(name).ok_or_else(|| {
                    let known: Vec<String> =
                        PolicyKind::ALL.iter().map(|p| p.to_string()).collect();
                    invalid(
                        "policies",
                        format!("unknown policy {name:?}; known: {}", known.join(", ")),
                    )
                })?);
            }
        }

        let scenario = TrafficScenario {
            scenario,
            seed,
            slots,
            duration_ms,
            warmup_ms,
            iterations,
            queue_capacity,
            tiles,
            generators,
            workloads,
            policies,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Renders the scenario as a JSON object — the inverse of
    /// [`from_json`](Self::from_json); optional fields are omitted when at
    /// their defaults.
    pub fn to_json(&self) -> JsonValue {
        let mut entries = vec![
            (
                "scenario".to_string(),
                JsonValue::String(self.scenario.clone()),
            ),
            ("seed".to_string(), JsonValue::UInt(self.seed)),
            ("slots".to_string(), JsonValue::UInt(self.slots as u64)),
            ("duration_ms".to_string(), JsonValue::UInt(self.duration_ms)),
            ("warmup_ms".to_string(), JsonValue::UInt(self.warmup_ms)),
            (
                "iterations".to_string(),
                JsonValue::UInt(self.iterations as u64),
            ),
        ];
        if let Some(capacity) = self.queue_capacity {
            entries.push((
                "queue_capacity".to_string(),
                JsonValue::UInt(capacity as u64),
            ));
        }
        if let Some(tiles) = self.tiles {
            entries.push(("tiles".to_string(), JsonValue::UInt(tiles as u64)));
        }
        entries.push((
            "generators".to_string(),
            JsonValue::Array(self.generators.iter().map(GeneratorSpec::to_json).collect()),
        ));
        entries.push((
            "workloads".to_string(),
            JsonValue::Array(
                self.workloads
                    .iter()
                    .map(|w| JsonValue::String(w.clone()))
                    .collect(),
            ),
        ));
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
        JsonValue::Object(entries)
    }
}

fn parse_generator(value: &JsonValue) -> Result<GeneratorSpec, TrafficError> {
    let Some(entries) = value.entries() else {
        return Err(invalid(
            "generators",
            format!("each generator must be a JSON object, got {value:?}"),
        ));
    };
    check_object_fields(entries, "traffic generator", &GENERATOR_FIELDS, &[])
        .map_err(TrafficError::Engine)?;
    let name = match value.get("name") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| invalid("generators", format!("name: expected a string, got {v:?}")))?
            .to_string(),
        None => {
            return Err(invalid(
                "generators",
                "each generator needs a name".to_string(),
            ))
        }
    };
    let kind_name = match value.get("kind") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| invalid("generators", format!("kind: expected a string, got {v:?}")))?,
        None => {
            return Err(invalid(
                "generators",
                format!("generator {name:?} needs a kind (poisson, onoff or trace)"),
            ))
        }
    };
    let float = |field: &'static str| -> Result<Option<f64>, TrafficError> {
        match value.get(field) {
            Some(v) => Ok(Some(v.as_f64().ok_or_else(|| {
                invalid(
                    "generators",
                    format!("generator {name:?}: {field}: expected a number, got {v:?}"),
                )
            })?)),
            None => Ok(None),
        }
    };
    let require = |field: &'static str, v: Option<f64>| -> Result<f64, TrafficError> {
        v.ok_or_else(|| {
            invalid(
                "generators",
                format!("generator {name:?} ({kind_name}) needs {field}"),
            )
        })
    };
    let forbid = |fields: &[&'static str]| -> Result<(), TrafficError> {
        for field in fields {
            if value.get(field).is_some() {
                return Err(invalid(
                    "generators",
                    format!("generator {name:?} ({kind_name}) does not take {field}"),
                ));
            }
        }
        Ok(())
    };
    let kind = match kind_name {
        "poisson" => {
            forbid(&[
                "rate_on_per_sec",
                "rate_off_per_sec",
                "mean_on_ms",
                "mean_off_ms",
                "path",
            ])?;
            GeneratorKind::Poisson {
                rate_per_sec: require("rate_per_sec", float("rate_per_sec")?)?,
            }
        }
        "onoff" => {
            forbid(&["rate_per_sec", "path"])?;
            GeneratorKind::OnOff {
                rate_on_per_sec: require("rate_on_per_sec", float("rate_on_per_sec")?)?,
                rate_off_per_sec: float("rate_off_per_sec")?.unwrap_or(0.0),
                mean_on_ms: require("mean_on_ms", float("mean_on_ms")?)?,
                mean_off_ms: require("mean_off_ms", float("mean_off_ms")?)?,
            }
        }
        "trace" => {
            forbid(&[
                "rate_per_sec",
                "rate_on_per_sec",
                "rate_off_per_sec",
                "mean_on_ms",
                "mean_off_ms",
            ])?;
            let path = match value.get("path") {
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| {
                        invalid(
                            "generators",
                            format!("generator {name:?}: path: expected a string, got {v:?}"),
                        )
                    })?
                    .to_string(),
                None => {
                    return Err(invalid(
                        "generators",
                        format!("generator {name:?} (trace) needs path"),
                    ))
                }
            };
            GeneratorKind::Trace { path }
        }
        other => {
            return Err(invalid(
                "generators",
                format!("generator {name:?}: unknown kind {other:?}; known: poisson, onoff, trace"),
            ))
        }
    };
    Ok(GeneratorSpec { name, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> &'static str {
        r#"{
            "scenario": "smoke",
            "duration_ms": 1000,
            "generators": [{"name": "g", "kind": "poisson", "rate_per_sec": 10}],
            "workloads": ["multimedia"]
        }"#
    }

    #[test]
    fn minimal_scenario_takes_defaults() {
        let scenario = TrafficScenario::from_json_text(minimal()).unwrap();
        assert_eq!(scenario.seed, DEFAULT_SEED);
        assert_eq!(scenario.slots, 1);
        assert_eq!(scenario.warmup_ms, 0);
        assert_eq!(scenario.iterations, DEFAULT_ITERATIONS);
        assert_eq!(scenario.queue_capacity, None);
        assert_eq!(scenario.resolved_policies(), PolicyKind::ALL.to_vec());
        assert_eq!(scenario.cells().len(), 5);
    }

    #[test]
    fn json_round_trips() {
        let text = r#"{
            "scenario": "full",
            "seed": 7,
            "slots": 3,
            "duration_ms": 5000,
            "warmup_ms": 500,
            "iterations": 64,
            "queue_capacity": 16,
            "tiles": 8,
            "generators": [
                {"name": "steady", "kind": "poisson", "rate_per_sec": 40.5},
                {"name": "bursty", "kind": "onoff", "rate_on_per_sec": 120.0,
                 "rate_off_per_sec": 5.0, "mean_on_ms": 400.0, "mean_off_ms": 600.0},
                {"name": "replay", "kind": "trace", "path": "trace-steady.jsonl"}
            ],
            "workloads": ["multimedia", "pocket_gl"],
            "policies": ["no-prefetch", "hybrid"]
        }"#;
        let scenario = TrafficScenario::from_json_text(text).unwrap();
        let round = TrafficScenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(scenario, round);
        assert_eq!(scenario.cells().len(), 3 * 2 * 2);
    }

    #[test]
    fn unknown_field_is_rejected_with_nearest() {
        let text = minimal().replace("\"duration_ms\"", "\"duration_mss\"");
        let err = TrafficScenario::from_json_text(&text).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("duration_mss"), "{message}");
        assert!(message.contains("duration_ms"), "{message}");
    }

    #[test]
    fn duplicate_generator_names_are_rejected() {
        let text = r#"{
            "scenario": "dup",
            "duration_ms": 1000,
            "generators": [
                {"name": "g", "kind": "poisson", "rate_per_sec": 10},
                {"name": "g", "kind": "poisson", "rate_per_sec": 20}
            ],
            "workloads": ["multimedia"]
        }"#;
        let err = TrafficScenario::from_json_text(text).unwrap_err();
        assert!(err.to_string().contains("appears twice"), "{err}");
    }

    #[test]
    fn warmup_must_end_before_the_horizon() {
        let text = minimal().replace(
            "\"duration_ms\": 1000,",
            "\"duration_ms\": 1000, \"warmup_ms\": 1000,",
        );
        let err = TrafficScenario::from_json_text(&text).unwrap_err();
        assert!(err.to_string().contains("warmup"), "{err}");
    }

    #[test]
    fn generator_kind_fields_are_strict() {
        let text = r#"{
            "scenario": "strict",
            "duration_ms": 1000,
            "generators": [{"name": "g", "kind": "poisson", "rate_per_sec": 10, "path": "x"}],
            "workloads": ["multimedia"]
        }"#;
        let err = TrafficScenario::from_json_text(text).unwrap_err();
        assert!(err.to_string().contains("does not take path"), "{err}");
    }

    #[test]
    fn zero_queue_capacity_is_rejected() {
        let text = minimal().replace(
            "\"duration_ms\": 1000,",
            "\"duration_ms\": 1000, \"queue_capacity\": 0,",
        );
        let err = TrafficScenario::from_json_text(&text).unwrap_err();
        assert!(err.to_string().contains("queue_capacity"), "{err}");
    }
}
