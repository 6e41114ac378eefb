//! The experiment-spec grammar: declared axes, cartesian/zip expansion and
//! the stable [`ParamSetId`] each expanded set is addressed by.
//!
//! An [`ExperimentSpec`] declares *axes* — per-field value lists — instead
//! of a single [`JobSpec`]. Expansion takes the cartesian product of every
//! axis in a fixed canonical order (workloads, tiles, policies, iterations,
//! seeds, replacement, point_selection, chunk_size,
//! task_inclusion_probability; rightmost varies fastest), except for axes
//! tied together in a `zip` group, which advance in lockstep and occupy the
//! canonical slot of the group's first member. Explicitly listed job specs
//! (`explicit`) are appended after the product, in declaration order.
//!
//! Every resolved set gets a [`ParamSetId`]: an FNV-1a hash of the
//! canonical JSON rendering of its [`JobSpec`]. The id depends only on the
//! resolved parameters — never on axis layout, declaration order or
//! expansion position — which is what makes sweep sessions resumable:
//! a restarted runner recognises completed sets by id no matter how the
//! spec was reorganised into axes.

use drhw_model::fnv1a;
use drhw_prefetch::{PolicyKind, ReplacementPolicy};
use drhw_sim::PointSelection;
use drhw_workloads::WorkloadRegistry;

use crate::error::EngineError;
use crate::json::JsonValue;
use crate::spec::{check_object_fields, parse_point_selection, SpecField};
use crate::JobSpec;

/// Expansion-size guard: a spec expanding past this many parameter sets is
/// rejected instead of silently queueing days of work.
pub const MAX_EXPANDED_SETS: usize = 100_000;

/// The wire schema of an [`ExperimentSpec`] object, served by
/// `describe_spec` and enforced by the strict parser.
pub const EXPERIMENT_SPEC_FIELDS: [SpecField; 12] = [
    SpecField {
        name: "experiment",
        kind: "string",
        required: true,
        description: "experiment name; also the session output directory name",
    },
    SpecField {
        name: "workloads",
        kind: "array of strings",
        required: true,
        description: "workload-name axis (see list_workloads)",
    },
    SpecField {
        name: "tiles",
        kind: "array of uints",
        required: false,
        description: "tile-count axis; absent means each workload's default",
    },
    SpecField {
        name: "policies",
        kind: "array of strings or string-arrays",
        required: false,
        description: "policy-set axis; each entry is one policy name or a list swept together",
    },
    SpecField {
        name: "iterations",
        kind: "array of uints",
        required: false,
        description: "iteration-count axis; absent means the engine default",
    },
    SpecField {
        name: "seeds",
        kind: "array of uints, or {start, count}",
        required: false,
        description: "master-seed axis, explicit or as a contiguous range",
    },
    SpecField {
        name: "replacement",
        kind: "array of strings",
        required: false,
        description: "replacement-policy axis (reuse-aware, lru, direct)",
    },
    SpecField {
        name: "point_selection",
        kind: "array of strings",
        required: false,
        description: "schedule-selection axis (fully-parallel, fastest, energy-aware)",
    },
    SpecField {
        name: "chunk_size",
        kind: "array of uints",
        required: false,
        description: "chunk-size axis",
    },
    SpecField {
        name: "task_inclusion_probability",
        kind: "array of numbers",
        required: false,
        description: "task-activation-probability axis, values in [0, 1]",
    },
    SpecField {
        name: "zip",
        kind: "array of string-arrays",
        required: false,
        description: "axis groups advanced in lockstep instead of crossed",
    },
    SpecField {
        name: "explicit",
        kind: "array of job-spec objects",
        required: false,
        description: "extra fully-specified job specs appended after the product",
    },
];

/// The axes that may appear in a `zip` group, in canonical expansion order.
const AXIS_NAMES: [&str; 9] = [
    "workloads",
    "tiles",
    "policies",
    "iterations",
    "seeds",
    "replacement",
    "point_selection",
    "chunk_size",
    "task_inclusion_probability",
];

/// A sweep declaration: per-field value axes expanded into a stream of
/// [`JobSpec`]s. Parse one with [`ExperimentSpec::from_json`], expand with
/// [`ExperimentSpec::expand`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentSpec {
    /// Experiment name — names the session output directory, so it is
    /// restricted to `[A-Za-z0-9_-]`.
    pub experiment: String,
    /// Workload-name axis (required, non-empty).
    pub workloads: Vec<String>,
    /// Tile-count axis; empty means one unset value (workload default).
    pub tiles: Vec<usize>,
    /// Policy-set axis; each entry is the `policies` list of one set.
    /// Empty means one entry sweeping all five policies.
    pub policies: Vec<Vec<PolicyKind>>,
    /// Iteration-count axis; empty means the engine default.
    pub iterations: Vec<usize>,
    /// Seed axis; empty means the engine default.
    pub seeds: Vec<u64>,
    /// Replacement-policy axis; empty means no override.
    pub replacement: Vec<ReplacementPolicy>,
    /// Point-selection axis; empty means no override.
    pub point_selection: Vec<PointSelection>,
    /// Chunk-size axis; empty means no override.
    pub chunk_size: Vec<usize>,
    /// Task-inclusion-probability axis; empty means no override.
    pub task_inclusion_probability: Vec<f64>,
    /// Zip groups: each inner list names declared axes advanced in lockstep.
    pub zip: Vec<Vec<String>>,
    /// Extra fully-specified jobs appended after the cartesian product.
    pub explicit: Vec<JobSpec>,
}

/// The stable identity of one expanded parameter set: an FNV-1a hash of the
/// canonical JSON rendering of its resolved [`JobSpec`]. Displayed (and
/// written to result lines) as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamSetId(pub u64);

impl ParamSetId {
    /// The id of a resolved job spec.
    pub fn of(spec: &JobSpec) -> ParamSetId {
        ParamSetId(fnv1a(spec.to_json().to_json().as_bytes()))
    }

    /// Parses the 16-hex-digit rendering back into an id.
    pub fn parse(text: &str) -> Option<ParamSetId> {
        if text.len() != 16 {
            return None;
        }
        u64::from_str_radix(text, 16).ok().map(ParamSetId)
    }
}

impl std::fmt::Display for ParamSetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One expanded parameter set: its position in the expansion, its stable
/// id, and the resolved job spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSet {
    /// 0-based position in the deduplicated expansion order.
    pub index: usize,
    /// Stable identity (hash of the resolved spec).
    pub id: ParamSetId,
    /// The resolved job this set runs.
    pub spec: JobSpec,
}

/// The full expansion of an [`ExperimentSpec`]: every parameter set, in
/// canonical order, deduplicated by id (first occurrence wins), plus the
/// spec hash that pins a sweep session to this exact expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion {
    /// The parameter sets, in expansion order.
    pub sets: Vec<ParamSet>,
    /// Expanded sets dropped as duplicates of an earlier set.
    pub duplicates: usize,
    /// FNV-1a over the ordered id sequence: any change to what the spec
    /// expands to — values, order, count — changes this hash, which is how
    /// resume detects a session directory from a different expansion.
    pub spec_hash: u64,
}

impl ExperimentSpec {
    fn invalid(field: &'static str, reason: String) -> EngineError {
        EngineError::InvalidSpec { field, reason }
    }

    /// Parses an experiment spec from a JSON object — strictly: unknown or
    /// duplicated fields are rejected with the nearest valid name, exactly
    /// like [`JobSpec::from_json`].
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`], [`EngineError::UnknownField`] or
    /// [`EngineError::DuplicateField`].
    pub fn from_json(value: &JsonValue) -> Result<Self, EngineError> {
        let Some(entries) = value.entries() else {
            return Err(Self::invalid(
                "experiment",
                "an experiment spec must be a JSON object".to_string(),
            ));
        };
        let valid: Vec<&str> = EXPERIMENT_SPEC_FIELDS.iter().map(|f| f.name).collect();
        check_object_fields(entries, "experiment spec", &valid, &[])?;

        let experiment = match value.get("experiment") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| {
                    Self::invalid("experiment", format!("expected a string, got {v:?}"))
                })?
                .to_string(),
            None => {
                return Err(Self::invalid(
                    "experiment",
                    "missing required field".to_string(),
                ))
            }
        };

        let mut spec = ExperimentSpec {
            experiment,
            ..ExperimentSpec::default()
        };
        spec.workloads = match value.get("workloads") {
            Some(v) => string_axis(v, "workloads")?,
            None => {
                return Err(Self::invalid(
                    "workloads",
                    "missing required field".to_string(),
                ))
            }
        };
        if let Some(v) = value.get("tiles") {
            spec.tiles = uint_axis(v, "tiles")?;
        }
        if let Some(v) = value.get("policies") {
            spec.policies = policies_axis(v)?;
        }
        if let Some(v) = value.get("iterations") {
            spec.iterations = uint_axis(v, "iterations")?;
        }
        if let Some(v) = value.get("seeds") {
            spec.seeds = seeds_axis(v)?;
        }
        if let Some(v) = value.get("replacement") {
            for name in string_axis(v, "replacement")? {
                spec.replacement
                    .push(ReplacementPolicy::parse(&name).ok_or_else(|| {
                        Self::invalid(
                            "replacement",
                            format!(
                                "unknown replacement policy {name:?}; known: reuse-aware, lru, \
                                 direct"
                            ),
                        )
                    })?);
            }
        }
        if let Some(v) = value.get("point_selection") {
            for name in string_axis(v, "point_selection")? {
                spec.point_selection
                    .push(parse_point_selection(&name).ok_or_else(|| {
                        Self::invalid(
                            "point_selection",
                            format!(
                                "unknown point selection {name:?}; known: fully-parallel, \
                                 fastest, energy-aware"
                            ),
                        )
                    })?);
            }
        }
        if let Some(v) = value.get("chunk_size") {
            spec.chunk_size = uint_axis(v, "chunk_size")?;
        }
        if let Some(v) = value.get("task_inclusion_probability") {
            let items = v.as_array().ok_or_else(|| {
                Self::invalid(
                    "task_inclusion_probability",
                    format!("expected an array, got {v:?}"),
                )
            })?;
            for item in items {
                spec.task_inclusion_probability
                    .push(item.as_f64().ok_or_else(|| {
                        Self::invalid(
                            "task_inclusion_probability",
                            format!("expected a number, got {item:?}"),
                        )
                    })?);
            }
        }
        if let Some(v) = value.get("zip") {
            let groups = v
                .as_array()
                .ok_or_else(|| Self::invalid("zip", format!("expected an array, got {v:?}")))?;
            for group in groups {
                spec.zip.push(string_axis(group, "zip")?);
            }
        }
        if let Some(v) = value.get("explicit") {
            let items = v.as_array().ok_or_else(|| {
                Self::invalid("explicit", format!("expected an array, got {v:?}"))
            })?;
            for item in items {
                spec.explicit.push(JobSpec::from_json(item)?);
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec back as a JSON object (the inverse of
    /// [`from_json`](Self::from_json); empty axes are omitted).
    pub fn to_json(&self) -> JsonValue {
        let mut entries = vec![(
            "experiment".to_string(),
            JsonValue::String(self.experiment.clone()),
        )];
        entries.push((
            "workloads".to_string(),
            JsonValue::Array(
                self.workloads
                    .iter()
                    .map(|w| JsonValue::String(w.clone()))
                    .collect(),
            ),
        ));
        if !self.tiles.is_empty() {
            entries.push((
                "tiles".to_string(),
                JsonValue::Array(
                    self.tiles
                        .iter()
                        .map(|&t| JsonValue::UInt(t as u64))
                        .collect(),
                ),
            ));
        }
        if !self.policies.is_empty() {
            entries.push((
                "policies".to_string(),
                JsonValue::Array(
                    self.policies
                        .iter()
                        .map(|set| {
                            JsonValue::Array(
                                set.iter()
                                    .map(|p| JsonValue::String(p.to_string()))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        if !self.iterations.is_empty() {
            entries.push((
                "iterations".to_string(),
                JsonValue::Array(
                    self.iterations
                        .iter()
                        .map(|&i| JsonValue::UInt(i as u64))
                        .collect(),
                ),
            ));
        }
        if !self.seeds.is_empty() {
            entries.push((
                "seeds".to_string(),
                JsonValue::Array(self.seeds.iter().map(|&s| JsonValue::UInt(s)).collect()),
            ));
        }
        if !self.replacement.is_empty() {
            entries.push((
                "replacement".to_string(),
                JsonValue::Array(
                    self.replacement
                        .iter()
                        .map(|r| JsonValue::String(r.to_string()))
                        .collect(),
                ),
            ));
        }
        if !self.point_selection.is_empty() {
            entries.push((
                "point_selection".to_string(),
                JsonValue::Array(
                    self.point_selection
                        .iter()
                        .map(|&p| {
                            JsonValue::String(crate::spec::point_selection_name(p).to_string())
                        })
                        .collect(),
                ),
            ));
        }
        if !self.chunk_size.is_empty() {
            entries.push((
                "chunk_size".to_string(),
                JsonValue::Array(
                    self.chunk_size
                        .iter()
                        .map(|&c| JsonValue::UInt(c as u64))
                        .collect(),
                ),
            ));
        }
        if !self.task_inclusion_probability.is_empty() {
            entries.push((
                "task_inclusion_probability".to_string(),
                JsonValue::Array(
                    self.task_inclusion_probability
                        .iter()
                        .map(|&p| JsonValue::Float(p))
                        .collect(),
                ),
            ));
        }
        if !self.zip.is_empty() {
            entries.push((
                "zip".to_string(),
                JsonValue::Array(
                    self.zip
                        .iter()
                        .map(|group| {
                            JsonValue::Array(
                                group.iter().map(|a| JsonValue::String(a.clone())).collect(),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        if !self.explicit.is_empty() {
            entries.push((
                "explicit".to_string(),
                JsonValue::Array(self.explicit.iter().map(JobSpec::to_json).collect()),
            ));
        }
        JsonValue::Object(entries)
    }

    /// The declared length of an axis: the number of listed values, or 1
    /// when the axis is absent (one unset/default value).
    fn axis_len(&self, axis: &str) -> usize {
        let declared = match axis {
            "workloads" => self.workloads.len(),
            "tiles" => self.tiles.len(),
            "policies" => self.policies.len(),
            "iterations" => self.iterations.len(),
            "seeds" => self.seeds.len(),
            "replacement" => self.replacement.len(),
            "point_selection" => self.point_selection.len(),
            "chunk_size" => self.chunk_size.len(),
            "task_inclusion_probability" => self.task_inclusion_probability.len(),
            _ => 0,
        };
        declared.max(1)
    }

    /// Structural validation that needs no registry: the experiment name,
    /// every axis value, and the zip groups.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidSpec`] or [`EngineError::UnknownField`]
    /// naming the offending field.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.experiment.is_empty() {
            return Err(Self::invalid(
                "experiment",
                "must name the experiment".to_string(),
            ));
        }
        if !self
            .experiment
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(Self::invalid(
                "experiment",
                format!(
                    "{:?} names the session output directory, so only ASCII letters, digits, \
                     `-` and `_` are allowed",
                    self.experiment
                ),
            ));
        }
        if self.workloads.is_empty() {
            return Err(Self::invalid(
                "workloads",
                "at least one workload is required".to_string(),
            ));
        }
        if self.workloads.iter().any(String::is_empty) {
            return Err(Self::invalid(
                "workloads",
                "workload names must be non-empty".to_string(),
            ));
        }
        if self.tiles.contains(&0) {
            return Err(Self::invalid(
                "tiles",
                "the platform needs at least one tile".to_string(),
            ));
        }
        if self.iterations.contains(&0) {
            return Err(Self::invalid(
                "iterations",
                "the simulation needs at least one iteration".to_string(),
            ));
        }
        if self.chunk_size.contains(&0) {
            return Err(Self::invalid(
                "chunk_size",
                "chunks need at least one iteration each".to_string(),
            ));
        }
        for &p in &self.task_inclusion_probability {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(Self::invalid(
                    "task_inclusion_probability",
                    format!("{p} is outside [0, 1]"),
                ));
            }
        }
        self.validate_zip()?;
        for spec in &self.explicit {
            spec.validate()?;
        }
        Ok(())
    }

    fn validate_zip(&self) -> Result<(), EngineError> {
        let mut grouped: Vec<&str> = Vec::new();
        for group in &self.zip {
            if group.len() < 2 {
                return Err(Self::invalid(
                    "zip",
                    "each zip group must tie at least two axes together".to_string(),
                ));
            }
            let mut len = None;
            for axis in group {
                if !AXIS_NAMES.contains(&axis.as_str()) {
                    return Err(EngineError::UnknownField {
                        context: "experiment spec zip group",
                        field: axis.clone(),
                        nearest: crate::spec::nearest_field(axis, &AXIS_NAMES),
                    });
                }
                if grouped.contains(&axis.as_str()) {
                    return Err(Self::invalid(
                        "zip",
                        format!("axis `{axis}` appears in more than one zip group"),
                    ));
                }
                grouped.push(axis);
                let this = self.axis_len(axis);
                match len {
                    None => len = Some(this),
                    Some(expected) if expected != this => {
                        return Err(Self::invalid(
                            "zip",
                            format!(
                                "zipped axes must have equal lengths, but `{}` has {} values \
                                 and `{axis}` has {this}",
                                group[0], expected
                            ),
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }

    /// Expands the spec into its full parameter-set stream: the cartesian
    /// product of every axis (zip groups advancing in lockstep), in
    /// canonical axis order with the rightmost axis varying fastest, then
    /// the `explicit` specs — deduplicated by [`ParamSetId`], first
    /// occurrence winning. Workload names are resolved through `registry`
    /// up front, so a typo fails the whole sweep before anything runs.
    ///
    /// # Errors
    ///
    /// [`EngineError::Workload`] for unresolvable names,
    /// [`EngineError::Sweep`] when the expansion exceeds
    /// [`MAX_EXPANDED_SETS`], plus anything [`validate`](Self::validate)
    /// rejects.
    pub fn expand(&self, registry: &WorkloadRegistry) -> Result<Expansion, EngineError> {
        self.validate()?;
        for name in &self.workloads {
            registry.resolve(name)?;
        }
        for spec in &self.explicit {
            registry.resolve(&spec.workload)?;
        }

        // One dimension per canonical axis slot; a zip group forms a single
        // dimension at its first member's slot, the other members' slots
        // vanish.
        let group_of = |axis: &str| -> Option<usize> {
            self.zip
                .iter()
                .position(|group| group.iter().any(|a| a == axis))
        };
        let mut dimensions: Vec<Vec<Vec<(&str, usize)>>> = Vec::new();
        for axis in AXIS_NAMES {
            match group_of(axis) {
                Some(g) if self.zip[g][0] != axis => continue,
                Some(g) => {
                    let len = self.axis_len(axis);
                    dimensions.push(
                        (0..len)
                            .map(|i| self.zip[g].iter().map(|a| (a.as_str(), i)).collect())
                            .collect(),
                    );
                }
                None => {
                    let len = self.axis_len(axis);
                    dimensions.push((0..len).map(|i| vec![(axis, i)]).collect());
                }
            }
        }

        let product: usize = dimensions
            .iter()
            .map(Vec::len)
            .try_fold(1usize, |acc, len| acc.checked_mul(len))
            .unwrap_or(usize::MAX);
        let declared = product.saturating_add(self.explicit.len());
        if declared > MAX_EXPANDED_SETS {
            return Err(EngineError::Sweep {
                context: self.experiment.clone(),
                reason: format!(
                    "the spec expands to {declared} parameter sets, over the {MAX_EXPANDED_SETS} \
                     limit"
                ),
            });
        }

        let mut sets: Vec<ParamSet> = Vec::with_capacity(declared);
        let mut seen: std::collections::HashSet<ParamSetId> =
            std::collections::HashSet::with_capacity(declared);
        let mut duplicates = 0usize;
        let mut push = |sets: &mut Vec<ParamSet>, spec: JobSpec| {
            let id = ParamSetId::of(&spec);
            if seen.insert(id) {
                let index = sets.len();
                sets.push(ParamSet { index, id, spec });
            } else {
                duplicates += 1;
            }
        };

        // Odometer over the dimensions, rightmost fastest.
        let mut odometer = vec![0usize; dimensions.len()];
        loop {
            let mut spec = JobSpec::new("");
            for (dim, &position) in dimensions.iter().zip(&odometer) {
                for &(axis, index) in &dim[position] {
                    self.assign(&mut spec, axis, index);
                }
            }
            push(&mut sets, spec);
            // Advance the odometer; carry leftwards, stop on overflow.
            let mut slot = dimensions.len();
            loop {
                if slot == 0 {
                    break;
                }
                slot -= 1;
                odometer[slot] += 1;
                if odometer[slot] < dimensions[slot].len() {
                    break;
                }
                odometer[slot] = 0;
                if slot == 0 {
                    slot = usize::MAX;
                    break;
                }
            }
            if slot == usize::MAX {
                break;
            }
        }
        for spec in &self.explicit {
            push(&mut sets, spec.clone());
        }

        let mut hash_input = String::with_capacity(sets.len() * 17);
        for set in &sets {
            hash_input.push_str(&set.id.to_string());
            hash_input.push('\n');
        }
        Ok(Expansion {
            duplicates,
            spec_hash: fnv1a(hash_input.as_bytes()),
            sets,
        })
    }

    /// Writes axis value `index` of `axis` into `spec`; index 0 of an
    /// absent axis leaves the field at its default.
    fn assign(&self, spec: &mut JobSpec, axis: &str, index: usize) {
        match axis {
            "workloads" => spec.workload = self.workloads[index].clone(),
            "tiles" => spec.tiles = self.tiles.get(index).copied(),
            "policies" => spec.policies = self.policies.get(index).cloned().unwrap_or_default(),
            "iterations" => spec.iterations = self.iterations.get(index).copied(),
            "seeds" => spec.seed = self.seeds.get(index).copied(),
            "replacement" => spec.overrides.replacement = self.replacement.get(index).copied(),
            "point_selection" => {
                spec.overrides.point_selection = self.point_selection.get(index).copied();
            }
            "chunk_size" => spec.overrides.chunk_size = self.chunk_size.get(index).copied(),
            "task_inclusion_probability" => {
                spec.overrides.task_inclusion_probability =
                    self.task_inclusion_probability.get(index).copied();
            }
            _ => unreachable!("assign called with a non-axis name"),
        }
    }
}

fn string_axis(value: &JsonValue, field: &'static str) -> Result<Vec<String>, EngineError> {
    let items = value.as_array().ok_or_else(|| EngineError::InvalidSpec {
        field,
        reason: format!("expected an array, got {value:?}"),
    })?;
    items
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| EngineError::InvalidSpec {
                    field,
                    reason: format!("expected a string, got {item:?}"),
                })
        })
        .collect()
}

fn uint_axis(value: &JsonValue, field: &'static str) -> Result<Vec<usize>, EngineError> {
    let items = value.as_array().ok_or_else(|| EngineError::InvalidSpec {
        field,
        reason: format!("expected an array, got {value:?}"),
    })?;
    items
        .iter()
        .map(|item| {
            item.as_usize().ok_or_else(|| EngineError::InvalidSpec {
                field,
                reason: format!("expected an unsigned integer, got {item:?}"),
            })
        })
        .collect()
}

/// The `policies` axis: each entry is a single policy name, or an array of
/// names swept together as one set.
fn policies_axis(value: &JsonValue) -> Result<Vec<Vec<PolicyKind>>, EngineError> {
    let invalid = |reason: String| EngineError::InvalidSpec {
        field: "policies",
        reason,
    };
    let parse_one = |name: &str| {
        PolicyKind::parse(name).ok_or_else(|| {
            let known: Vec<String> = PolicyKind::ALL.iter().map(|p| p.to_string()).collect();
            invalid(format!(
                "unknown policy {name:?}; known: {}",
                known.join(", ")
            ))
        })
    };
    let items = value
        .as_array()
        .ok_or_else(|| invalid(format!("expected an array, got {value:?}")))?;
    let mut axis = Vec::with_capacity(items.len());
    for item in items {
        match item {
            JsonValue::String(name) => axis.push(vec![parse_one(name)?]),
            JsonValue::Array(names) => {
                let mut set = Vec::with_capacity(names.len());
                for name in names {
                    let name = name
                        .as_str()
                        .ok_or_else(|| invalid(format!("expected a string, got {name:?}")))?;
                    set.push(parse_one(name)?);
                }
                axis.push(set);
            }
            other => {
                return Err(invalid(format!(
                    "expected a policy name or an array of names, got {other:?}"
                )))
            }
        }
    }
    Ok(axis)
}

/// The `seeds` axis: an explicit array of seeds, or a `{start, count}`
/// range object expanding to `start, start+1, …, start+count-1`.
fn seeds_axis(value: &JsonValue) -> Result<Vec<u64>, EngineError> {
    let invalid = |reason: String| EngineError::InvalidSpec {
        field: "seeds",
        reason,
    };
    match value {
        JsonValue::Array(items) => items
            .iter()
            .map(|item| {
                item.as_u64()
                    .ok_or_else(|| invalid(format!("expected an unsigned integer, got {item:?}")))
            })
            .collect(),
        JsonValue::Object(entries) => {
            check_object_fields(entries, "seeds range", &["start", "count"], &[])?;
            let field = |name: &str| {
                value
                    .get(name)
                    .ok_or_else(|| invalid(format!("range form needs `{name}` (and `count`)")))?
                    .as_u64()
                    .ok_or_else(|| invalid(format!("range `{name}` must be an unsigned integer")))
            };
            let start = field("start")?;
            let count = field("count")?;
            if count == 0 {
                return Err(invalid("range `count` must be at least 1".to_string()));
            }
            if count as usize > MAX_EXPANDED_SETS {
                return Err(invalid(format!(
                    "range `count` {count} exceeds the {MAX_EXPANDED_SETS}-set expansion limit"
                )));
            }
            if start.checked_add(count - 1).is_none() {
                return Err(invalid(format!(
                    "range start {start} + count {count} overflows a 64-bit seed"
                )));
            }
            Ok((start..start + count).collect())
        }
        other => Err(invalid(format!(
            "expected an array or a {{start, count}} range, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn registry() -> WorkloadRegistry {
        WorkloadRegistry::with_builtins()
    }

    fn spec(text: &str) -> ExperimentSpec {
        ExperimentSpec::from_json(&parse(text).expect("valid JSON")).expect("valid spec")
    }

    #[test]
    fn cartesian_expansion_is_rightmost_fastest_in_canonical_order() {
        let exp = spec(
            r#"{"experiment":"order","workloads":["multimedia","pocket_gl"],
                "tiles":[4,8],"seeds":[1,2]}"#,
        );
        let expansion = exp.expand(&registry()).expect("expands");
        assert_eq!(expansion.sets.len(), 8);
        assert_eq!(expansion.duplicates, 0);
        let first = &expansion.sets[0].spec;
        assert_eq!(
            (first.workload.as_str(), first.tiles, first.seed),
            ("multimedia", Some(4), Some(1))
        );
        // Seeds (rightmost) vary fastest, then tiles, then workloads.
        assert_eq!(expansion.sets[1].spec.seed, Some(2));
        assert_eq!(expansion.sets[2].spec.tiles, Some(8));
        assert_eq!(expansion.sets[4].spec.workload, "pocket_gl");
        // Indices are contiguous and ids unique.
        for (i, set) in expansion.sets.iter().enumerate() {
            assert_eq!(set.index, i);
        }
    }

    #[test]
    fn param_set_ids_depend_on_values_not_axis_layout() {
        let a = spec(r#"{"experiment":"a","workloads":["multimedia"],"seeds":[1,2]}"#);
        let b = spec(
            r#"{"experiment":"b","workloads":["multimedia"],
                "explicit":[{"workload":"multimedia","seed":2},
                            {"workload":"multimedia","seed":1}]}"#,
        );
        let ids_a: Vec<ParamSetId> = a
            .expand(&registry())
            .unwrap()
            .sets
            .iter()
            .map(|s| s.id)
            .collect();
        let exp_b = b.expand(&registry()).unwrap();
        // b expands to: default-seed set, seed 2, seed 1.
        assert_eq!(exp_b.sets.len(), 3);
        assert_eq!(exp_b.sets[2].id, ids_a[0]);
        assert_eq!(exp_b.sets[1].id, ids_a[1]);
        // Different order → different session hash.
        assert_ne!(a.expand(&registry()).unwrap().spec_hash, exp_b.spec_hash);
    }

    #[test]
    fn zip_groups_advance_in_lockstep() {
        let exp = spec(
            r#"{"experiment":"zipped","workloads":["multimedia"],
                "tiles":[4,8],"chunk_size":[16,64],"seeds":[1,2],
                "zip":[["tiles","chunk_size"]]}"#,
        );
        let expansion = exp.expand(&registry()).expect("expands");
        // 2 zipped (tiles, chunk) pairs × 2 seeds = 4, not 8.
        assert_eq!(expansion.sets.len(), 4);
        let pairs: Vec<(Option<usize>, Option<usize>)> = expansion
            .sets
            .iter()
            .map(|s| (s.spec.tiles, s.spec.overrides.chunk_size))
            .collect();
        assert!(pairs.contains(&(Some(4), Some(16))));
        assert!(pairs.contains(&(Some(8), Some(64))));
        assert!(!pairs.contains(&(Some(4), Some(64))));
    }

    #[test]
    fn zip_validation_names_the_offending_axis() {
        let err = ExperimentSpec::from_json(
            &parse(
                r#"{"experiment":"z","workloads":["multimedia"],
                    "tiles":[4],"zip":[["tiles","chunk_sizes"]]}"#,
            )
            .unwrap(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("chunk_sizes"), "{err}");
        assert!(err.contains("chunk_size"), "{err}");

        let err = ExperimentSpec::from_json(
            &parse(
                r#"{"experiment":"z","workloads":["multimedia"],
                    "tiles":[4,8],"seeds":[1,2,3],"zip":[["tiles","seeds"]]}"#,
            )
            .unwrap(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("equal lengths"), "{err}");
    }

    #[test]
    fn seeds_range_and_array_forms_agree() {
        let by_range =
            spec(r#"{"experiment":"r","workloads":["multimedia"],"seeds":{"start":5,"count":3}}"#);
        let by_array = spec(r#"{"experiment":"r","workloads":["multimedia"],"seeds":[5,6,7]}"#);
        assert_eq!(by_range.seeds, by_array.seeds);
        assert_eq!(
            by_range.expand(&registry()).unwrap().spec_hash,
            by_array.expand(&registry()).unwrap().spec_hash
        );
    }

    #[test]
    fn duplicate_sets_are_dropped_keeping_the_first() {
        let exp = spec(
            r#"{"experiment":"dup","workloads":["multimedia"],"seeds":[1],
                "explicit":[{"workload":"multimedia","seed":1}]}"#,
        );
        let expansion = exp.expand(&registry()).expect("expands");
        assert_eq!(expansion.sets.len(), 1);
        assert_eq!(expansion.duplicates, 1);
    }

    #[test]
    fn strict_parsing_rejects_unknown_and_duplicate_fields() {
        let err = ExperimentSpec::from_json(
            &parse(r#"{"experiment":"x","workloads":["multimedia"],"tile":[4]}"#).unwrap(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("`tile`"), "{err}");
        assert!(err.contains("`tiles`"), "{err}");

        let err = ExperimentSpec::from_json(
            &parse(r#"{"experiment":"x","workloads":["m"],"workloads":["m"]}"#).unwrap(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn unknown_workloads_fail_expansion_up_front() {
        let exp = spec(r#"{"experiment":"bad","workloads":["multimedi"]}"#);
        let err = exp.expand(&registry()).unwrap_err().to_string();
        assert!(err.contains("multimedi"), "{err}");
    }

    #[test]
    fn expansion_size_guard_rejects_oversized_sweeps() {
        let exp = spec(
            r#"{"experiment":"big","workloads":["multimedia"],
                "seeds":{"start":0,"count":100000},"tiles":[2,4]}"#,
        );
        let err = exp.expand(&registry()).unwrap_err().to_string();
        assert!(err.contains("limit"), "{err}");
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let exp = spec(
            r#"{"experiment":"rt","workloads":["multimedia","pocket_gl"],
                "tiles":[4,8],"policies":["hybrid",["no-prefetch","run-time"]],
                "iterations":[16],"seeds":[1,2],"replacement":["lru"],
                "point_selection":["fastest"],"chunk_size":[8],
                "task_inclusion_probability":[0.5],
                "zip":[["tiles","seeds"]],
                "explicit":[{"workload":"multimedia","seed":9}]}"#,
        );
        let round = ExperimentSpec::from_json(&parse(&exp.to_json().to_json()).unwrap())
            .expect("round-trips");
        assert_eq!(round, exp);
    }
}
