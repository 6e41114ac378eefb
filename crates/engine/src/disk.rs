//! The persistent on-disk plan cache: design-time search artifacts that
//! survive process restarts.
//!
//! The in-memory [`PlanCache`](crate::cache::PlanCache) amortises design-time
//! work *within* a process; every restart still pays the full branch & bound
//! and critical-set cost on the first job of each (workload, tiles,
//! point-selection) key. This module persists exactly the expensive part —
//! the per-(task, scenario) [`ScenarioSearchArtifacts`] — as one versioned
//! JSON file per [`PlanKey`], so a restarted engine rebuilds a plan from disk
//! in the time it takes to re-derive the cheap artifacts (TCM library,
//! initial schedules, prepared schedules).
//!
//! # Format
//!
//! One compact JSON object per entry file:
//!
//! ```json
//! {"format":"drhw-plan-cache","version":1,
//!  "workload":"multimedia","tiles":8,"point_selection":0,
//!  "fingerprint":1234,"checksum":5678,
//!  "artifacts":[{"task":0,"scenario":0,
//!    "design_time":{"order":[0,2],"penalty_us":4000,"ideal_us":20000},
//!    "critical":{"set":[0],"order":[0],"penalty_us":1000,
//!                "iterations":2,"drhw_subtasks":3}}]}
//! ```
//!
//! * `version` — bumped whenever the payload layout or its semantics change;
//!   a mismatch invalidates the entry.
//! * `fingerprint` — a structural hash of everything the artifacts were
//!   derived from (task graphs, platform, design-time config knobs), so an
//!   entry written for a differently-defined workload of the same name is
//!   rejected.
//! * `checksum` — FNV-1a over the rendered `artifacts` array, catching
//!   truncation and bit rot that still parses as JSON.
//!
//! # Trust model
//!
//! Entries are **never trusted**: any parse failure, schema surprise,
//! version/key/fingerprint mismatch or checksum error makes [`load`]
//! (`DiskPlanCache::load`) return `None` and the caller rebuilds cold
//! (overwriting the bad entry on the way out). Artifacts that decode but
//! reference subtask ids outside their graph are additionally dropped by
//! `IterationPlan::new_with_artifacts` itself.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use drhw_model::{
    fnv1a, mix64, Platform, ScenarioId, SubtaskId, TaskId, TaskSet, Time, GOLDEN_GAMMA,
};
use drhw_prefetch::{CriticalSetAnalysis, DesignTimePrefetch, HybridPrefetch};
use drhw_sim::{IterationPlan, ScenarioSearchArtifacts, SimulationConfig};

use crate::cache::PlanKey;
use crate::json::{parse, JsonValue};

/// The format marker every entry file carries.
const FORMAT_NAME: &str = "drhw-plan-cache";

/// Bumped whenever the payload layout or its semantics change; entries
/// written by any other version are ignored and rebuilt.
const FORMAT_VERSION: u64 = 1;

/// The artifacts of one cache entry, keyed like the plan's own index.
pub(crate) type ArtifactMap = BTreeMap<(TaskId, ScenarioId), ScenarioSearchArtifacts>;

/// A directory of persisted plan entries, one JSON file per [`PlanKey`].
#[derive(Debug, Clone)]
pub(crate) struct DiskPlanCache {
    dir: PathBuf,
}

impl DiskPlanCache {
    /// A cache rooted at `dir` (created lazily on the first store).
    pub fn new(dir: PathBuf) -> Self {
        DiskPlanCache { dir }
    }

    /// The entry file of a key: a readable slug plus a hash, so distinct
    /// keys never collide even after the slug sanitisation.
    fn entry_path(&self, key: &PlanKey) -> PathBuf {
        let slug: String = key
            .workload
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(48)
            .collect();
        let mut hash = Fingerprint::new();
        hash.text(&key.workload);
        hash.word(key.tiles as u64);
        hash.word(u64::from(key.point_selection));
        self.dir.join(format!(
            "{slug}-t{}-p{}-{:016x}.json",
            key.tiles,
            key.point_selection,
            hash.finish()
        ))
    }

    /// Loads the artifacts persisted for `key`, or `None` when there is no
    /// entry or the entry is unreadable, corrupt, stale (bad fingerprint) or
    /// from another format version. Never errors: a bad entry behaves
    /// exactly like a missing one.
    pub fn load(&self, key: &PlanKey, fingerprint: u64) -> Option<ArtifactMap> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        decode_entry(&text, key, fingerprint)
    }

    /// Persists the search artifacts of a freshly prepared plan, atomically
    /// (write to a temporary file, then rename into place) so concurrent
    /// readers never observe a torn entry. Best-effort: I/O failures leave
    /// the cache as it was and report `false`.
    pub fn store(&self, key: &PlanKey, fingerprint: u64, plan: &IterationPlan<'_>) -> bool {
        let payload = encode_entry(key, fingerprint, &plan.search_artifacts());
        let path = self.entry_path(key);
        if fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        if fs::write(&tmp, payload).is_err() {
            return false;
        }
        if fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        true
    }

    /// The directory entries live in.
    #[cfg(test)]
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

/// A structural hash of everything the persisted artifacts were derived
/// from: the full task-set model (graphs, execution times, configurations,
/// dependencies, scenario probabilities), the platform, and the design-time
/// configuration knobs (`point_selection`, `scenario_policy`). Run-time
/// knobs — seed, iterations, chunk size, threads, replacement policy,
/// inclusion probability — are deliberately excluded: they do not affect
/// the artifacts, and a cache entry must survive them changing.
pub(crate) fn workload_fingerprint(
    task_set: &TaskSet,
    platform: &Platform,
    config: &SimulationConfig,
) -> u64 {
    let mut fp = Fingerprint::new();
    fp.text(task_set.name());
    fp.word(task_set.tasks().len() as u64);
    for task in task_set.tasks() {
        fp.word(task.id().index() as u64);
        fp.text(task.name());
        fp.word(task.deadline().map_or(u64::MAX, Time::as_micros));
        fp.word(task.scenarios().len() as u64);
        for scenario in task.scenarios() {
            fp.word(scenario.id().index() as u64);
            fp.text(scenario.name());
            fp.word(scenario.probability().to_bits());
            let graph = scenario.graph();
            fp.text(graph.name());
            fp.word(graph.len() as u64);
            for (id, subtask) in graph.iter() {
                fp.word(id.index() as u64);
                fp.text(subtask.name());
                fp.word(subtask.exec_time().as_micros());
                fp.word(subtask.config().index() as u64);
                fp.text(&format!("{:?}", subtask.pe_class()));
                fp.word(subtask.exec_energy_mj().to_bits());
            }
            for (from, to) in graph.edges() {
                fp.word(from.index() as u64);
                fp.word(to.index() as u64);
            }
        }
    }
    fp.word(platform.tile_count() as u64);
    fp.word(platform.reconfig_latency().as_micros());
    fp.word(platform.isp_count() as u64);
    fp.word(platform.reconfig_energy_mj().to_bits());
    fp.text(&format!("{:?}", config.point_selection));
    fp.text(&format!("{:?}", config.scenario_policy));
    fp.finish()
}

/// Renders one entry file. Kept in lockstep with [`decode_entry`]; the
/// round-trip is pinned by this module's tests and the proptest suite.
pub(crate) fn encode_entry(
    key: &PlanKey,
    fingerprint: u64,
    artifacts: &[((TaskId, ScenarioId), ScenarioSearchArtifacts)],
) -> String {
    let items: Vec<JsonValue> = artifacts
        .iter()
        .map(|((task, scenario), artifacts)| {
            let ids = |ids: &[SubtaskId]| {
                JsonValue::Array(
                    ids.iter()
                        .map(|id| JsonValue::UInt(id.index() as u64))
                        .collect(),
                )
            };
            let critical = artifacts.hybrid.critical();
            JsonValue::Object(vec![
                ("task".to_string(), JsonValue::UInt(task.index() as u64)),
                (
                    "scenario".to_string(),
                    JsonValue::UInt(scenario.index() as u64),
                ),
                (
                    "design_time".to_string(),
                    JsonValue::Object(vec![
                        ("order".to_string(), ids(artifacts.design_time.load_order())),
                        (
                            "penalty_us".to_string(),
                            JsonValue::UInt(artifacts.design_time.penalty().as_micros()),
                        ),
                        (
                            "ideal_us".to_string(),
                            JsonValue::UInt(artifacts.design_time.ideal_makespan().as_micros()),
                        ),
                    ]),
                ),
                (
                    "critical".to_string(),
                    JsonValue::Object(vec![
                        ("set".to_string(), ids(critical.critical_subtasks())),
                        ("order".to_string(), ids(critical.stored_load_order())),
                        (
                            "penalty_us".to_string(),
                            JsonValue::UInt(critical.stored_penalty().as_micros()),
                        ),
                        (
                            "iterations".to_string(),
                            JsonValue::UInt(critical.iterations() as u64),
                        ),
                        (
                            "drhw_subtasks".to_string(),
                            JsonValue::UInt(critical.drhw_subtask_count() as u64),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    let rendered_artifacts = JsonValue::Array(items);
    let checksum = fnv1a(rendered_artifacts.to_json().as_bytes());
    JsonValue::Object(vec![
        (
            "format".to_string(),
            JsonValue::String(FORMAT_NAME.to_string()),
        ),
        ("version".to_string(), JsonValue::UInt(FORMAT_VERSION)),
        (
            "workload".to_string(),
            JsonValue::String(key.workload.clone()),
        ),
        ("tiles".to_string(), JsonValue::UInt(key.tiles as u64)),
        (
            "point_selection".to_string(),
            JsonValue::UInt(u64::from(key.point_selection)),
        ),
        ("fingerprint".to_string(), JsonValue::UInt(fingerprint)),
        ("checksum".to_string(), JsonValue::UInt(checksum)),
        ("artifacts".to_string(), rendered_artifacts),
    ])
    .to_json()
}

/// Parses and validates one entry file against the key and fingerprint the
/// caller is about to build for. Any mismatch or malformation yields `None`.
pub(crate) fn decode_entry(text: &str, key: &PlanKey, fingerprint: u64) -> Option<ArtifactMap> {
    let value = parse(text).ok()?;
    if value.get("format")?.as_str()? != FORMAT_NAME
        || value.get("version")?.as_u64()? != FORMAT_VERSION
        || value.get("workload")?.as_str()? != key.workload
        || value.get("tiles")?.as_usize()? != key.tiles
        || value.get("point_selection")?.as_u64()? != u64::from(key.point_selection)
        || value.get("fingerprint")?.as_u64()? != fingerprint
    {
        return None;
    }
    let artifacts = value.get("artifacts")?;
    if value.get("checksum")?.as_u64()? != fnv1a(artifacts.to_json().as_bytes()) {
        return None;
    }
    let mut map = ArtifactMap::new();
    for item in artifacts.as_array()? {
        let ids = |field: &str, object: &JsonValue| -> Option<Vec<SubtaskId>> {
            object
                .get(field)?
                .as_array()?
                .iter()
                .map(|v| v.as_usize().map(SubtaskId::new))
                .collect()
        };
        let time = |field: &str, object: &JsonValue| -> Option<Time> {
            Some(Time::from_micros(object.get(field)?.as_u64()?))
        };
        let task = TaskId::new(item.get("task")?.as_usize()?);
        let scenario = ScenarioId::new(item.get("scenario")?.as_usize()?);
        let design_time = item.get("design_time")?;
        let critical = item.get("critical")?;
        let artifacts = ScenarioSearchArtifacts {
            design_time: DesignTimePrefetch::from_parts(
                ids("order", design_time)?,
                time("penalty_us", design_time)?,
                time("ideal_us", design_time)?,
            ),
            hybrid: HybridPrefetch::from_critical(CriticalSetAnalysis::from_parts(
                ids("set", critical)?,
                ids("order", critical)?,
                time("penalty_us", critical)?,
                critical.get("iterations")?.as_usize()?,
                critical.get("drhw_subtasks")?.as_usize()?,
            )),
        };
        if map.insert((task, scenario), artifacts).is_some() {
            // Duplicate pairs mean the file was not written by us.
            return None;
        }
    }
    Some(map)
}

/// An order-sensitive structural hasher: SplitMix64 finalisation folded over
/// the words of whatever is being fingerprinted. Strings are framed with
/// their length so concatenation ambiguities cannot collide.
struct Fingerprint {
    state: u64,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            state: GOLDEN_GAMMA,
        }
    }

    fn word(&mut self, value: u64) {
        self.state = mix64(self.state.rotate_left(7) ^ mix64(value));
    }

    fn text(&mut self, value: &str) {
        self.word(value.len() as u64);
        for chunk in value.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drhw_workloads::WorkloadRegistry;

    fn fixture() -> (PlanKey, u64, IterationPlan<'static>, &'static TaskSet) {
        let registry = WorkloadRegistry::with_builtins();
        let workload = registry.resolve("multimedia").unwrap();
        let task_set = Box::leak(Box::new(workload.task_set()));
        let platform = Box::leak(Box::new(Platform::virtex_like(8).unwrap()));
        let mut config = SimulationConfig::quick();
        config.task_inclusion_probability = workload.task_inclusion_probability();
        let fingerprint = workload_fingerprint(task_set, platform, &config);
        let plan = IterationPlan::new(task_set, platform, config).unwrap();
        let key = PlanKey {
            workload: "multimedia".to_string(),
            tiles: 8,
            point_selection: 0,
        };
        (key, fingerprint, plan, task_set)
    }

    #[test]
    fn entries_round_trip_bit_identically() {
        let (key, fingerprint, plan, _) = fixture();
        let extracted = plan.search_artifacts();
        let text = encode_entry(&key, fingerprint, &extracted);
        let decoded = decode_entry(&text, &key, fingerprint).expect("entry decodes");
        assert_eq!(decoded, extracted.into_iter().collect::<ArtifactMap>());
        // Encoding is deterministic, so stored entries are byte-stable.
        assert_eq!(
            text,
            encode_entry(&key, fingerprint, &plan.search_artifacts())
        );
    }

    #[test]
    fn version_key_and_fingerprint_mismatches_reject_the_entry() {
        let (key, fingerprint, plan, _) = fixture();
        let text = encode_entry(&key, fingerprint, &plan.search_artifacts());
        assert!(decode_entry(&text, &key, fingerprint).is_some());
        // Stale fingerprint: the workload definition changed.
        assert!(decode_entry(&text, &key, fingerprint ^ 1).is_none());
        // Different key coordinates.
        let mut other = key.clone();
        other.tiles = 9;
        assert!(decode_entry(&text, &other, fingerprint).is_none());
        let mut other = key.clone();
        other.point_selection = 1;
        assert!(decode_entry(&text, &other, fingerprint).is_none());
        let mut other = key.clone();
        other.workload = "pocket_gl".to_string();
        assert!(decode_entry(&text, &other, fingerprint).is_none());
        // A future format version must not be trusted.
        let future = text.replace(
            &format!("\"version\":{FORMAT_VERSION}"),
            &format!("\"version\":{}", FORMAT_VERSION + 1),
        );
        assert!(decode_entry(&future, &key, fingerprint).is_none());
    }

    #[test]
    fn corruption_and_truncation_reject_the_entry() {
        let (key, fingerprint, plan, _) = fixture();
        let text = encode_entry(&key, fingerprint, &plan.search_artifacts());
        // Truncation at any point either breaks the JSON or the checksum.
        for cut in [text.len() / 4, text.len() / 2, text.len() - 1] {
            assert!(decode_entry(&text[..cut], &key, fingerprint).is_none());
        }
        // A single flipped payload digit still parses but fails the checksum.
        let start = text.find("\"artifacts\":").unwrap();
        let digit = text[start..]
            .char_indices()
            .find(|(_, c)| c.is_ascii_digit())
            .map(|(offset, _)| start + offset)
            .unwrap();
        let mut corrupted = text.clone();
        let old = corrupted.as_bytes()[digit];
        let new = if old == b'9' { '8' } else { (old + 1) as char };
        corrupted.replace_range(digit..=digit, &new.to_string());
        assert!(parse(&corrupted).is_ok(), "corruption must keep valid JSON");
        assert!(decode_entry(&corrupted, &key, fingerprint).is_none());
        assert!(decode_entry("", &key, fingerprint).is_none());
        assert!(decode_entry("{}", &key, fingerprint).is_none());
        assert!(decode_entry("null", &key, fingerprint).is_none());
    }

    #[test]
    fn fingerprint_tracks_the_model_not_the_runtime_knobs() {
        let registry = WorkloadRegistry::with_builtins();
        let workload = registry.resolve("multimedia").unwrap();
        let task_set = workload.task_set();
        let platform = Platform::virtex_like(8).unwrap();
        let config = SimulationConfig::quick();
        let base = workload_fingerprint(&task_set, &platform, &config);
        // Deterministic, and pinned: entries on disk are keyed by this
        // value, so a change to the hash or to what it covers must be a
        // deliberate FORMAT_VERSION bump, never a silent side effect.
        assert_eq!(base, workload_fingerprint(&task_set, &platform, &config));
        assert_eq!(base, 0x8E6E_16D5_E8D6_F9E1);
        // Run-time knobs do not invalidate entries.
        let mut runtime = config.clone();
        runtime.seed = 999;
        runtime.iterations = 7;
        runtime.chunk_size = 3;
        assert_eq!(base, workload_fingerprint(&task_set, &platform, &runtime));
        // The platform and design-time knobs do.
        let wider = Platform::virtex_like(9).unwrap();
        assert_ne!(base, workload_fingerprint(&task_set, &wider, &config));
        let mut design = config.clone();
        design.point_selection = drhw_sim::PointSelection::Fastest;
        assert_ne!(base, workload_fingerprint(&task_set, &platform, &design));
        // And so does the model itself.
        let other = registry.resolve("pocket_gl").unwrap().task_set();
        assert_ne!(base, workload_fingerprint(&other, &platform, &config));
    }

    #[test]
    fn disk_cache_loads_what_it_stored_and_ignores_damage() {
        let (key, fingerprint, plan, _) = fixture();
        let dir = std::env::temp_dir().join(format!("drhw-disk-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = DiskPlanCache::new(dir.clone());
        assert!(cache.load(&key, fingerprint).is_none(), "empty dir");
        assert!(cache.store(&key, fingerprint, &plan));
        let restored = cache.load(&key, fingerprint).expect("stored entry loads");
        assert_eq!(
            restored,
            plan.search_artifacts().into_iter().collect::<ArtifactMap>()
        );
        // Garbage on disk behaves like a miss.
        let path = cache.entry_path(&key);
        fs::write(&path, "not json at all").unwrap();
        assert!(cache.load(&key, fingerprint).is_none());
        // And a store repairs it.
        assert!(cache.store(&key, fingerprint, &plan));
        assert!(cache.load(&key, fingerprint).is_some());
        assert!(cache.dir().is_dir());
        let _ = fs::remove_dir_all(&dir);
    }
}
