//! Rendering of experiment results, shared by the experiment binaries: the
//! plain-text rows/series the paper reports and the machine-readable
//! `BENCH_results.json`.

use drhw_engine::json::JsonValue;
use drhw_prefetch::PolicyKind;
use drhw_sim::SimulationReport;

use crate::experiments::{AblationRow, FigurePoint, Table1Row};

/// The `schema_version` of `BENCH_results.json`, which the perf gate's
/// baseline file carries too.
pub const SCHEMA_VERSION: u32 = 8;

/// Renders Table 1 with a side-by-side paper-versus-measured comparison.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1 — multimedia benchmarks (paper vs measured)\n");
    out.push_str(
        "Set of Task      Sub-tasks  Ideal ex time  Overhead (paper)  Overhead (measured)  Prefetch (paper)  Prefetch (measured)\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:>9}  {:>12}  {:>15}  {:>18}  {:>15}  {:>18}\n",
            row.name,
            row.subtasks,
            format!("{}", row.ideal),
            format!("+{:.0}%", row.paper_overhead_percent),
            format!("+{:.1}%", row.overhead_percent),
            format!("+{:.0}%", row.paper_prefetch_percent),
            format!("+{:.1}%", row.prefetch_percent),
        ));
    }
    out
}

/// Renders a figure sweep (Figure 6 or Figure 7) as one row per tile count and
/// one column per policy, plus the observed reuse percentage of the run-time
/// policy.
pub fn render_figure(points: &[FigurePoint], title: &str) -> String {
    let mut tiles: Vec<usize> = points.iter().map(|p| p.tiles).collect();
    tiles.sort_unstable();
    tiles.dedup();
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str("tiles  run-time  run-time+inter-task  hybrid  (reuse %)\n");
    for t in tiles {
        let get = |policy: PolicyKind| {
            points
                .iter()
                .find(|p| p.tiles == t && p.policy == policy)
                .map(|p| p.overhead_percent)
                .unwrap_or(f64::NAN)
        };
        let reuse = points
            .iter()
            .find(|p| p.tiles == t && p.policy == PolicyKind::RunTime)
            .map(|p| p.reuse_percent)
            .unwrap_or(f64::NAN);
        out.push_str(&format!(
            "{:>5}  {:>8.2}  {:>19.2}  {:>6.2}  ({:>5.1})\n",
            t,
            get(PolicyKind::RunTime),
            get(PolicyKind::RunTimeInterTask),
            get(PolicyKind::Hybrid),
            reuse,
        ));
    }
    out
}

/// Renders an ablation table.
pub fn render_ablation(rows: &[AblationRow], title: &str) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str("variant                      overhead %   reuse %\n");
    for row in rows {
        out.push_str(&format!(
            "{:<28} {:>9.2}  {:>8.1}\n",
            row.label, row.overhead_percent, row.reuse_percent
        ));
    }
    out
}

/// How the engine's prepared-plan cache behaved over one harness run — the
/// `plan_cache` block of `BENCH_results.json` (since schema v4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCacheBlock {
    /// Jobs that reused a cached plan (no design-time work).
    pub hits: u64,
    /// Jobs that prepared a plan.
    pub misses: u64,
    /// The subset of `misses` whose design-time search artifacts were
    /// restored from the persistent on-disk plan cache instead of
    /// recomputed. New in schema v6.
    pub disk_hits: u64,
    /// Average preparation wall clock per submitted job, in milliseconds —
    /// the amortisation the cache bought.
    pub amortized_prepare_ms: f64,
}

impl From<drhw_engine::CacheStats> for PlanCacheBlock {
    fn from(stats: drhw_engine::CacheStats) -> Self {
        PlanCacheBlock {
            hits: stats.hits,
            misses: stats.misses,
            disk_hits: stats.disk_hits,
            amortized_prepare_ms: stats.amortized_prepare_ms(),
        }
    }
}

/// How the TCP serving tier performed under the pinned loadgen swarm — the
/// `serving` block of `BENCH_results.json` (since schema v7).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServingBlock {
    /// Concurrent clients the swarm ran.
    pub clients: u64,
    /// Jobs completed across the swarm.
    pub jobs: u64,
    /// End-to-end completed-job throughput of the measured window.
    pub jobs_per_sec: f64,
    /// Median per-job latency, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-job latency, in milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile per-job latency, in milliseconds. New in schema v8.
    pub p999_ms: f64,
    /// Busy fraction of the client slots over the measured window: total
    /// in-flight job time divided by `elapsed × clients`. New in schema v8.
    pub utilization: f64,
}

/// How the pinned open-loop traffic scenario behaved — the `traffic` block
/// of `BENCH_results.json` (since schema v8). Latency and utilization
/// figures are deterministic (virtual clock); `events_per_sec` is the
/// wall-clock rate the driver produced events at.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficBlock {
    /// Cells of the pinned scenario.
    pub cells: u64,
    /// Jobs that arrived inside the measurement window, across cells.
    pub jobs: u64,
    /// Offered load across cells, per second of virtual window.
    pub offered_per_sec: f64,
    /// Achieved completion throughput across cells, per second of window.
    pub achieved_per_sec: f64,
    /// Median sojourn latency across cells, in virtual milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile sojourn latency, in virtual milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile sojourn latency, in virtual milliseconds.
    pub p999_ms: f64,
    /// Mean slot utilization across cells (busy fraction of the window).
    pub utilization: f64,
    /// Wall-clock event throughput of the driver (events per second).
    pub events_per_sec: f64,
}

/// Wall-clock measurements of one experiment-harness run, recorded alongside
/// the simulation results so the performance trajectory of the engine itself
/// is machine-readable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTiming {
    /// Worker threads of the engine the run went through.
    pub threads: usize,
    /// Wall-clock of each experiment, as `(label, milliseconds)` pairs in run
    /// order.
    pub experiments: Vec<(String, f64)>,
    /// Wall-clock of the cross-policy simulation forced onto one thread.
    pub sequential_ms: Option<f64>,
    /// Wall-clock of the same cross-policy simulation on `threads` workers.
    pub parallel_ms: Option<f64>,
    /// Per-stage wall clocks of the scheduling pipeline (list scheduler,
    /// Pareto pruning, branch & bound, replacement/reuse, critical-set loop)
    /// as `(stage, milliseconds)` pairs — see [`crate::stages`].
    pub stage_ms: Vec<(String, f64)>,
    /// Measured simulation throughput per policy, as `(policy,
    /// iterations per second)` pairs.
    pub policy_iterations_per_sec: Vec<(String, f64)>,
    /// Per-call cost of each per-iteration hot kernel (executor,
    /// replacement, reuse, hybrid, timing loop) as `(kernel, nanoseconds)`
    /// pairs — see [`crate::stages::measure_kernel_timings`]. New in
    /// schema v5.
    pub kernel_ns: Vec<(String, f64)>,
    /// Plan-cache counters of the engine the run went through, when the run
    /// used one (`None` renders as an all-zero block so the schema's key set
    /// is stable).
    pub plan_cache: Option<PlanCacheBlock>,
    /// Serving-tier swarm measurements, when the run exercised the TCP
    /// server (`None` renders as an all-zero block so the schema's key set
    /// is stable). New in schema v7.
    pub serving: Option<ServingBlock>,
    /// Open-loop traffic-scenario measurements, when the run drove the
    /// pinned scenario (`None` renders as an all-zero block so the schema's
    /// key set is stable). New in schema v8.
    pub traffic: Option<TrafficBlock>,
}

impl RunTiming {
    /// Sequential-over-parallel wall-clock ratio (> 1 means the parallel
    /// engine won), when both measurements were taken.
    pub fn speedup(&self) -> Option<f64> {
        match (self.sequential_ms, self.parallel_ms) {
            (Some(seq), Some(par)) if par > 0.0 => Some(seq / par),
            _ => None,
        }
    }
}

/// Renders the cross-policy simulation reports plus the run's wall-clock
/// timings as the machine-readable JSON written to `BENCH_results.json`
/// (schema v8): simulation parameters, one `policy → overhead_percent` (and
/// `policy → reuse_percent`) entry per policy, the threads used,
/// per-experiment `wall_clock_ms`, the sequential-versus-parallel speedup
/// measurement, the per-stage `stage_ms` block, the per-policy
/// `policy_iterations_per_sec` throughput block, the per-kernel `kernel_ns`
/// block (nanoseconds per hot-kernel call — new in v5), the engine's
/// `plan_cache` block (hits, misses, amortised preparation cost, plus the
/// on-disk `disk_hits` counter — new in v6), the TCP serving tier's
/// `serving` block (swarm size, jobs/sec, p50/p99 job latency — new in v7,
/// p999/utilization — new in v8), and the open-loop traffic scenario's
/// `traffic` block (offered vs achieved throughput, sojourn p50/p99/p999,
/// utilization, event rate — new in v8).
///
/// The document is one line of compact JSON from [`drhw_engine::json`]
/// plus a newline: numbers at full (shortest round-trip) precision, an
/// absent or non-finite measurement as `null`, and an absent block as an
/// all-zero object so the key set stays stable.
pub fn render_results_json(reports: &[SimulationReport], timing: &RunTiming) -> String {
    use JsonValue::{Float, UInt};
    let by_policy = |value: fn(&SimulationReport) -> f64| {
        let entries = reports
            .iter()
            .map(|r| (r.policy().to_string(), Float(value(r))));
        JsonValue::Object(entries.collect())
    };
    let measurements = |pairs: &[(String, f64)]| {
        JsonValue::Object(pairs.iter().map(|(k, v)| (k.clone(), Float(*v))).collect())
    };
    let optional = |value: Option<f64>| value.map_or(JsonValue::Null, Float);
    let mut doc = Vec::new();
    if let Some(first) = reports.first() {
        doc.push(("iterations", UInt(first.iterations() as u64)));
        doc.push(("tiles", UInt(first.tile_count() as u64)));
    }
    let cache = timing.plan_cache.unwrap_or_default();
    let serving = timing.serving.unwrap_or_default();
    let traffic = timing.traffic.unwrap_or_default();
    doc.extend([
        (
            "policy_overhead_percent",
            by_policy(SimulationReport::overhead_percent),
        ),
        (
            "policy_reuse_percent",
            by_policy(SimulationReport::reuse_percent),
        ),
        ("threads", UInt(timing.threads as u64)),
        ("wall_clock_ms", measurements(&timing.experiments)),
        (
            "speedup",
            object([
                ("sequential_ms", optional(timing.sequential_ms)),
                ("parallel_ms", optional(timing.parallel_ms)),
                ("sequential_over_parallel", optional(timing.speedup())),
            ]),
        ),
        ("stage_ms", measurements(&timing.stage_ms)),
        (
            "policy_iterations_per_sec",
            measurements(&timing.policy_iterations_per_sec),
        ),
        ("kernel_ns", measurements(&timing.kernel_ns)),
        (
            "plan_cache",
            object([
                ("hits", UInt(cache.hits)),
                ("misses", UInt(cache.misses)),
                ("disk_hits", UInt(cache.disk_hits)),
                ("amortized_prepare_ms", Float(cache.amortized_prepare_ms)),
            ]),
        ),
        (
            "serving",
            object([
                ("clients", UInt(serving.clients)),
                ("jobs", UInt(serving.jobs)),
                ("jobs_per_sec", Float(serving.jobs_per_sec)),
                ("p50_ms", Float(serving.p50_ms)),
                ("p99_ms", Float(serving.p99_ms)),
                ("p999_ms", Float(serving.p999_ms)),
                ("utilization", Float(serving.utilization)),
            ]),
        ),
        (
            "traffic",
            object([
                ("cells", UInt(traffic.cells)),
                ("jobs", UInt(traffic.jobs)),
                ("offered_per_sec", Float(traffic.offered_per_sec)),
                ("achieved_per_sec", Float(traffic.achieved_per_sec)),
                ("p50_ms", Float(traffic.p50_ms)),
                ("p99_ms", Float(traffic.p99_ms)),
                ("p999_ms", Float(traffic.p999_ms)),
                ("utilization", Float(traffic.utilization)),
                ("events_per_sec", Float(traffic.events_per_sec)),
            ]),
        ),
        ("schema_version", UInt(u64::from(SCHEMA_VERSION))),
    ]);
    format!("{}\n", object(doc).to_json())
}

/// A JSON object with the given entries, in order.
pub(crate) fn object<'a>(entries: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use drhw_engine::json::{self, JsonValue::Float};
    use drhw_model::Time;

    #[test]
    fn table1_rendering_contains_every_row() {
        let rows = vec![Table1Row {
            name: "JPEG dec.",
            subtasks: 4,
            ideal: Time::from_millis(81),
            overhead_percent: 19.8,
            prefetch_percent: 4.9,
            paper_overhead_percent: 20.0,
            paper_prefetch_percent: 5.0,
        }];
        let text = render_table1(&rows);
        assert!(text.contains("JPEG dec."));
        assert!(text.contains("81ms"));
        assert!(text.contains("+19.8%"));
        assert!(text.contains("+20%"));
    }

    #[test]
    fn figure_rendering_has_one_line_per_tile_count() {
        let points = vec![
            FigurePoint {
                tiles: 8,
                policy: PolicyKind::RunTime,
                overhead_percent: 3.0,
                reuse_percent: 18.0,
            },
            FigurePoint {
                tiles: 8,
                policy: PolicyKind::RunTimeInterTask,
                overhead_percent: 1.2,
                reuse_percent: 18.0,
            },
            FigurePoint {
                tiles: 8,
                policy: PolicyKind::Hybrid,
                overhead_percent: 1.3,
                reuse_percent: 18.0,
            },
            FigurePoint {
                tiles: 9,
                policy: PolicyKind::RunTime,
                overhead_percent: 2.5,
                reuse_percent: 22.0,
            },
            FigurePoint {
                tiles: 9,
                policy: PolicyKind::RunTimeInterTask,
                overhead_percent: 1.0,
                reuse_percent: 22.0,
            },
            FigurePoint {
                tiles: 9,
                policy: PolicyKind::Hybrid,
                overhead_percent: 1.1,
                reuse_percent: 22.0,
            },
        ];
        let text = render_figure(&points, "Figure 6");
        assert!(text.starts_with("Figure 6"));
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("    8"));
        assert!(text.contains("    9"));
    }

    #[test]
    fn results_json_is_well_formed_and_covers_every_policy() {
        let engine = drhw_engine::Engine::builder().build();
        let reports =
            crate::experiments::policy_overhead_reports(&engine, 2, 1, 8).expect("simulation runs");
        let timing = RunTiming {
            threads: 2,
            experiments: vec![("fig6".to_string(), 1234.5), ("fig7".to_string(), 987.0)],
            sequential_ms: Some(2000.0),
            parallel_ms: Some(1000.0),
            stage_ms: vec![
                ("list_scheduler".to_string(), 1.5),
                ("pareto".to_string(), 2.5),
            ],
            policy_iterations_per_sec: vec![("hybrid".to_string(), 512.0)],
            kernel_ns: vec![
                ("executor".to_string(), 850.25),
                ("timing_loop".to_string(), 410.0),
            ],
            plan_cache: Some(PlanCacheBlock {
                hits: 3,
                misses: 2,
                disk_hits: 1,
                amortized_prepare_ms: 1.25,
            }),
            serving: Some(ServingBlock {
                clients: 64,
                jobs: 128,
                jobs_per_sec: 321.5,
                p50_ms: 12.25,
                p99_ms: 48.5,
                p999_ms: 91.75,
                utilization: 0.5625,
            }),
            traffic: Some(TrafficBlock {
                cells: 6,
                jobs: 900,
                offered_per_sec: 30.0,
                achieved_per_sec: 29.5,
                p50_ms: 310.0,
                p99_ms: 1200.5,
                p999_ms: 1500.25,
                utilization: 0.875,
                events_per_sec: 250000.0,
            }),
        };
        let json = render_results_json(&reports, &timing);
        assert_eq!(json.lines().count(), 1, "one line of compact JSON");
        assert!(json.ends_with("}\n"));
        let doc = json::parse(json.trim_end()).expect("the results file is valid JSON");
        let (maps, rest): (Vec<_>, Vec<_>) = doc
            .entries()
            .expect("the results file is an object")
            .iter()
            .cloned()
            .partition(|(key, _)| key.ends_with("_percent"));
        let policies: Vec<String> = PolicyKind::ALL.iter().map(ToString::to_string).collect();
        let map_keys: Vec<&str> = maps.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            map_keys,
            ["policy_overhead_percent", "policy_reuse_percent"]
        );
        for (key, map) in &maps {
            let map = map.entries().expect("a policy map is an object");
            let names: Vec<String> = map.iter().map(|(name, _)| name.clone()).collect();
            assert_eq!(names, policies, "{key} covers every policy in run order");
            assert!(map.iter().all(|(_, v)| matches!(v, Float(_))), "{key}");
        }
        let golden = json::parse(
            r#"{"iterations": 2, "tiles": 8, "threads": 2,
                "wall_clock_ms": {"fig6": 1234.5, "fig7": 987.0},
                "speedup": {"sequential_ms": 2000.0, "parallel_ms": 1000.0,
                            "sequential_over_parallel": 2.0},
                "stage_ms": {"list_scheduler": 1.5, "pareto": 2.5},
                "policy_iterations_per_sec": {"hybrid": 512.0},
                "kernel_ns": {"executor": 850.25, "timing_loop": 410.0},
                "plan_cache": {"hits": 3, "misses": 2, "disk_hits": 1,
                               "amortized_prepare_ms": 1.25},
                "serving": {"clients": 64, "jobs": 128, "jobs_per_sec": 321.5, "p50_ms": 12.25,
                            "p99_ms": 48.5, "p999_ms": 91.75, "utilization": 0.5625},
                "traffic": {"cells": 6, "jobs": 900, "offered_per_sec": 30.0,
                            "achieved_per_sec": 29.5, "p50_ms": 310.0, "p99_ms": 1200.5,
                            "p999_ms": 1500.25, "utilization": 0.875,
                            "events_per_sec": 250000.0},
                "schema_version": 8}"#,
        )
        .unwrap();
        assert_eq!(JsonValue::Object(rest), golden);
    }

    #[test]
    fn timing_speedup_handles_missing_measurements() {
        assert_eq!(RunTiming::default().speedup(), None);
        let timing = RunTiming {
            threads: 1,
            sequential_ms: Some(10.0),
            ..RunTiming::default()
        };
        assert_eq!(timing.speedup(), None);
        let json = render_results_json(&[], &timing);
        // Absent measurements render as null, and empty or absent blocks stay
        // in the key set as empty or all-zero objects.
        let golden = json::parse(
            r#"{"policy_overhead_percent": {}, "policy_reuse_percent": {}, "threads": 1,
                "wall_clock_ms": {},
                "speedup": {"sequential_ms": 10.0, "parallel_ms": null,
                            "sequential_over_parallel": null},
                "stage_ms": {}, "policy_iterations_per_sec": {}, "kernel_ns": {},
                "plan_cache": {"hits": 0, "misses": 0, "disk_hits": 0,
                               "amortized_prepare_ms": 0.0},
                "serving": {"clients": 0, "jobs": 0, "jobs_per_sec": 0.0, "p50_ms": 0.0,
                            "p99_ms": 0.0, "p999_ms": 0.0, "utilization": 0.0},
                "traffic": {"cells": 0, "jobs": 0, "offered_per_sec": 0.0,
                            "achieved_per_sec": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
                            "p999_ms": 0.0, "utilization": 0.0, "events_per_sec": 0.0},
                "schema_version": 8}"#,
        )
        .unwrap();
        assert_eq!(json::parse(json.trim_end()), Ok(golden));
    }

    #[test]
    fn ablation_rendering_lists_variants() {
        let rows = vec![AblationRow {
            label: "replacement=lru".to_string(),
            overhead_percent: 2.5,
            reuse_percent: 10.0,
        }];
        let text = render_ablation(&rows, "Replacement ablation");
        assert!(text.contains("replacement=lru"));
        assert!(text.contains("2.50"));
    }
}
