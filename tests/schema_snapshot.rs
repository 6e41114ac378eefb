//! Golden snapshot of the `BENCH_results.json` schema (version 8), of
//! `loadgen`'s summary lines and of the `engine_serve` and traffic wire
//! schemas (`JobSpec` requests, result objects, `traffic_event` streams).
//!
//! Every one of these documents is built as a `drhw_engine::json` value in
//! a fixed key order, so a refactor can still silently drop, rename or
//! reorder keys that downstream consumers — CI artifact scrapers, the
//! `perf_gate` baseline, the EXPERIMENTS.md examples, serving clients —
//! depend on. These tests parse each document back and pin the exact key
//! order, nesting and value *types*; changing a schema intentionally means
//! bumping its version marker and updating this snapshot in the same commit.

use drhw_bench::experiments::policy_overhead_reports;
use drhw_bench::report::{
    render_results_json, PlanCacheBlock, RunTiming, ServingBlock, TrafficBlock,
};
use drhw_bench::serving::{
    OpenLoopConfig, OpenLoopOutcome, ScopeCounts, SwarmConfig, SwarmOutcome,
};
use drhw_bench::stages::{KERNEL_NAMES, STAGE_NAMES};
use drhw_engine::json::{self, JsonValue};
use drhw_engine::JobSpec;
use drhw_prefetch::PolicyKind;

/// The exact top-level key order of schema v8.
const TOP_LEVEL_V8: [&str; 14] = [
    "iterations",
    "tiles",
    "policy_overhead_percent",
    "policy_reuse_percent",
    "threads",
    "wall_clock_ms",
    "speedup",
    "stage_ms",
    "policy_iterations_per_sec",
    "kernel_ns",
    "plan_cache",
    "serving",
    "traffic",
    "schema_version",
];

/// Parses a rendered results file: one line of compact JSON plus its
/// trailing newline.
fn parse_results(text: &str) -> JsonValue {
    assert!(text.ends_with("}\n"), "{text:?}");
    assert_eq!(text.lines().count(), 1, "one line of compact JSON");
    json::parse(text.trim_end()).expect("BENCH_results.json is valid JSON")
}

/// Asserts that `doc` holds every top-level entry of the `golden` document
/// exactly: the same nested key order, value types and values.
fn assert_blocks(doc: &JsonValue, golden: &str) {
    let golden = json::parse(golden).expect("the golden document parses");
    for (key, expected) in golden.entries().expect("the golden is an object") {
        assert_eq!(
            doc.get(key),
            Some(expected),
            "{key} changed — bump schema_version and update this snapshot"
        );
    }
}

#[test]
fn bench_results_schema_v8_golden_snapshot() {
    let engine = drhw_engine::Engine::builder().build();
    let reports = policy_overhead_reports(&engine, 2, 1, 8).expect("simulation runs");
    let policies = [
        "no-prefetch",
        "design-time-prefetch",
        "run-time",
        "run-time+inter-task",
        "hybrid",
    ];
    let timing = RunTiming {
        threads: 2,
        experiments: vec![("table1".to_string(), 10.0), ("fig6".to_string(), 20.0)],
        sequential_ms: Some(100.0),
        parallel_ms: Some(50.0),
        stage_ms: STAGE_NAMES
            .iter()
            .enumerate()
            .map(|(i, stage)| (stage.to_string(), i as f64 + 0.5))
            .collect(),
        policy_iterations_per_sec: policies.iter().map(|p| (p.to_string(), 1000.0)).collect(),
        kernel_ns: KERNEL_NAMES
            .iter()
            .enumerate()
            .map(|(i, kernel)| (kernel.to_string(), i as f64 * 100.0 + 50.0))
            .collect(),
        plan_cache: Some(PlanCacheBlock {
            hits: 4,
            misses: 1,
            disk_hits: 1,
            amortized_prepare_ms: 0.5,
        }),
        serving: Some(ServingBlock {
            clients: 16,
            jobs: 32,
            jobs_per_sec: 123.5,
            p50_ms: 1.5,
            p99_ms: 9.0,
            p999_ms: 12.25,
            utilization: 0.75,
        }),
        traffic: Some(TrafficBlock {
            cells: 4,
            jobs: 800,
            offered_per_sec: 24.0,
            achieved_per_sec: 23.5,
            p50_ms: 310.0,
            p99_ms: 1200.5,
            p999_ms: 1500.25,
            utilization: 0.625,
            events_per_sec: 250000.0,
        }),
    };
    let doc = parse_results(&render_results_json(&reports, &timing));

    // Top level: the exact schema v8 key set, in order.
    assert_eq!(
        object_keys(&doc),
        TOP_LEVEL_V8,
        "schema v8 top-level keys changed — bump schema_version and update this snapshot"
    );

    // Both policy maps carry exactly the five policy names, in run order,
    // each a number (the values come from the simulation).
    for block in ["policy_overhead_percent", "policy_reuse_percent"] {
        let map = doc.get(block).unwrap();
        assert_eq!(object_keys(map), policies, "{block}");
        for (policy, value) in map.entries().unwrap() {
            assert!(matches!(value, JsonValue::Float(_)), "{block}.{policy}");
        }
    }

    // Every other block is pinned whole: counts are integers, measurements
    // are numbers, and each block keeps its key order — the stage and kernel
    // names, the plan_cache counters (disk_hits new in v6), the serving
    // block the loadgen summary feeds (new in v7; p999_ms and utilization
    // new in v8) and the open-loop traffic block (new in v8).
    assert_blocks(
        &doc,
        r#"{"iterations": 2, "tiles": 8, "threads": 2,
            "wall_clock_ms": {"table1": 10.0, "fig6": 20.0},
            "speedup": {"sequential_ms": 100.0, "parallel_ms": 50.0,
                        "sequential_over_parallel": 2.0},
            "stage_ms": {"pareto": 0.5, "branch_bound": 1.5, "critical_set": 2.5,
                         "list_scheduler": 3.5, "replacement_reuse": 4.5},
            "policy_iterations_per_sec": {"no-prefetch": 1000.0,
                "design-time-prefetch": 1000.0, "run-time": 1000.0,
                "run-time+inter-task": 1000.0, "hybrid": 1000.0},
            "kernel_ns": {"executor": 50.0, "replacement": 150.0, "reuse": 250.0,
                          "hybrid": 350.0, "timing_loop": 450.0},
            "plan_cache": {"hits": 4, "misses": 1, "disk_hits": 1,
                           "amortized_prepare_ms": 0.5},
            "serving": {"clients": 16, "jobs": 32, "jobs_per_sec": 123.5, "p50_ms": 1.5,
                        "p99_ms": 9.0, "p999_ms": 12.25, "utilization": 0.75},
            "traffic": {"cells": 4, "jobs": 800, "offered_per_sec": 24.0,
                        "achieved_per_sec": 23.5, "p50_ms": 310.0, "p99_ms": 1200.5,
                        "p999_ms": 1500.25, "utilization": 0.625,
                        "events_per_sec": 250000.0},
            "schema_version": 8}"#,
    );
}

#[test]
fn schema_snapshot_also_holds_for_absent_measurements() {
    // Null/empty measurements must stay in the key set, not vanish from it.
    let doc = parse_results(&render_results_json(&[], &RunTiming::default()));
    // Without reports the iteration/tile header is absent, but everything
    // else — including the speedup, stage, throughput and plan-cache blocks
    // — survives.
    assert_eq!(object_keys(&doc), &TOP_LEVEL_V8[2..]);
    assert_blocks(
        &doc,
        r#"{"policy_overhead_percent": {}, "policy_reuse_percent": {}, "threads": 0,
            "wall_clock_ms": {},
            "speedup": {"sequential_ms": null, "parallel_ms": null,
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
    );
}

/// Pins the last stdout line of both `loadgen` modes byte for byte — key
/// order, the nested `retries` and `drops` objects, integer counts and
/// float measurements. EXPERIMENTS.md documents these lines and the CI
/// serving and traffic jobs check for their `type`.
#[test]
fn loadgen_summary_lines_are_pinned() {
    let swarm = SwarmConfig {
        clients: 3,
        jobs_per_client: 2,
        ..SwarmConfig::default()
    };
    let outcome = SwarmOutcome {
        clients_connected: 3,
        jobs_completed: 6,
        rejections_seen: 1,
        elapsed_ms: 500.0,
        ..SwarmOutcome::default()
    };
    assert_eq!(
        outcome.summary_json(&swarm).to_json(),
        concat!(
            r#"{"type":"loadgen","clients":3,"jobs_per_client":2,"clients_connected":3,"#,
            r#""clients_failed":0,"jobs_completed":6,"jobs_errored":0,"rejections_seen":1,"#,
            r#""elapsed_ms":500.0,"jobs_per_sec":12.0,"p50_ms":0.0,"p99_ms":0.0,"#,
            r#""p999_ms":0.0,"utilization":0.0}"#
        )
    );

    let open_loop = OpenLoopConfig {
        rate_per_sec: 8.0,
        jobs: 4,
        seed: 7,
        ..OpenLoopConfig::default()
    };
    let outcome = OpenLoopOutcome {
        jobs_offered: 4,
        jobs_completed: 2,
        jobs_dropped: 2,
        retries: ScopeCounts {
            client: 1,
            server: 2,
            connection: 3,
        },
        drops: ScopeCounts {
            client: 0,
            server: 2,
            connection: 0,
        },
        planned_ms: 500.0,
        elapsed_ms: 250.0,
        ..OpenLoopOutcome::default()
    };
    assert_eq!(
        outcome.summary_json(&open_loop).to_json(),
        concat!(
            r#"{"type":"loadgen_open_loop","rate_per_sec":8.0,"jobs":4,"seed":7,"#,
            r#""jobs_offered":4,"jobs_completed":2,"jobs_errored":0,"jobs_dropped":2,"#,
            r#""retries":{"client":1,"server":2,"connection":3},"#,
            r#""drops":{"client":0,"server":2,"connection":0},"#,
            r#""planned_ms":500.0,"elapsed_ms":250.0,"offered_per_sec":8.0,"#,
            r#""achieved_per_sec":8.0,"p50_ms":0.0,"p99_ms":0.0,"p999_ms":0.0}"#
        )
    );
}

/// The exact key order of a `JobSpec` with every field set, as put on the
/// `engine_serve` wire. Optional fields are omitted when unset (pinned by
/// the minimal-spec assert below).
const JOB_SPEC_KEYS: [&str; 9] = [
    "workload",
    "tiles",
    "policies",
    "iterations",
    "seed",
    "replacement",
    "point_selection",
    "chunk_size",
    "task_inclusion_probability",
];

/// The exact key order of one per-policy report object inside a serve
/// `result` line.
const REPORT_KEYS: [&str; 11] = [
    "policy",
    "activations",
    "ideal_us",
    "penalty_us",
    "overhead_percent",
    "loads_performed",
    "loads_cancelled",
    "drhw_subtasks_executed",
    "reused_subtasks",
    "reuse_percent",
    "reconfiguration_energy_mj",
];

#[test]
fn job_spec_wire_schema_is_pinned() {
    let full = JobSpec::new("multimedia")
        .with_tiles(8)
        .with_policies([PolicyKind::Hybrid])
        .with_iterations(10)
        .with_seed(1)
        .with_replacement(drhw_prefetch::ReplacementPolicy::LeastRecentlyUsed)
        .with_point_selection(drhw_sim::PointSelection::Fastest)
        .with_chunk_size(4)
        .with_task_inclusion_probability(0.5);
    let rendered = full.to_json();
    let keys: Vec<&str> = rendered
        .entries()
        .expect("a spec renders as an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys, JOB_SPEC_KEYS,
        "JobSpec wire keys changed — serving clients depend on these names"
    );
    // Round trip through the real parser.
    let reparsed = JobSpec::from_json(&json::parse(&rendered.to_json()).unwrap()).unwrap();
    assert_eq!(reparsed, full);
    // A minimal spec stays minimal on the wire.
    let minimal = JobSpec::new("multimedia").to_json();
    assert_eq!(minimal.to_json(), r#"{"workload":"multimedia"}"#);
}

/// The exact key order of a `sweep_result` line in `results.jsonl`.
const SWEEP_RESULT_KEYS: [&str; 5] = ["type", "set", "index", "spec", "reports"];

/// The exact key order of a `sweep_error` line in `results.jsonl`.
const SWEEP_ERROR_KEYS: [&str; 5] = ["type", "set", "index", "spec", "message"];

/// The exact top-level key order of `SWEEP_summary.json`.
const SWEEP_SUMMARY_KEYS: [&str; 7] = [
    "type",
    "experiment",
    "sets",
    "duplicates",
    "errors",
    "workloads",
    "axes",
];

fn object_keys(value: &JsonValue) -> Vec<&str> {
    value
        .entries()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// Runs a three-set sweep (one set failing) and pins every key set the
/// sweep session emits: result lines, error lines and the summary —
/// downstream scrapers and the CI sweep job depend on these names.
#[test]
fn sweep_wire_schema_is_pinned() {
    use drhw_engine::sweep::{run_sweep, SweepOptions, RESULTS_FILE, SUMMARY_FILE};
    use drhw_engine::ExperimentSpec;

    let spec_json = r#"{"experiment":"schema_pin","workloads":["multimedia"],
        "tiles":[4],"policies":["no-prefetch"],"iterations":[2],"seeds":[1,2],
        "explicit":[{"workload":"random-200x200","tiles":2,"iterations":1}]}"#;
    let spec = ExperimentSpec::from_json(&json::parse(spec_json).unwrap()).unwrap();
    let dir = std::env::temp_dir().join(format!("drhw-schema-pin-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let engine = drhw_engine::Engine::builder().threads(1).build();
    let mut log = Vec::new();
    let outcome =
        run_sweep(&engine, &spec, &dir, &SweepOptions::default(), &mut log).expect("sweep runs");
    assert!(outcome.finished);
    assert_eq!(outcome.errors, 1, "the explicit set fails in simulation");

    let results =
        std::fs::read_to_string(outcome.session_dir.join(RESULTS_FILE)).expect("result log");
    let mut saw_result = false;
    let mut saw_error = false;
    for line in results.lines() {
        let value = json::parse(line).expect("result lines are JSON");
        match value.get("type").and_then(|v| v.as_str()) {
            Some("sweep_result") => {
                saw_result = true;
                assert_eq!(object_keys(&value), SWEEP_RESULT_KEYS, "{line}");
            }
            Some("sweep_error") => {
                saw_error = true;
                assert_eq!(object_keys(&value), SWEEP_ERROR_KEYS, "{line}");
            }
            other => panic!("unknown result-line type {other:?}: {line}"),
        }
        // The `set` id is the 16-hex-digit ParamSetId.
        let id = value.get("set").and_then(|v| v.as_str()).expect("set id");
        assert_eq!(id.len(), 16, "{line}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{line}");
        // Report objects inside a result line reuse the serve schema.
        if let Some(reports) = value.get("reports").and_then(|v| v.as_array()) {
            for report in reports {
                assert_eq!(object_keys(report), REPORT_KEYS, "{line}");
            }
        }
    }
    assert!(saw_result && saw_error);

    let summary_text =
        std::fs::read_to_string(outcome.session_dir.join(SUMMARY_FILE)).expect("summary");
    let summary = json::parse(summary_text.trim_end()).expect("summary is JSON");
    assert_eq!(
        object_keys(&summary),
        SWEEP_SUMMARY_KEYS,
        "SWEEP_summary.json keys changed — the CI sweep job scrapes these"
    );
    for row in summary.get("workloads").and_then(|v| v.as_array()).unwrap() {
        assert_eq!(
            object_keys(row),
            ["workload", "policies", "best_policy", "worst_policy"]
        );
        for policy in row.get("policies").and_then(|v| v.as_array()).unwrap() {
            assert_eq!(
                object_keys(policy),
                ["policy", "median_overhead_percent", "sets"]
            );
        }
    }
    for row in summary.get("axes").and_then(|v| v.as_array()).unwrap() {
        assert_eq!(object_keys(row), ["axis", "values"]);
        for value in row.get("values").and_then(|v| v.as_array()).unwrap() {
            assert_eq!(
                object_keys(value),
                ["value", "median_overhead_percent", "sets"]
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The exact key order of a `traffic_event` line, per event kind.
const TRAFFIC_EVENT_BASE_KEYS: [&str; 5] = ["type", "cell", "event", "job", "t_us"];

/// The exact key order of one cell block inside `TRAFFIC_summary.json`.
const TRAFFIC_CELL_KEYS: [&str; 16] = [
    "cell",
    "generator",
    "workload",
    "policy",
    "arrived",
    "measured",
    "dropped",
    "dropped_measured",
    "completed_in_window",
    "offered_per_sec",
    "achieved_per_sec",
    "wait",
    "service",
    "sojourn",
    "utilization",
    "overhead_percent",
];

/// The exact key order of one latency block (wait/service/sojourn).
const TRAFFIC_LATENCY_KEYS: [&str; 6] = [
    "samples", "p50_ms", "p99_ms", "p999_ms", "mean_ms", "max_ms",
];

/// Pins every wire object of the traffic subsystem (bench schema v8): the
/// `TRAFFIC_results.jsonl` header/cell/event lines, recorded arrival traces
/// and the `TRAFFIC_summary.json` document — the CI `traffic` job diffs
/// these byte-for-byte across worker counts, so the key sets must only
/// change together with a schema bump.
#[test]
fn traffic_wire_schema_is_pinned() {
    use drhw_traffic::record::{
        write_cell_line, write_event_arrival, write_event_completion, write_event_drop,
        write_event_start, write_scenario_header,
    };
    use drhw_traffic::{render_summary, render_trace, run_scenario, TrafficScenario};

    let scenario_json = r#"{
        "scenario": "schema-pin",
        "seed": 7,
        "slots": 1,
        "duration_ms": 2000,
        "iterations": 10,
        "tiles": 4,
        "generators": [{"name": "g", "kind": "poisson", "rate_per_sec": 5.0}],
        "workloads": ["multimedia"],
        "policies": ["hybrid"]
    }"#;
    let scenario = TrafficScenario::from_json_text(scenario_json).expect("scenario parses");

    // Synthetic event lines: exact key order per event kind.
    let mut sink = Vec::new();
    write_scenario_header(&mut sink, &scenario, 1).unwrap();
    write_cell_line(
        &mut sink,
        0,
        "g",
        "multimedia",
        PolicyKind::Hybrid,
        scenario.slots,
    )
    .unwrap();
    write_event_arrival(&mut sink, 0, 0, 100).unwrap();
    write_event_drop(&mut sink, 0, 1, 200).unwrap();
    write_event_start(&mut sink, 0, 0, 300, 0, 200).unwrap();
    write_event_completion(&mut sink, 0, 0, 900, 0, 600, 800).unwrap();
    let text = String::from_utf8(sink).unwrap();
    let lines: Vec<JsonValue> = text.lines().map(|l| json::parse(l).unwrap()).collect();
    assert_eq!(
        object_keys(&lines[0]),
        [
            "type",
            "scenario",
            "seed",
            "slots",
            "duration_ms",
            "warmup_ms",
            "iterations",
            "cells",
            "schema_version"
        ],
        "traffic_scenario header keys changed"
    );
    assert_eq!(
        lines[0].get("schema_version").and_then(|v| v.as_u64()),
        Some(8)
    );
    assert_eq!(
        object_keys(&lines[1]),
        ["type", "cell", "generator", "workload", "policy", "slots"],
        "traffic_cell keys changed"
    );
    assert_eq!(object_keys(&lines[2]), TRAFFIC_EVENT_BASE_KEYS, "arrival");
    assert_eq!(object_keys(&lines[3]), TRAFFIC_EVENT_BASE_KEYS, "drop");
    let start_keys: Vec<&str> = TRAFFIC_EVENT_BASE_KEYS
        .iter()
        .copied()
        .chain(["slot", "wait_us"])
        .collect();
    assert_eq!(object_keys(&lines[4]), start_keys, "start");
    let completion_keys: Vec<&str> = TRAFFIC_EVENT_BASE_KEYS
        .iter()
        .copied()
        .chain(["slot", "service_us", "sojourn_us"])
        .collect();
    assert_eq!(object_keys(&lines[5]), completion_keys, "completion");

    // Recorded traces: exactly the trace_arrival triple per line.
    let trace = render_trace(&[10, 250]);
    for line in trace.lines() {
        let value = json::parse(line).unwrap();
        assert_eq!(object_keys(&value), ["type", "job", "t_us"]);
        assert_eq!(
            value.get("type").and_then(|v| v.as_str()),
            Some("trace_arrival")
        );
    }

    // A real (tiny) run: the summary document and its nested blocks.
    let engine = drhw_engine::Engine::builder().threads(1).build();
    let mut events = Vec::new();
    let outcome = run_scenario(&engine, &scenario, std::path::Path::new("."), &mut events)
        .expect("scenario runs");
    let summary_text = render_summary(&outcome);
    let summary = json::parse(summary_text.trim_end()).expect("summary is JSON");
    assert_eq!(
        object_keys(&summary),
        [
            "type",
            "scenario",
            "seed",
            "slots",
            "duration_ms",
            "warmup_ms",
            "iterations",
            "cells",
            "schema_version"
        ],
        "TRAFFIC_summary.json top-level keys changed — the CI traffic job scrapes these"
    );
    assert_eq!(
        summary.get("schema_version").and_then(|v| v.as_u64()),
        Some(8)
    );
    let cells = summary.get("cells").and_then(|v| v.as_array()).unwrap();
    assert_eq!(cells.len(), 1);
    for cell in cells {
        assert_eq!(object_keys(cell), TRAFFIC_CELL_KEYS);
        for block in ["wait", "service", "sojourn"] {
            assert_eq!(
                object_keys(cell.get(block).unwrap()),
                TRAFFIC_LATENCY_KEYS,
                "{block} latency block keys changed"
            );
        }
        let utilization = cell.get("utilization").unwrap();
        assert_eq!(object_keys(utilization), ["per_slot", "mean"]);
        assert_eq!(
            utilization
                .get("per_slot")
                .and_then(|v| v.as_array())
                .map(|slots| slots.len()),
            Some(scenario.slots)
        );
    }
}

#[test]
fn serve_result_wire_schema_is_pinned() {
    let engine = drhw_engine::Engine::builder().build();
    let reports = engine
        .run(JobSpec::new("multimedia").with_tiles(8).with_iterations(2))
        .expect("job runs");
    let rendered = drhw_engine::serve::report_json(&reports[0]);
    let keys: Vec<&str> = rendered
        .entries()
        .expect("a report renders as an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys, REPORT_KEYS,
        "serve result wire keys changed — update the golden session too"
    );
    for (key, value) in rendered.entries().unwrap() {
        match key.as_str() {
            "policy" => assert!(value.as_str().is_some()),
            _ => assert!(value.as_f64().is_some(), "{key} must be numeric"),
        }
    }
}
