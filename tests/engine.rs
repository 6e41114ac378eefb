//! Integration tests of the `drhw-engine` job layer: bit-for-bit parity
//! with the sequential `IterationPlan::run`, worker-count and plan-cache
//! invariance (hit/miss equivalence, eviction, seed independence),
//! deterministic streaming progress, cooperative cancellation, and the
//! release-mode warm-versus-cold amortisation bound.

use std::ops::RangeInclusive;
use std::sync::Arc;

use drhw_bench::experiments::workload_config;
use drhw_engine::{Engine, EngineError, JobSpec};
use drhw_model::{ConfigId, Platform, Subtask, SubtaskGraph, Task, TaskId, TaskSet, Time};
use drhw_prefetch::PolicyKind;
use drhw_sim::{IterationPlan, SimulationReport};
use drhw_workloads::{Workload, WorkloadRegistry};

/// The classic path for a named workload: build the task set, derive the
/// config exactly as the pre-engine harness did, run the plan sequentially.
fn classic_reports(
    workload: &str,
    tiles: usize,
    iterations: usize,
    seed: u64,
    policies: &[PolicyKind],
) -> Vec<SimulationReport> {
    let registry = WorkloadRegistry::with_builtins();
    let workload = registry.resolve(workload).expect("workload resolves");
    let set = workload.task_set();
    let platform = Platform::virtex_like(tiles).expect("tiles are positive");
    let config = workload_config(workload.as_ref(), iterations, seed);
    let plan = IterationPlan::new(&set, &platform, config).expect("plan builds");
    plan.run(policies).expect("simulation runs")
}

#[test]
fn engine_reports_are_bit_identical_to_the_classic_api() {
    let engine = Engine::builder().build();
    for (workload, tiles, iterations, seed) in [
        ("multimedia", 8, 60, 2005),
        ("pocket_gl", 5, 40, 7),
        ("random-3x5", 5, 30, 99),
    ] {
        let spec = JobSpec::new(workload)
            .with_tiles(tiles)
            .with_iterations(iterations)
            .with_seed(seed);
        let via_engine = engine.run(spec).expect("engine job runs");
        let classic = classic_reports(workload, tiles, iterations, seed, &PolicyKind::ALL);
        assert_eq!(via_engine, classic, "{workload}@{tiles}t");
    }
}

#[test]
fn cache_hits_and_thread_counts_never_change_a_report() {
    // The default chunking; the §7 determinism case (chunk size 16, all
    // five policies, the paper's seed) whose floating-point energy totals
    // only match because the fold runs in chunk order; and a job of one
    // chunk per policy, with fewer slots than the largest pool has workers.
    let multimedia = JobSpec::new("multimedia").with_tiles(9);
    let specs = [
        multimedia.clone().with_iterations(70).with_seed(13),
        multimedia
            .clone()
            .with_iterations(96)
            .with_chunk_size(16)
            .with_seed(2005),
        multimedia.with_iterations(5).with_seed(14),
    ];
    let engines: Vec<Engine> = [1, 2, 4, 8]
        .into_iter()
        .map(|threads| Engine::builder().threads(threads).build())
        .collect();
    for spec in &specs {
        // A fresh single-worker engine: cold plan, one worker folding.
        let reference = Engine::builder()
            .threads(1)
            .build()
            .run(spec.clone())
            .expect("job runs");
        for engine in &engines {
            // Every engine serves each spec twice; the second run is always
            // a cache hit.
            for _ in 0..2 {
                assert_eq!(
                    engine.run(spec.clone()).expect("job runs"),
                    reference,
                    "{} worker(s), {} iterations",
                    engine.threads(),
                    spec.iterations.unwrap_or_default()
                );
            }
        }
    }
    // Seed, iteration count and chunk size are not part of the plan key:
    // each engine prepared the multimedia@9 plan once and served every
    // other job from its cache.
    for engine in &engines {
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2 * specs.len() as u64 - 1);
    }
}

#[test]
fn interleaved_jobs_match_their_isolated_runs() {
    let engine = Engine::builder().threads(3).build();
    let specs: Vec<JobSpec> = (0..4)
        .map(|i| {
            JobSpec::new(if i % 2 == 0 {
                "multimedia"
            } else {
                "pocket_gl"
            })
            .with_tiles(if i % 2 == 0 { 8 } else { 5 })
            .with_iterations(40 + 10 * i)
            .with_seed(1000 + i as u64)
        })
        .collect();
    // Submit everything up front so jobs genuinely share the pool...
    let handles: Vec<_> = specs
        .iter()
        .map(|spec| engine.submit(spec.clone()).expect("submits"))
        .collect();
    // ...then compare each result against a fresh, isolated engine run.
    for (spec, handle) in specs.iter().zip(handles) {
        let interleaved = handle.wait().expect("job runs");
        let isolated = Engine::builder()
            .threads(1)
            .build()
            .run(spec.clone())
            .expect("job runs");
        assert_eq!(interleaved, isolated, "{}", spec.workload);
    }
}

#[test]
fn progress_events_stream_in_fold_order_and_end_on_the_final_report() {
    let engine = Engine::builder().threads(4).build();
    let policies = [PolicyKind::NoPrefetch, PolicyKind::Hybrid];
    let mut handle = engine
        .submit(
            JobSpec::new("multimedia")
                .with_tiles(8)
                .with_iterations(50)
                .with_chunk_size(8)
                .with_policies(policies),
        )
        .expect("submits");
    let receiver = handle.progress().expect("first take yields the stream");
    assert!(handle.progress().is_none(), "the stream is taken once");
    let events: Vec<_> = receiver.iter().collect();
    let reports = handle.wait().expect("job runs");

    let chunks_per_policy = 50usize.div_ceil(8);
    assert_eq!(events.len(), policies.len() * chunks_per_policy);
    for (index, event) in events.iter().enumerate() {
        assert_eq!(event.policy, policies[index / chunks_per_policy]);
        assert_eq!(event.chunk, index % chunks_per_policy);
        assert_eq!(event.chunks_per_policy, chunks_per_policy);
        let expected_done = ((event.chunk + 1) * 8).min(50);
        assert_eq!(event.iterations_done, expected_done);
        assert_eq!(event.partial_stats.policy(), event.policy);
        assert_eq!(event.partial_stats.iterations(), expected_done);
    }
    // The last event of each policy IS that policy's final report.
    for (which, report) in reports.iter().enumerate() {
        let last = &events[(which + 1) * chunks_per_policy - 1];
        assert_eq!(&last.partial_stats, report);
    }
}

#[test]
fn cancellation_stops_the_job_and_reports_cancelled() {
    let engine = Engine::builder().threads(2).build();
    // Big enough that the job cannot finish before the cancel lands.
    let handle = engine
        .submit(
            JobSpec::new("multimedia")
                .with_tiles(8)
                .with_iterations(200_000),
        )
        .expect("submits");
    handle.cancel();
    match handle.wait() {
        Err(EngineError::Cancelled { job }) => assert_eq!(job, handle.id()),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(matches!(
        handle.poll(),
        Some(Err(EngineError::Cancelled { .. }))
    ));
    // The engine stays usable after a cancellation.
    let reports = engine
        .run(JobSpec::new("multimedia").with_tiles(8).with_iterations(10))
        .expect("job runs after a cancel");
    assert_eq!(reports.len(), PolicyKind::ALL.len());
}

#[test]
fn eviction_at_capacity_keeps_results_correct() {
    let engine = Engine::builder().threads(2).cache_capacity(1).build();
    let multimedia = JobSpec::new("multimedia")
        .with_tiles(8)
        .with_iterations(30)
        .with_policies([PolicyKind::Hybrid]);
    let pocket = JobSpec::new("pocket_gl")
        .with_tiles(5)
        .with_iterations(30)
        .with_policies([PolicyKind::Hybrid]);
    let first = engine.run(multimedia.clone()).expect("job runs");
    engine.run(pocket).expect("job runs"); // evicts the multimedia plan
    let stats = engine.cache_stats();
    assert_eq!(
        stats.evictions, 1,
        "capacity 1 must evict on the second plan"
    );
    assert_eq!(stats.entries, 1);
    // Re-preparing the evicted plan yields bit-identical results.
    let again = engine.run(multimedia).expect("job runs");
    assert_eq!(first, again);
    assert_eq!(engine.cache_stats().misses, 3, "the re-run was a miss");
}

#[test]
fn unknown_workloads_and_bad_specs_fail_with_named_errors() {
    let engine = Engine::builder().build();
    let err = engine.run(JobSpec::new("warp-drive")).unwrap_err();
    assert!(matches!(err, EngineError::Workload(_)));
    assert!(err.to_string().contains("warp-drive"));

    let err = engine
        .run(JobSpec::new("multimedia").with_iterations(0))
        .unwrap_err();
    assert!(err.to_string().contains("`iterations`"), "{err}");

    // Parameterised names resolve on demand, exactly like the registry.
    let reports = engine
        .run(
            JobSpec::new("fuzz-chain-7")
                .with_iterations(10)
                .with_policies([PolicyKind::RunTime]),
        )
        .expect("fuzz workloads resolve by name");
    assert_eq!(reports.len(), 1);
}

/// A custom workload registered at build time: the engine serves anything
/// implementing [`Workload`], not just the built-ins.
#[derive(Debug)]
struct PairWorkload;

impl Workload for PairWorkload {
    fn name(&self) -> &str {
        "custom-pair"
    }

    fn description(&self) -> &str {
        "two chained subtasks, for registry-extension tests"
    }

    fn task_set(&self) -> TaskSet {
        let mut graph = SubtaskGraph::new("pair");
        let a = graph.add_subtask(Subtask::new("a", Time::from_millis(9), ConfigId::new(0)));
        let b = graph.add_subtask(Subtask::new("b", Time::from_millis(7), ConfigId::new(1)));
        graph.add_dependency(a, b).expect("a pair is acyclic");
        TaskSet::new(
            "pair",
            vec![Task::single_scenario(TaskId::new(0), "pair", graph).expect("valid task")],
        )
        .expect("valid set")
    }

    fn tile_sweep(&self) -> RangeInclusive<usize> {
        2..=4
    }
}

#[test]
fn custom_workloads_register_and_default_their_tiles_from_the_sweep() {
    let engine = Engine::builder().register(Arc::new(PairWorkload)).build();
    // No explicit tile count: the spec defaults to the sweep's first point.
    let reports = engine
        .run(JobSpec::new("custom-pair").with_iterations(20))
        .expect("custom workload runs");
    assert_eq!(reports[0].tile_count(), 2);
    assert!(reports.iter().all(|r| r.activations() > 0));
}

#[test]
fn a_fresh_engine_restores_plans_from_the_shared_disk_cache_bit_identically() {
    let dir =
        std::env::temp_dir().join(format!("drhw-engine-disk-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = JobSpec::new("multimedia")
        .with_tiles(8)
        .with_iterations(40)
        .with_seed(2005);

    // Cold engine: builds the plan from scratch and persists the search
    // artifacts to disk as a side effect of the miss.
    let cold_engine = Engine::builder().threads(1).cache_dir(&dir).build();
    let cold = cold_engine.run(spec.clone()).expect("cold job runs");
    let cold_stats = cold_engine.cache_stats();
    assert_eq!(cold_stats.misses, 1);
    assert_eq!(
        cold_stats.disk_hits, 0,
        "nothing on disk before the first run"
    );
    assert!(
        std::fs::read_dir(&dir)
            .map(|d| d.count() > 0)
            .unwrap_or(false),
        "the cold miss must leave a cache entry in {}",
        dir.display()
    );

    // A second, fresh engine (simulating a process restart) restores the
    // artifacts from disk: still an in-memory miss, but a disk hit — and the
    // report is bit-identical to the cold build.
    let warm_engine = Engine::builder().threads(1).cache_dir(&dir).build();
    let warm = warm_engine.run(spec.clone()).expect("warm job runs");
    let warm_stats = warm_engine.cache_stats();
    assert_eq!(warm_stats.misses, 1);
    assert_eq!(warm_stats.disk_hits, 1, "restart must restore from disk");
    assert_eq!(
        cold, warm,
        "a disk-restored plan must not change the report"
    );

    // Damage every entry: the next fresh engine silently falls back to a
    // cold build (and repairs the entry) rather than trusting bad bytes.
    for entry in std::fs::read_dir(&dir).expect("cache dir lists") {
        let path = entry.expect("entry reads").path();
        std::fs::write(&path, "{\"format\":\"drhw-plan-cache\",").expect("truncates");
    }
    let repaired_engine = Engine::builder().threads(1).cache_dir(&dir).build();
    let repaired = repaired_engine
        .run(spec)
        .expect("job survives a corrupt cache");
    assert_eq!(repaired_engine.cache_stats().disk_hits, 0);
    assert_eq!(cold, repaired);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance bound of the plan cache: on a preparation-heavy workload
/// (Pocket GL: 40 scenarios through branch & bound) a warm submission must
/// be measurably faster than the cold one. Release mode only — debug-build
/// timings are not meaningful.
#[cfg(not(debug_assertions))]
#[test]
fn warm_cache_hit_is_measurably_faster_than_the_cold_run() {
    use std::time::Instant;

    let engine = Engine::builder().threads(1).build();
    let spec = JobSpec::new("pocket_gl")
        .with_tiles(5)
        .with_iterations(10)
        .with_policies([PolicyKind::Hybrid]);

    let cold_started = Instant::now();
    let cold_reports = engine.run(spec.clone().with_seed(1)).expect("job runs");
    let cold = cold_started.elapsed();

    // Median of several warm runs to keep the bound robust on noisy CI.
    let mut warm_samples: Vec<std::time::Duration> = (0..5)
        .map(|i| {
            let started = Instant::now();
            engine.run(spec.clone().with_seed(1 + i)).expect("job runs");
            started.elapsed()
        })
        .collect();
    warm_samples.sort();
    let warm = warm_samples[warm_samples.len() / 2];

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 5);
    // Generous bound: preparation dominates this job by orders of
    // magnitude, so 2x leaves plenty of noise headroom.
    assert!(
        cold >= warm * 2,
        "cold {cold:?} should be at least 2x the warm median {warm:?}"
    );

    // And the warm path is not just fast but exact.
    assert_eq!(
        cold_reports,
        Engine::builder()
            .threads(1)
            .build()
            .run(spec.with_seed(1))
            .expect("job runs")
    );
}
