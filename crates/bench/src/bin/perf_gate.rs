//! The CI performance gate.
//!
//! Runs the pinned perf suite (multimedia set, 8 tiles, fixed seed) several
//! times, takes the **median** per-policy iteration throughput, per-kernel
//! per-call cost, per-stage design-time wall clock and cross-policy wall
//! clock, and compares them against the committed `BENCH_baseline.json`
//! under per-metric tolerance bands. On a regression it prints a delta table
//! and exits non-zero; the same table plus the schema-v8
//! `BENCH_results.json` are written to disk so CI can upload them as
//! artifacts.
//!
//! ```text
//! perf_gate                    # gate against BENCH_baseline.json
//! perf_gate --write-baseline   # record a fresh baseline instead of gating
//! ```
//!
//! Besides raw engine throughput, the gate measures the *plan cache* at
//! three temperatures: a cold job submission pays the design-time
//! preparation; warm submissions (same workload/tiles, fresh seeds) must be
//! served from the in-memory cache; and a **disk-warm** submission — a
//! fresh engine sharing the persistent on-disk plan cache, simulating a
//! process restart — must restore the design-time search artifacts instead
//! of recomputing them (`plan_cache.disk_warm_submit_ms`). The restart pair
//! runs on a heavier generated workload (`random-8x10`) whose cold submit is
//! dominated by design-time preparation, and the gate *requires* the
//! disk-warm restart to be at least 10x faster than the cold one. A fourth
//! measurement covers plans carried over to another tile count: after a
//! cold Pocket GL submit at 5 tiles, the submits at 6–10 tiles derive their
//! plans from it, and the gate requires their median
//! (`plan_cache.sibling_submit_ms`) to be at least 5x faster than the cold
//! submit. If either cache stops hitting, a plan stops being derived, or a
//! ratio collapses, a functional check fails before any tolerance band
//! does. Of the design-time stages,
//! `stage_ms.branch_bound` and `stage_ms.critical_set` are gated so the
//! memoized/pruned search cannot silently regress toward the naive one.
//!
//! The TCP serving tier is gated too: an in-process `drhw-net` server on a
//! single-worker engine takes a pinned 32-client swarm over real sockets
//! each run, and the medians of end-to-end `serving.jobs_per_sec` and
//! `serving.p50_ms`/`serving.p99_ms` job latency are compared under the
//! `serving.` tolerance band. A swarm that loses a client or a job fails
//! functionally before any band applies.
//!
//! Environment knobs:
//!
//! * `PERF_GATE_RUNS` — repeated measurement runs (a positive integer,
//!   default 5)
//! * `PERF_GATE_ITERATIONS` — simulated iterations per run (a positive
//!   integer, default 2000)
//! * `PERF_BASELINE_PATH` — baseline location (default `BENCH_baseline.json`)
//! * `BENCH_RESULTS_PATH` — schema-v8 results output (default `BENCH_results.json`)
//! * `PERF_DELTA_PATH` — delta table output (default `PERF_delta.txt`)
//!
//! The suite's simulation throughput (`iterations_per_sec.*`,
//! `wall_clock_ms.cross_policy`) is measured through the `Engine` path users
//! call: `Engine::run` jobs on a warm single-worker engine, so every job is
//! a plan-cache hit and the numbers include submission, the pool hand-off
//! and the ordered fold. One worker on purpose: the gate measures the
//! engine, not the CI runner's core count, and one thread is the least
//! noisy configuration. The `speedup` block of the results file
//! additionally records the same cross-policy job on a warm engine with one
//! worker per available core — reported for the performance trajectory,
//! never gated (it measures the runner).
//!
//! Exit status: `0` pass (or baseline written), `1` regression, `2` missing
//! or invalid baseline, or a malformed or zero `PERF_GATE_RUNS` /
//! `PERF_GATE_ITERATIONS` (checked before any measurement), `3` output file
//! not writable.

use std::time::Instant;

use drhw_bench::cli::env_usize;
use drhw_bench::experiments::policy_overhead_reports;
use drhw_bench::gate::{
    evaluate_gate, load_baseline, render_baseline_json, Measured, DEFAULT_TOLERANCE,
};
use drhw_bench::report::{
    render_results_json, PlanCacheBlock, RunTiming, ServingBlock, TrafficBlock,
};
use drhw_bench::serving::{run_swarm, SwarmConfig};
use drhw_bench::stages::{
    measure_kernel_timings, measure_stage_timings, KERNEL_NAMES, STAGE_NAMES,
};
use drhw_prefetch::PolicyKind;
use drhw_traffic::{run_scenario, TrafficScenario};

/// The pinned traffic scenario the gate drives every run: Poisson and
/// bursty on-off arrivals against a 2-slot queue on the multimedia
/// workload, contrasting the paper's two extremes (no prefetch vs hybrid).
/// Rates are tuned so the slots run loaded but not saturated — the sojourn
/// tail actually reflects queueing, and a policy regression that stretches
/// service times shows up in p99/p999 before it shows up anywhere else.
const PINNED_TRAFFIC_SCENARIO: &str = r#"{
    "scenario": "perf-gate",
    "seed": 2005,
    "slots": 2,
    "duration_ms": 60000,
    "warmup_ms": 5000,
    "iterations": 120,
    "tiles": 8,
    "generators": [
        {"name": "steady", "kind": "poisson", "rate_per_sec": 6.0},
        {"name": "bursty", "kind": "onoff", "rate_on_per_sec": 12.0,
         "rate_off_per_sec": 0.5, "mean_on_ms": 1500, "mean_off_ms": 1500}
    ],
    "workloads": ["multimedia"],
    "policies": ["no-prefetch", "hybrid"]
}"#;

/// A positive count from the environment, `default` when unset; exits 2
/// naming the variable when the value is malformed or zero.
fn env_count(name: &str, default: usize) -> usize {
    let message = match env_usize(name, default) {
        Ok(count) if count > 0 => return count,
        Ok(_) => format!("{name}: expected a positive integer, got 0"),
        Err(message) => message,
    };
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn env_path(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall clocks are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn main() {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let runs = env_count("PERF_GATE_RUNS", 5);
    let iterations = env_count("PERF_GATE_ITERATIONS", 2000);
    let baseline_path = env_path("PERF_BASELINE_PATH", "BENCH_baseline.json");
    let results_path = env_path("BENCH_RESULTS_PATH", "BENCH_results.json");
    let delta_path = env_path("PERF_DELTA_PATH", "PERF_delta.txt");
    let seed = 2005;

    println!(
        "perf gate: {runs} runs x {iterations} iterations, single-threaded pinned suite (multimedia, 8 tiles)"
    );

    let sequential_engine = drhw_engine::Engine::builder().threads(1).build();
    // Untimed warm-up: prepares the suite's plan so every measured job is a
    // cache hit and pays no design time.
    policy_overhead_reports(&sequential_engine, iterations, seed, 8).expect("simulation runs");

    let mut per_policy_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); PolicyKind::ALL.len()];
    let mut cross_policy_ms: Vec<f64> = Vec::with_capacity(runs);
    let mut reports = Vec::new();
    for run in 0..runs {
        for (which, &policy) in PolicyKind::ALL.iter().enumerate() {
            let spec = drhw_engine::JobSpec::new("multimedia")
                .with_tiles(8)
                .with_iterations(iterations)
                .with_seed(seed)
                .with_policies([policy]);
            let started = Instant::now();
            sequential_engine.run(spec).expect("simulation runs");
            per_policy_ms[which].push(started.elapsed().as_secs_f64() * 1e3);
        }
        let started = Instant::now();
        let run_reports = policy_overhead_reports(&sequential_engine, iterations, seed, 8)
            .expect("simulation runs");
        cross_policy_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if run == 0 {
            reports = run_reports;
        }
    }

    let mut timing = RunTiming {
        threads: 1,
        ..RunTiming::default()
    };
    let mut measured = Vec::new();

    // Per-stage design-time wall clock: one measurement pass per gate run,
    // median per stage. The two search stages the memoized branch & bound
    // accelerates are gated; the others are reported for the trajectory.
    let mut stage_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); STAGE_NAMES.len()];
    for _ in 0..runs {
        for (which, (_, ms)) in measure_stage_timings(5).as_pairs().into_iter().enumerate() {
            stage_samples[which].push(ms);
        }
    }
    for (which, name) in STAGE_NAMES.iter().enumerate() {
        let ms = median(&mut stage_samples[which]);
        timing.stage_ms.push((name.to_string(), ms));
        if matches!(*name, "branch_bound" | "critical_set") {
            measured.push(Measured::lower_is_better(format!("stage_ms.{name}"), ms));
        }
        println!("  stage {name:<18} {ms:>10.2} ms (median of {runs})");
    }

    // Per-kernel per-call cost: one measurement pass per gate run, median per
    // kernel across the runs. Gated like a wall clock — more nanoseconds per
    // call is a regression.
    let mut kernel_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); KERNEL_NAMES.len()];
    for _ in 0..runs {
        for (which, (_, ns)) in measure_kernel_timings(50)
            .as_pairs()
            .into_iter()
            .enumerate()
        {
            kernel_samples[which].push(ns);
        }
    }
    for (which, name) in KERNEL_NAMES.iter().enumerate() {
        let ns = median(&mut kernel_samples[which]);
        timing.kernel_ns.push((name.to_string(), ns));
        measured.push(Measured::lower_is_better(format!("kernel_ns.{name}"), ns));
        println!("  kernel {name:<14} {ns:>10.0} ns/call (median of {runs})");
    }

    // Plan-cache efficacy through the job engine: the cold submission pays
    // plan preparation, the warm ones (fresh seeds — seeds are not part of
    // the cache key) must be served from the cache.
    let engine = drhw_engine::Engine::builder()
        .threads(1)
        .cache_capacity(4)
        .build();
    let cache_iterations = 100;
    let cache_spec = drhw_engine::JobSpec::new("multimedia")
        .with_tiles(8)
        .with_iterations(cache_iterations);
    let cold_started = Instant::now();
    engine
        .run(cache_spec.clone().with_seed(seed))
        .expect("simulation runs");
    let cold_ms = cold_started.elapsed().as_secs_f64() * 1e3;
    let mut warm_samples = Vec::with_capacity(runs);
    for run in 0..runs {
        let started = Instant::now();
        engine
            .run(cache_spec.clone().with_seed(seed + 1 + run as u64))
            .expect("simulation runs");
        warm_samples.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let warm_ms = median(&mut warm_samples);
    let cache = engine.cache_stats();
    if cache.misses != 1 || cache.hits != runs as u64 {
        eprintln!(
            "perf gate FAILED: plan cache broken — expected 1 miss and {runs} hits, got {} miss(es) and {} hit(s)",
            cache.misses, cache.hits
        );
        std::process::exit(1);
    }
    measured.push(Measured::lower_is_better(
        "plan_cache.cold_submit_ms",
        cold_ms,
    ));
    measured.push(Measured::lower_is_better(
        "plan_cache.warm_submit_ms",
        warm_ms,
    ));
    measured.push(Measured::lower_is_better(
        "plan_cache.amortized_prepare_ms",
        cache.amortized_prepare_ms(),
    ));
    println!(
        "  plan cache: cold submit {cold_ms:.2} ms, warm submit {warm_ms:.2} ms (median of {runs}), \
         amortized prepare {:.2} ms",
        cache.amortized_prepare_ms()
    );

    // Disk-warm restart: seed a persistent on-disk plan cache, then measure a
    // *fresh* engine per run (simulating a process restart) that must restore
    // the design-time search artifacts from disk instead of recomputing them.
    // The restart spec is deliberately heavier than the pinned multimedia
    // suite (8 generated tasks of 10 subtasks, few iterations): design-time
    // preparation dominates its cold submit, so the cold/disk-warm ratio
    // actually measures what the on-disk cache saves across restarts.
    let restart_spec = drhw_engine::JobSpec::new("random-8x10")
        .with_tiles(8)
        .with_iterations(50);
    let mut cold_restart_samples = Vec::with_capacity(runs);
    for run in 0..runs {
        let cold_engine = drhw_engine::Engine::builder().threads(1).build();
        let started = Instant::now();
        cold_engine
            .run(restart_spec.clone().with_seed(seed + 200 + run as u64))
            .expect("simulation runs");
        cold_restart_samples.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let cold_restart_ms = median(&mut cold_restart_samples);
    let disk_dir =
        std::env::temp_dir().join(format!("drhw-perf-gate-plan-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    drhw_engine::Engine::builder()
        .threads(1)
        .cache_capacity(4)
        .cache_dir(&disk_dir)
        .build()
        .run(restart_spec.clone().with_seed(seed))
        .expect("simulation runs");
    let mut disk_warm_samples = Vec::with_capacity(runs);
    let mut disk_hits = 0u64;
    for run in 0..runs {
        let fresh = drhw_engine::Engine::builder()
            .threads(1)
            .cache_capacity(4)
            .cache_dir(&disk_dir)
            .build();
        let started = Instant::now();
        fresh
            .run(restart_spec.clone().with_seed(seed + 100 + run as u64))
            .expect("simulation runs");
        disk_warm_samples.push(started.elapsed().as_secs_f64() * 1e3);
        disk_hits += fresh.cache_stats().disk_hits;
    }
    let _ = std::fs::remove_dir_all(&disk_dir);
    if disk_hits != runs as u64 {
        eprintln!(
            "perf gate FAILED: disk plan cache broken — expected {runs} disk restore(s), got {disk_hits}"
        );
        std::process::exit(1);
    }
    let disk_warm_ms = median(&mut disk_warm_samples);
    if disk_warm_ms * 10.0 > cold_restart_ms {
        eprintln!(
            "perf gate FAILED: disk-warm restart submit ({disk_warm_ms:.2} ms) must be at least \
             10x faster than a cold restart ({cold_restart_ms:.2} ms)"
        );
        std::process::exit(1);
    }
    measured.push(Measured::lower_is_better(
        "plan_cache.cold_restart_submit_ms",
        cold_restart_ms,
    ));
    measured.push(Measured::lower_is_better(
        "plan_cache.disk_warm_submit_ms",
        disk_warm_ms,
    ));
    println!(
        "  plan cache: cold restart {cold_restart_ms:.2} ms vs disk-warm restart {disk_warm_ms:.2} ms \
         ({:.1}x, median of {runs}, {disk_hits} restore(s) from disk)",
        cold_restart_ms / disk_warm_ms
    );
    let mut cache_block: PlanCacheBlock = cache.into();
    cache_block.disk_hits = disk_hits;
    timing.plan_cache = Some(cache_block);

    // Sibling derivation: every Pocket GL graph fits 5 tiles, so after one
    // cold submit at 5 tiles the engine carries that plan over to each
    // other tile count of the Fig. 7 sweep instead of building it again.
    // The gate requires the median derived submit (submission only; each
    // job is waited for outside the clock) to be at least 5x faster than
    // the cold one.
    let sibling_engine = drhw_engine::Engine::builder().threads(1).build();
    let timed_submit = |tiles: usize| {
        let spec = drhw_engine::JobSpec::new("pocket_gl")
            .with_tiles(tiles)
            .with_iterations(10)
            .with_seed(seed);
        let started = Instant::now();
        let handle = sibling_engine.submit(spec).expect("job submits");
        let submit_ms = started.elapsed().as_secs_f64() * 1e3;
        handle.wait().expect("simulation runs");
        submit_ms
    };
    let cold_sibling_ms = timed_submit(5);
    let mut sibling_samples: Vec<f64> = (6..=10).map(timed_submit).collect();
    let derived = sibling_engine.cache_stats().derived;
    if derived != sibling_samples.len() as u64 {
        eprintln!(
            "perf gate FAILED: sibling plans not derived — expected {} derived plan(s), got {derived}",
            sibling_samples.len()
        );
        std::process::exit(1);
    }
    let sibling_ms = median(&mut sibling_samples);
    if sibling_ms * 5.0 > cold_sibling_ms {
        eprintln!(
            "perf gate FAILED: a derived submit ({sibling_ms:.3} ms) must be at least 5x faster \
             than the cold submit it derives from ({cold_sibling_ms:.3} ms)"
        );
        std::process::exit(1);
    }
    measured.push(Measured::lower_is_better(
        "plan_cache.sibling_submit_ms",
        sibling_ms,
    ));
    println!(
        "  plan cache: cold submit {cold_sibling_ms:.3} ms vs derived submit {sibling_ms:.3} ms \
         ({:.1}x, median of {derived} tile counts)",
        cold_sibling_ms / sibling_ms
    );

    // The serving tier under a pinned small swarm: an in-process drhw-net
    // server on a single-worker engine, hit by 32 concurrent clients over
    // real sockets. One swarm per gate run; medians gate end-to-end job
    // throughput and p50/p99 job latency. A swarm that loses a client or a
    // job is a functional failure, not a tolerance question. (The full-scale
    // swarm — 1000+ clients — lives in the `loadgen` binary; the gate keeps
    // the pinned scale small so its numbers are about the serving path, not
    // the runner's scheduler.)
    let serving_clients = 32;
    let serving_jobs_per_client = 4;
    let serving_engine = std::sync::Arc::new(drhw_engine::Engine::builder().threads(1).build());
    let swarm_template = SwarmConfig {
        clients: serving_clients,
        jobs_per_client: serving_jobs_per_client,
        ..SwarmConfig::default()
    };
    let warm_request =
        drhw_engine::Request::parse(&swarm_template.spec_json).expect("pinned swarm spec parses");
    serving_engine
        .run(warm_request.spec)
        .expect("swarm spec runs");
    let server = drhw_net::Server::start(
        std::sync::Arc::clone(&serving_engine),
        drhw_net::ServerConfig::default(),
    )
    .expect("serving gate binds a local port");
    let swarm_config = SwarmConfig {
        addr: server.local_addr().to_string(),
        ..swarm_template
    };
    let mut swarm_jobs_per_sec = Vec::with_capacity(runs);
    let mut swarm_p50 = Vec::with_capacity(runs);
    let mut swarm_p99 = Vec::with_capacity(runs);
    let mut swarm_p999 = Vec::with_capacity(runs);
    let mut swarm_utilization = Vec::with_capacity(runs);
    let expected_jobs = (serving_clients * serving_jobs_per_client) as u64;
    for _ in 0..runs {
        let outcome = run_swarm(&swarm_config).expect("swarm runs");
        if outcome.jobs_completed != expected_jobs || outcome.clients_failed > 0 {
            eprintln!(
                "perf gate FAILED: serving swarm lost work — expected {expected_jobs} completed \
                 job(s) from {serving_clients} client(s), got {} (with {} failed client(s), {} \
                 errored job(s))",
                outcome.jobs_completed, outcome.clients_failed, outcome.jobs_errored
            );
            std::process::exit(1);
        }
        swarm_jobs_per_sec.push(outcome.jobs_per_sec());
        swarm_p50.push(outcome.p50_ms());
        swarm_p99.push(outcome.p99_ms());
        swarm_p999.push(outcome.p999_ms());
        swarm_utilization.push(outcome.utilization());
    }
    server.handle().shutdown();
    server.join();
    let serving_jobs_per_sec = median(&mut swarm_jobs_per_sec);
    let serving_p50_ms = median(&mut swarm_p50);
    let serving_p99_ms = median(&mut swarm_p99);
    let serving_p999_ms = median(&mut swarm_p999);
    let serving_utilization = median(&mut swarm_utilization);
    timing.serving = Some(ServingBlock {
        clients: serving_clients as u64,
        jobs: expected_jobs,
        jobs_per_sec: serving_jobs_per_sec,
        p50_ms: serving_p50_ms,
        p99_ms: serving_p99_ms,
        p999_ms: serving_p999_ms,
        utilization: serving_utilization,
    });
    measured.push(Measured::higher_is_better(
        "serving.jobs_per_sec",
        serving_jobs_per_sec,
    ));
    measured.push(Measured::lower_is_better("serving.p50_ms", serving_p50_ms));
    measured.push(Measured::lower_is_better("serving.p99_ms", serving_p99_ms));
    measured.push(Measured::lower_is_better(
        "serving.p999_ms",
        serving_p999_ms,
    ));
    println!(
        "  serving: {serving_clients} clients x {serving_jobs_per_client} jobs — \
         {serving_jobs_per_sec:.0} jobs/s, p50 {serving_p50_ms:.2} ms, p99 {serving_p99_ms:.2} ms, \
         p999 {serving_p999_ms:.2} ms, {:.0} % client-slot utilization (medians of {runs})",
        serving_utilization * 100.0
    );

    // The open-loop traffic scenario: the pinned spec below exercises the
    // whole drhw-traffic pipeline — service-pool measurement through the
    // engine, Poisson and bursty on-off arrivals, the DES drain — on the
    // virtual clock. Its latency/utilization metrics are fully
    // deterministic (gated at the default band; any drift is a real
    // behavior change, not noise); only `traffic.events_per_sec`, the
    // wall-clock rate the driver streams events at, is runner-dependent.
    // Two identical runs must produce byte-identical event streams — a
    // functional check, not a tolerance question.
    let traffic_scenario = TrafficScenario::from_json_text(PINNED_TRAFFIC_SCENARIO)
        .expect("pinned traffic scenario parses");
    let traffic_engine = drhw_engine::Engine::builder().threads(1).build();
    let mut traffic_event_rates = Vec::with_capacity(runs);
    let mut first_stream: Option<Vec<u8>> = None;
    let mut traffic_outcome = None;
    for _ in 0..runs {
        let mut events = Vec::new();
        let started = Instant::now();
        let outcome = run_scenario(
            &traffic_engine,
            &traffic_scenario,
            std::path::Path::new("."),
            &mut events,
        )
        .expect("pinned traffic scenario runs");
        let elapsed_s = started.elapsed().as_secs_f64();
        let event_lines = events.iter().filter(|&&b| b == b'\n').count();
        traffic_event_rates.push(event_lines as f64 / elapsed_s);
        match &first_stream {
            None => first_stream = Some(events),
            Some(first) => {
                if *first != events {
                    eprintln!(
                        "perf gate FAILED: traffic scenario is not deterministic — two runs \
                         produced different event streams"
                    );
                    std::process::exit(1);
                }
            }
        }
        traffic_outcome = Some(outcome);
    }
    let traffic_outcome = traffic_outcome.expect("at least one gate run");
    let mut traffic_sojourn = drhw_traffic::Histogram::new();
    let mut traffic_jobs = 0u64;
    let mut traffic_offered = 0.0;
    let mut traffic_achieved = 0.0;
    let mut traffic_utilization = 0.0;
    for cell in &traffic_outcome.cells {
        if cell.measured == 0 || cell.completed_in_window == 0 {
            eprintln!(
                "perf gate FAILED: traffic cell {} ({}/{}/{}) measured no work — the pinned \
                 scenario must load every cell",
                cell.cell, cell.generator, cell.workload, cell.policy
            );
            std::process::exit(1);
        }
        traffic_sojourn.merge(&cell.sojourn);
        traffic_jobs += cell.measured;
        traffic_offered += cell.offered_per_sec();
        traffic_achieved += cell.achieved_per_sec();
        traffic_utilization += cell.utilization_mean();
    }
    traffic_utilization /= traffic_outcome.cells.len() as f64;
    let traffic_events_per_sec = median(&mut traffic_event_rates);
    timing.traffic = Some(TrafficBlock {
        cells: traffic_outcome.cells.len() as u64,
        jobs: traffic_jobs,
        offered_per_sec: traffic_offered,
        achieved_per_sec: traffic_achieved,
        p50_ms: traffic_sojourn.p50_ms(),
        p99_ms: traffic_sojourn.p99_ms(),
        p999_ms: traffic_sojourn.p999_ms(),
        utilization: traffic_utilization,
        events_per_sec: traffic_events_per_sec,
    });
    measured.push(Measured::lower_is_better(
        "traffic.p50_ms",
        traffic_sojourn.p50_ms(),
    ));
    measured.push(Measured::lower_is_better(
        "traffic.p99_ms",
        traffic_sojourn.p99_ms(),
    ));
    measured.push(Measured::lower_is_better(
        "traffic.p999_ms",
        traffic_sojourn.p999_ms(),
    ));
    measured.push(Measured::higher_is_better(
        "traffic.utilization",
        traffic_utilization,
    ));
    measured.push(Measured::higher_is_better(
        "traffic.events_per_sec",
        traffic_events_per_sec,
    ));
    println!(
        "  traffic: {} cells, {} measured job(s) — sojourn p50 {:.1} ms, p99 {:.1} ms, p999 \
         {:.1} ms, {:.0} % slot utilization, {:.0} events/s wall clock (median of {runs})",
        traffic_outcome.cells.len(),
        traffic_jobs,
        traffic_sojourn.p50_ms(),
        traffic_sojourn.p99_ms(),
        traffic_sojourn.p999_ms(),
        traffic_utilization * 100.0,
        traffic_events_per_sec,
    );
    for (which, &policy) in PolicyKind::ALL.iter().enumerate() {
        let ms = median(&mut per_policy_ms[which]);
        let throughput = iterations as f64 / (ms / 1e3);
        timing
            .policy_iterations_per_sec
            .push((policy.to_string(), throughput));
        measured.push(Measured::higher_is_better(
            format!("iterations_per_sec.{policy}"),
            throughput,
        ));
        println!("  {policy:<22} {throughput:>12.0} iterations/s (median of {runs})");
    }
    let cross_ms = median(&mut cross_policy_ms);
    let all_throughput = (iterations * PolicyKind::ALL.len()) as f64 / (cross_ms / 1e3);
    timing
        .policy_iterations_per_sec
        .push(("all-policies".to_string(), all_throughput));
    measured.push(Measured::higher_is_better(
        "iterations_per_sec.all-policies",
        all_throughput,
    ));
    measured.push(Measured::lower_is_better(
        "wall_clock_ms.cross_policy",
        cross_ms,
    ));
    timing
        .experiments
        .push(("perf_gate_cross_policy".to_string(), cross_ms));
    println!("  cross-policy job: {cross_ms:.1} ms ({all_throughput:.0} policy-iterations/s)");

    // The speedup block: the same cross-policy job on a warm engine with one
    // worker per available core versus the single-worker median above.
    // Reported (the results file should never carry a permanently-null
    // block), not gated — the ratio measures the runner's core count as much
    // as the engine.
    let parallel_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let parallel_engine = drhw_engine::Engine::builder()
        .threads(parallel_threads)
        .build();
    policy_overhead_reports(&parallel_engine, iterations, seed, 8).expect("simulation runs");
    let mut parallel_samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let started = Instant::now();
        policy_overhead_reports(&parallel_engine, iterations, seed, 8).expect("simulation runs");
        parallel_samples.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let parallel_ms = median(&mut parallel_samples);
    timing.sequential_ms = Some(cross_ms);
    timing.parallel_ms = Some(parallel_ms);
    println!(
        "  speedup: sequential {cross_ms:.1} ms vs parallel {parallel_ms:.1} ms on \
         {parallel_threads} thread(s) ({:.2}x)",
        timing.speedup().unwrap_or(f64::NAN)
    );

    if let Err(err) = std::fs::write(&results_path, render_results_json(&reports, &timing)) {
        eprintln!("error: cannot write {results_path}: {err}");
        std::process::exit(3);
    }
    println!("schema-v8 results written to {results_path}");

    if write_baseline {
        let text = render_baseline_json(&measured, DEFAULT_TOLERANCE);
        if let Err(err) = std::fs::write(&baseline_path, text) {
            eprintln!("error: cannot write {baseline_path}: {err}");
            std::process::exit(3);
        }
        println!("baseline written to {baseline_path} — commit it to pin the gate");
        return;
    }

    let baseline = match load_baseline(&baseline_path) {
        Ok(baseline) => baseline,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    };
    let report = evaluate_gate(&measured, &baseline);
    let table = report.render_table();
    println!("\n{table}");
    if let Err(err) = std::fs::write(&delta_path, &table) {
        eprintln!("error: cannot write {delta_path}: {err}");
        std::process::exit(3);
    }
    println!("delta table written to {delta_path}");
    if report.regressed() {
        eprintln!("perf gate FAILED: at least one metric regressed beyond its tolerance band");
        std::process::exit(1);
    }
    println!("perf gate passed");
}
