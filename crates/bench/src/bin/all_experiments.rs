//! Runs every experiment of the paper in one go (Table 1, the §7 headline
//! numbers, Figure 6, Figure 7 and the ablations) with a reduced iteration
//! count suitable for a quick end-to-end check, and writes the cross-policy
//! overhead numbers **plus the wall-clock timing of every experiment and a
//! sequential-versus-parallel speedup measurement** to `BENCH_results.json`
//! (override the path with the `BENCH_RESULTS_PATH` environment variable).
//!
//! All simulations go through one shared `drhw-engine` job engine (its
//! plan-cache counters land in the schema-v6 `plan_cache` block); the worker
//! count comes from `DRHW_SIM_THREADS` or the available hardware
//! parallelism, and never changes the simulated numbers — only the wall
//! clock. The speedup measurement times the E2 job on a warm single-worker
//! engine and on the shared engine's pool, and asserts the two report the
//! same numbers bit for bit.
//!
//! Usage: `cargo run -p drhw-bench --bin all_experiments --release [-- <iterations>]`

use std::time::Instant;

use drhw_bench::cli::iterations_arg;
use drhw_bench::experiments::{
    cs_scheduler_ablation, figure6_series, figure7_headline, figure7_series,
    policy_overhead_reports, replacement_ablation, table1_rows,
};
use drhw_bench::report::{
    render_ablation, render_figure, render_results_json, render_table1, RunTiming,
};
use drhw_prefetch::PolicyKind;

/// Runs one experiment, records its wall clock under `label`, and returns its
/// value.
fn timed<T>(timing: &mut RunTiming, label: &str, run: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = run();
    timing
        .experiments
        .push((label.to_string(), started.elapsed().as_secs_f64() * 1e3));
    value
}

fn main() {
    let iterations = iterations_arg(300);
    let seed = 2005;
    let engine = drhw_bench::cli::engine();
    let threads = engine.threads();
    let mut timing = RunTiming {
        threads,
        ..RunTiming::default()
    };
    println!();

    println!("=== E1: Table 1 ===");
    let rows = timed(&mut timing, "table1", table1_rows);
    println!("{}", render_table1(&rows));

    // One paired five-policy simulation serves the E2 headline numbers, the
    // machine-readable results written at the end, and the speedup
    // measurement: the same job timed on a warm single-worker engine and on
    // the shared engine's pool (warm after the first run below). The two
    // must report the same numbers bit for bit.
    let reports = policy_overhead_reports(&engine, iterations, seed, 8).expect("simulation runs");
    let sequential_engine = drhw_engine::Engine::builder().threads(1).build();
    // Untimed warm-up: prepares the plan so the timed run pays no design
    // time.
    policy_overhead_reports(&sequential_engine, iterations, seed, 8).expect("simulation runs");
    let sequential_started = Instant::now();
    let sequential =
        policy_overhead_reports(&sequential_engine, iterations, seed, 8).expect("simulation runs");
    timing.sequential_ms = Some(sequential_started.elapsed().as_secs_f64() * 1e3);
    let parallel_started = Instant::now();
    policy_overhead_reports(&engine, iterations, seed, 8).expect("simulation runs");
    timing.parallel_ms = Some(parallel_started.elapsed().as_secs_f64() * 1e3);
    assert_eq!(
        reports, sequential,
        "the worker count must not change the reports"
    );
    // Per-policy iteration throughput on warm engine jobs (the plan is
    // cached after the cross-policy job above).
    for policy in PolicyKind::ALL {
        let started = Instant::now();
        engine
            .run(
                drhw_engine::JobSpec::new("multimedia")
                    .with_tiles(8)
                    .with_iterations(iterations)
                    .with_seed(seed)
                    .with_policies([policy]),
            )
            .expect("simulation runs");
        let throughput = iterations as f64 / started.elapsed().as_secs_f64();
        timing
            .policy_iterations_per_sec
            .push((policy.to_string(), throughput));
    }
    let overhead = |wanted: PolicyKind| {
        reports
            .iter()
            .find(|r| r.policy() == wanted)
            .expect("the job covers every policy")
            .overhead_percent()
    };

    println!("=== E2: §7 headline numbers (8 tiles, {iterations} iterations) ===");
    println!(
        "  no prefetch          : {:>5.1}%   (paper: 23%)",
        overhead(PolicyKind::NoPrefetch)
    );
    println!(
        "  design-time prefetch : {:>5.1}%   (paper:  7%)",
        overhead(PolicyKind::DesignTimeOnly)
    );
    println!();

    println!("=== E3: Figure 6 ===");
    let points = timed(&mut timing, "fig6", || {
        figure6_series(&engine, iterations, seed).expect("simulation runs")
    });
    println!(
        "{}",
        render_figure(&points, "overhead (%) vs tiles, multimedia set")
    );

    println!("=== E4: Figure 7 ===");
    let (np, dt) = timed(&mut timing, "fig7_headline", || {
        figure7_headline(&engine, iterations, seed, 5).expect("simulation runs")
    });
    println!(
        "  no prefetch          : {:>5.1}%   (paper: 71%)",
        np.overhead_percent()
    );
    println!(
        "  design-time prefetch : {:>5.1}%   (paper: 25%)",
        dt.overhead_percent()
    );
    let points = timed(&mut timing, "fig7", || {
        figure7_series(&engine, iterations, seed).expect("simulation runs")
    });
    println!(
        "{}",
        render_figure(&points, "overhead (%) vs tiles, Pocket GL renderer")
    );

    println!("=== E6: pipeline stage timings ===");
    let stage_timings = drhw_bench::stages::measure_stage_timings(5);
    timing.stage_ms = stage_timings.as_pairs();
    for (stage, stage_ms) in &timing.stage_ms {
        println!("  {stage:<20} {stage_ms:>8.2} ms");
    }
    timing.kernel_ns = drhw_bench::stages::measure_kernel_timings(20).as_pairs();
    for (kernel, kernel_ns) in &timing.kernel_ns {
        println!("  {kernel:<20} {kernel_ns:>8.0} ns/call");
    }
    println!();

    println!("=== E7: ablations ===");
    let rows = timed(&mut timing, "ablations", || {
        replacement_ablation(&engine, iterations, seed, 10).expect("simulation runs")
    });
    println!(
        "{}",
        render_ablation(&rows, "replacement policy (hybrid, 10 tiles)")
    );
    println!("CS computation: exact vs heuristic");
    for (name, exact, heuristic) in cs_scheduler_ablation() {
        println!("  {name:<22} exact={exact}  heuristic={heuristic}");
    }

    println!();
    println!(
        "cross-policy wall clock: {:.0} ms sequential, {:.0} ms on {threads} thread(s){}",
        timing.sequential_ms.unwrap_or(f64::NAN),
        timing.parallel_ms.unwrap_or(f64::NAN),
        timing
            .speedup()
            .map(|s| format!(" ({s:.2}x)"))
            .unwrap_or_default()
    );

    // Every simulation above went through the shared engine; its cache
    // counters become the schema-v6 plan_cache block.
    let cache = engine.cache_stats();
    timing.plan_cache = Some(cache.into());
    println!(
        "plan cache: {} hit(s), {} miss(es), {:.2} ms amortized prepare",
        cache.hits,
        cache.misses,
        cache.amortized_prepare_ms()
    );

    let path =
        std::env::var("BENCH_RESULTS_PATH").unwrap_or_else(|_| "BENCH_results.json".to_string());
    if let Err(err) = std::fs::write(&path, render_results_json(&reports, &timing)) {
        eprintln!("error: cannot write {path}: {err}");
        std::process::exit(1);
    }
    println!("machine-readable results written to {path}");
}
