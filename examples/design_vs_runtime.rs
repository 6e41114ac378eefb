//! Design-time versus run-time: where the hybrid heuristic spends its effort.
//!
//! For every multimedia benchmark this example runs the design-time phase
//! (critical-subtask selection with branch & bound), reports the critical
//! fraction and the number of `compute_penalty` iterations, and then measures
//! how long the run-time phase of the hybrid heuristic takes compared to
//! re-running the full list-scheduling heuristic — the scalability argument of
//! §4 in miniature.
//!
//! Wall-clock timings go to stderr, so stdout is the same on every run.
//!
//! Run with: `cargo run -p drhw-examples --bin design_vs_runtime`

use std::collections::BTreeSet;
use std::error::Error;
use std::time::Instant;

use drhw_model::Platform;
use drhw_prefetch::{
    HybridPrefetch, InterTaskWindow, ListScheduler, PrefetchProblem, PrefetchScheduler,
};
use drhw_workloads::multimedia::{
    fully_parallel_schedule, jpeg_decoder_graph, mpeg_encoder_graph, parallel_jpeg_graph,
    pattern_recognition_graph, MpegFrame,
};
use drhw_workloads::random::{seeded_random_graph, RandomGraphConfig};

fn main() -> Result<(), Box<dyn Error>> {
    let platform = Platform::virtex_like(16)?;

    println!("Design-time phase on the multimedia benchmarks:");
    println!("graph                  |CS|  critical %  iterations  stored penalty");
    for graph in [
        pattern_recognition_graph(),
        jpeg_decoder_graph(),
        parallel_jpeg_graph(),
        mpeg_encoder_graph(MpegFrame::B),
    ] {
        let schedule = fully_parallel_schedule(&graph)?;
        let hybrid = HybridPrefetch::compute(&graph, &schedule, &platform)?;
        let cs = hybrid.critical();
        println!(
            "{:<22} {:>4}  {:>9.0}%  {:>10}  {}",
            graph.name(),
            cs.len(),
            cs.critical_fraction() * 100.0,
            cs.iterations(),
            cs.stored_penalty()
        );
    }
    println!();

    // Scalability: run-time list scheduling versus the hybrid run-time phase
    // on increasingly large random graphs.
    eprintln!("Run-time cost, list scheduler vs hybrid run-time phase (wall clock):");
    eprintln!("subtasks  list scheduler  hybrid run-time phase");
    let big_platform = Platform::virtex_like(512)?;
    for &n in &[16usize, 64, 256] {
        let graph = seeded_random_graph(&RandomGraphConfig::with_subtasks(n), 11);
        let schedule = drhw_model::InitialSchedule::fully_parallel(&graph)?;
        // Design time happens offline; its cost is not part of the comparison.
        let hybrid =
            HybridPrefetch::compute_with(&graph, &schedule, &big_platform, &ListScheduler::new())?;

        let repetitions = 50u32;
        let start = Instant::now();
        for _ in 0..repetitions {
            let problem = PrefetchProblem::new(&graph, &schedule, &big_platform)?;
            ListScheduler::new().schedule(&problem)?;
        }
        let list_time = start.elapsed() / repetitions;

        let resident: BTreeSet<_> = graph.ids().take(n / 4).collect();
        let start = Instant::now();
        for _ in 0..repetitions {
            hybrid.runtime_decision(
                &graph,
                &schedule,
                &big_platform,
                &resident,
                InterTaskWindow::empty(),
            )?;
        }
        let hybrid_time = start.elapsed() / repetitions;

        eprintln!("{n:>8}  {list_time:>14.2?}  {hybrid_time:>21.2?}");
    }
    eprintln!();
    println!("The list scheduler's cost grows with the graph size, while the hybrid");
    println!("run-time phase only performs set membership tests — the reason the paper");
    println!("moves every computation-intensive part to design time.");

    // The same amortisation one layer up: the engine's plan cache moves the
    // whole design-time phase out of repeat jobs. Submit the same workload
    // twice (fresh seed, so the simulated work is new) and compare.
    let engine = drhw_engine::Engine::builder().build();
    let spec = drhw_engine::JobSpec::new("multimedia")
        .with_tiles(8)
        .with_iterations(50);
    let start = Instant::now();
    engine.run(spec.clone().with_seed(1))?;
    let cold = start.elapsed();
    let start = Instant::now();
    engine.run(spec.with_seed(2))?;
    let warm = start.elapsed();
    eprintln!();
    eprintln!("Engine plan cache on repeat jobs (multimedia, 8 tiles, 50 iterations):");
    eprintln!("  cold submission (prepares the plan): {cold:>10.2?}");
    eprintln!("  warm submission (cache hit)        : {warm:>10.2?}");
    Ok(())
}
