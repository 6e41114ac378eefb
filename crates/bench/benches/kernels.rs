//! Per-kernel microbenchmarks of the per-iteration hot path.
//!
//! One Criterion group per hot kernel — the executor (cold list scheduling),
//! the reuse-aware replacement mapping, reuse detection, a full hybrid
//! activation and the on-demand timing loop — each driven through the same
//! allocation-free `PreparedSchedule` kernels the simulation engine runs
//! every iteration, over the four multimedia benchmark graphs. These are the
//! kernels the `kernel_ns` block of the schema-v6 `BENCH_results.json`
//! gates; the bench exists so a regression can be bisected to one kernel
//! with `cargo bench -p drhw-bench --bench kernels`. CI invokes it as a
//! smoke test, so any panic in a kernel fails the pipeline.
//!
//! `kernel_make_scratch` times the per-(worker, job) set-up in front of
//! those kernels: binding a fresh `SimScratch` to a Pocket GL plan and to a
//! multimedia plan, memo tables included.

use criterion::{criterion_group, criterion_main, Criterion};
use drhw_bench::experiments::workload_config;
use drhw_model::{Platform, Time};
use drhw_prefetch::{
    HybridPrefetch, InterTaskWindow, PreparedSchedule, ReplacementPolicy, Scratch, TileContents,
};
use drhw_sim::{IterationPlan, SimulationConfig};
use drhw_workloads::multimedia::{
    fully_parallel_schedule, jpeg_decoder_graph, mpeg_encoder_graph, parallel_jpeg_graph,
    pattern_recognition_graph, MpegFrame,
};
use drhw_workloads::{MultimediaWorkload, PocketGlWorkload, Workload};

fn bench_kernels(c: &mut Criterion) {
    let platform = Platform::virtex_like(16).expect("non-empty platform");
    let graphs = [
        pattern_recognition_graph(),
        jpeg_decoder_graph(),
        parallel_jpeg_graph(),
        mpeg_encoder_graph(MpegFrame::P),
    ];
    let schedules: Vec<_> = graphs
        .iter()
        .map(|g| fully_parallel_schedule(g).expect("benchmark graphs are well-formed"))
        .collect();
    let prepared: Vec<_> = graphs
        .iter()
        .zip(&schedules)
        .map(|(graph, schedule)| {
            PreparedSchedule::new(graph, schedule.clone(), &platform)
                .expect("benchmark graphs fit the platform")
        })
        .collect();
    let hybrids: Vec<_> = graphs
        .iter()
        .zip(&schedules)
        .map(|(graph, schedule)| {
            HybridPrefetch::compute(graph, schedule, &platform)
                .expect("benchmark graphs schedule cleanly")
        })
        .collect::<Vec<_>>();
    let mut scratch = Scratch::new();

    c.bench_function("kernel_executor", |b| {
        b.iter(|| {
            let mut total = Time::ZERO;
            for p in &prepared {
                p.clear_residency(&mut scratch);
                total += p.evaluate_list(&mut scratch).expect("kernel runs").penalty;
            }
            total
        })
    });

    c.bench_function("kernel_timing_loop", |b| {
        b.iter(|| {
            let mut total = Time::ZERO;
            for p in &prepared {
                total += p
                    .evaluate_on_demand_cold(&mut scratch)
                    .expect("kernel runs")
                    .penalty;
            }
            total
        })
    });

    // A warm tile state: every graph has run once, so the replacement
    // passes and reuse detection see real contents.
    let mut warm = TileContents::new(platform.tile_count());
    for p in &prepared {
        p.assign_tiles_into(&warm, ReplacementPolicy::ReuseAware, &mut scratch)
            .expect("kernel runs");
        p.apply_to_contents(&mut warm, &scratch, Time::from_millis(1));
    }
    // Every graph's configurations protected, as if all were still queued,
    // so the eviction keys read the protection table.
    for p in &prepared {
        scratch.protect(&p.required_configs().collect::<Vec<_>>());
    }
    c.bench_function("kernel_replacement", |b| {
        b.iter(|| {
            for p in &prepared {
                p.assign_tiles_into(&warm, ReplacementPolicy::ReuseAware, &mut scratch)
                    .expect("kernel runs");
            }
            scratch.slot_to_tile().len()
        })
    });

    // Reuse detection against the warm tile state.
    c.bench_function("kernel_reuse", |b| {
        b.iter(|| {
            let mut reused = 0usize;
            for p in &prepared {
                p.assign_tiles_into(&warm, ReplacementPolicy::ReuseAware, &mut scratch)
                    .expect("kernel runs");
                reused += p.mark_reusable(&warm, &mut scratch);
            }
            reused
        })
    });

    c.bench_function("kernel_hybrid", |b| {
        b.iter(|| {
            let mut total = Time::ZERO;
            for (p, hybrid) in prepared.iter().zip(&hybrids) {
                p.clear_residency(&mut scratch);
                total += p
                    .evaluate_hybrid(hybrid, InterTaskWindow::empty(), &mut scratch)
                    .expect("kernel runs")
                    .penalty;
            }
            total
        })
    });
}

fn bench_make_scratch(c: &mut Criterion) {
    let sets = [
        (
            PocketGlWorkload.task_set(),
            &PocketGlWorkload as &dyn Workload,
            10,
        ),
        (MultimediaWorkload.task_set(), &MultimediaWorkload, 8),
    ];
    let platforms: Vec<Platform> = sets
        .iter()
        .map(|&(_, _, tiles)| Platform::virtex_like(tiles).expect("non-empty platform"))
        .collect();
    let seed = SimulationConfig::default().seed;
    let plans: Vec<IterationPlan<'_>> = sets
        .iter()
        .zip(&platforms)
        .map(|((set, workload, _), platform)| {
            IterationPlan::new(set, platform, workload_config(*workload, 64, seed))
                .expect("figure plans build")
        })
        .collect();
    c.bench_function("kernel_make_scratch", |b| {
        b.iter(|| (plans[0].make_scratch(), plans[1].make_scratch()))
    });
}

criterion_group!(benches, bench_kernels, bench_make_scratch);
criterion_main!(benches);
