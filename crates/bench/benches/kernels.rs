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
//! multimedia plan. Each scratch hands its memo set back to its plan's pool
//! when it drops, so after the warm-up call this is the warm set-up, which
//! builds no memo table.
//!
//! `kernel_chunk_pass` times the pass that strings them together: one
//! 32-iteration chunk of the three figure policies, scored together on
//! multimedia@8 and on Pocket GL@10, each through its one warm scratch.
//!
//! `kernel_warm_plan_job` times a pool worker's unit of work on a cached
//! plan: a fresh `make_scratch` plus every chunk of a figure job (the three
//! figure policies over 1000 iterations) on multimedia@8 and on Pocket
//! GL@10, whose memo pools are warm from an earlier job.

use criterion::{criterion_group, criterion_main, Criterion};
use drhw_bench::experiments::workload_config;
use drhw_bench::stages::{probe_fixture, ProbeFixture};
use drhw_model::{Platform, Time};
use drhw_prefetch::{InterTaskWindow, PolicyKind, ReplacementPolicy, Scratch, TileContents};
use drhw_sim::{IterationPlan, SimulationConfig};
use drhw_workloads::{MultimediaWorkload, PocketGlWorkload, Workload};

fn bench_kernels(c: &mut Criterion) {
    let ProbeFixture {
        platform,
        prepared,
        hybrids,
        ..
    } = probe_fixture();
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
    let plans: Vec<IterationPlan> = sets
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

fn bench_chunk_pass(c: &mut Criterion) {
    let seed = SimulationConfig::default().seed;
    let plans: Vec<IterationPlan> = [
        (&MultimediaWorkload as &dyn Workload, 8),
        (&PocketGlWorkload, 10),
    ]
    .into_iter()
    .map(|(workload, tiles)| {
        let platform = Platform::virtex_like(tiles).expect("non-empty platform");
        let config = workload_config(workload, 32, seed).with_chunk_size(32);
        IterationPlan::new(&workload.task_set(), &platform, config).expect("figure plans build")
    })
    .collect();
    let mut scratches: Vec<_> = plans.iter().map(IterationPlan::make_scratch).collect();
    c.bench_function("kernel_chunk_pass", |b| {
        b.iter(|| {
            let mut activations = 0;
            for (plan, scratch) in plans.iter().zip(&mut scratches) {
                for stats in
                    plan.evaluate_chunk_policies_with(&PolicyKind::FIGURE_POLICIES, 0, scratch)
                {
                    activations += stats.expect("chunk evaluates").activations();
                }
            }
            activations
        })
    });
}

fn bench_warm_plan_job(c: &mut Criterion) {
    let seed = SimulationConfig::default().seed;
    let plans: Vec<IterationPlan> = [
        (&MultimediaWorkload as &dyn Workload, 8),
        (&PocketGlWorkload, 10),
    ]
    .into_iter()
    .map(|(workload, tiles)| {
        let platform = Platform::virtex_like(tiles).expect("non-empty platform");
        let config = workload_config(workload, 1000, seed);
        IterationPlan::new(&workload.task_set(), &platform, config).expect("figure plans build")
    })
    .collect();
    let job = |plan: &IterationPlan| {
        let mut scratch = plan.make_scratch();
        let mut activations = 0;
        for chunk in 0..plan.chunk_count() {
            for stats in
                plan.evaluate_chunk_policies_with(&PolicyKind::FIGURE_POLICIES, chunk, &mut scratch)
            {
                activations += stats.expect("chunk evaluates").activations();
            }
        }
        activations
    };
    // An earlier job on each plan leaves its memo set in the plan's pool.
    for plan in &plans {
        job(plan);
    }
    c.bench_function("kernel_warm_plan_job", |b| {
        b.iter(|| plans.iter().map(job).sum::<usize>())
    });
}

criterion_group!(
    benches,
    bench_kernels,
    bench_make_scratch,
    bench_chunk_pass,
    bench_warm_plan_job
);
criterion_main!(benches);
