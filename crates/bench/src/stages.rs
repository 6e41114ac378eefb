//! Per-stage wall-clock measurement of the scheduling pipeline.
//!
//! The engine's hot path decomposes into five named stages, and the `stage_ms`
//! block of the schema-v3 `BENCH_results.json` records what each of them
//! costs on the multimedia benchmark set:
//!
//! | stage               | what is measured                                     |
//! |---------------------|------------------------------------------------------|
//! | `pareto`            | TCM design-time library build (Pareto-curve          |
//! |                     | construction and pruning over every scenario)        |
//! | `branch_bound`      | the exact branch & bound load-order search           |
//! | `critical_set`      | the Fig. 4 critical-subtask selection loop           |
//! | `list_scheduler`    | the run-time list-scheduling kernel (arena path)     |
//! | `replacement_reuse` | slot-to-tile replacement + reuse detection kernels   |
//!
//! The design-time stages run through the one-shot entry points (that is
//! what a design flow pays); the run-time stages run through the same
//! allocation-free [`drhw_prefetch::PreparedSchedule`] kernels the simulation
//! engine uses, so the numbers track the code that actually executes per
//! iteration. Both time their load orders on the same timing loop.

use std::hint::black_box;
use std::time::Instant;

use drhw_model::{ConfigId, InitialSchedule, Platform, SubtaskGraph};
use drhw_prefetch::{
    BranchBoundScheduler, CriticalSetAnalysis, HybridPrefetch, InterTaskWindow, PrefetchProblem,
    PrefetchScheduler, PreparedSchedule, ReplacementPolicy, Scratch, TileContents,
};
use drhw_tcm::{DesignTimeLibrary, DesignTimeScheduler};
use drhw_workloads::multimedia::{
    fully_parallel_schedule, jpeg_decoder_graph, mpeg_encoder_graph, parallel_jpeg_graph,
    pattern_recognition_graph, MpegFrame,
};
use drhw_workloads::{MultimediaWorkload, Workload};

/// Names of the five pipeline stages, in the order they are reported.
pub const STAGE_NAMES: [&str; 5] = [
    "pareto",
    "branch_bound",
    "critical_set",
    "list_scheduler",
    "replacement_reuse",
];

/// Wall clock spent in each pipeline stage, in milliseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimings {
    /// TCM design-time library build (Pareto-curve construction + pruning).
    pub pareto_ms: f64,
    /// Exact branch & bound load-order search over the benchmark graphs.
    pub branch_bound_ms: f64,
    /// The critical-subtask selection loop (Fig. 4).
    pub critical_set_ms: f64,
    /// The run-time list-scheduling kernel.
    pub list_scheduler_ms: f64,
    /// Replacement mapping plus reuse detection kernels.
    pub replacement_reuse_ms: f64,
}

impl StageTimings {
    /// The timings as `(stage, milliseconds)` pairs in [`STAGE_NAMES`] order,
    /// ready for [`RunTiming::stage_ms`](crate::report::RunTiming::stage_ms).
    pub fn as_pairs(&self) -> Vec<(String, f64)> {
        vec![
            (STAGE_NAMES[0].to_string(), self.pareto_ms),
            (STAGE_NAMES[1].to_string(), self.branch_bound_ms),
            (STAGE_NAMES[2].to_string(), self.critical_set_ms),
            (STAGE_NAMES[3].to_string(), self.list_scheduler_ms),
            (STAGE_NAMES[4].to_string(), self.replacement_reuse_ms),
        ]
    }
}

/// Names of the five per-iteration hot kernels, in the order the `kernel_ns`
/// block of the schema-v6 `BENCH_results.json` reports them.
pub const KERNEL_NAMES: [&str; 5] = ["executor", "replacement", "reuse", "hybrid", "timing_loop"];

/// Nanoseconds **per kernel call** of each per-iteration hot kernel, measured
/// over the multimedia benchmark graphs on the arena (`PreparedSchedule`)
/// path — the exact code the simulation engine runs every iteration:
///
/// | kernel        | what one call is                                        |
/// |---------------|---------------------------------------------------------|
/// | `executor`    | a cold run-time list-scheduling pass (`evaluate_list`)  |
/// | `replacement` | slot-to-tile mapping (`assign_tiles_into`, reuse-aware) |
/// |               | against evolving tile state, other graphs protected,    |
/// |               | plus the contents update (`apply_to_contents`)          |
/// | `reuse`       | reuse detection against tile state (`mark_reusable`)    |
/// | `hybrid`      | a hybrid-policy activation (`evaluate_hybrid`)          |
/// | `timing_loop` | an on-demand cold timing pass (`evaluate_on_demand_cold`)|
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTimings {
    /// The run-time list-scheduling kernel, cold start.
    pub executor_ns: f64,
    /// Reuse-aware slot-to-tile replacement mapping plus the contents
    /// update that keeps its indexes.
    pub replacement_ns: f64,
    /// Reuse detection against an evolving tile state.
    pub reuse_ns: f64,
    /// One hybrid-policy activation (init phase + residual replay).
    pub hybrid_ns: f64,
    /// The on-demand timing loop (every load serialised at use time).
    pub timing_loop_ns: f64,
}

impl KernelTimings {
    /// The timings as `(kernel, nanoseconds-per-call)` pairs in
    /// [`KERNEL_NAMES`] order, ready for
    /// [`RunTiming::kernel_ns`](crate::report::RunTiming::kernel_ns).
    pub fn as_pairs(&self) -> Vec<(String, f64)> {
        vec![
            (KERNEL_NAMES[0].to_string(), self.executor_ns),
            (KERNEL_NAMES[1].to_string(), self.replacement_ns),
            (KERNEL_NAMES[2].to_string(), self.reuse_ns),
            (KERNEL_NAMES[3].to_string(), self.hybrid_ns),
            (KERNEL_NAMES[4].to_string(), self.timing_loop_ns),
        ]
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// What every kernel and stage probe runs on: a 16-tile platform, the four
/// multimedia benchmark graphs, their fully parallel initial schedules, and
/// each graph's prepared schedule and hybrid prefetch plan.
pub struct ProbeFixture {
    /// The 16-tile platform.
    pub platform: Platform,
    /// Pattern recognition, JPEG decoder, parallel JPEG and the MPEG
    /// encoder's P frame.
    pub graphs: [SubtaskGraph; 4],
    /// Each graph's fully parallel initial schedule.
    pub schedules: Vec<InitialSchedule>,
    /// Each graph's prepared schedule — the arena kernels' input.
    pub prepared: Vec<PreparedSchedule>,
    /// Each graph's hybrid prefetch plan.
    pub hybrids: Vec<HybridPrefetch>,
}

/// Builds the [`ProbeFixture`]. Every probe calls it outside its timed
/// regions.
///
/// # Panics
///
/// Panics if the multimedia benchmark graphs fail to prepare — they are
/// static and well-formed, so that indicates a broken build.
pub fn probe_fixture() -> ProbeFixture {
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
    let prepared = graphs
        .iter()
        .zip(&schedules)
        .map(|(graph, schedule)| {
            PreparedSchedule::new(graph, schedule.clone(), &platform)
                .expect("benchmark graphs fit the platform")
        })
        .collect();
    let hybrids = graphs
        .iter()
        .zip(&schedules)
        .map(|(graph, schedule)| {
            HybridPrefetch::compute(graph, schedule, &platform)
                .expect("benchmark graphs schedule cleanly")
        })
        .collect();
    ProbeFixture {
        platform,
        graphs,
        schedules,
        prepared,
        hybrids,
    }
}

/// Measures each hot kernel over the multimedia benchmark graphs, running
/// every kernel `rounds` times per graph and reporting the **mean
/// nanoseconds per call** (total elapsed over calls), so the number is
/// directly comparable across machines regardless of `rounds`.
///
/// # Panics
///
/// Panics if the multimedia benchmark graphs fail to prepare — they are
/// static and well-formed, so that indicates a broken build.
pub fn measure_kernel_timings(rounds: usize) -> KernelTimings {
    let ProbeFixture {
        platform,
        prepared,
        hybrids,
        ..
    } = probe_fixture();
    let mut scratch = Scratch::new();
    let calls = (rounds * prepared.len()) as f64;
    let ns = |since: Instant| since.elapsed().as_secs_f64() * 1e9 / calls;
    let mut timings = KernelTimings::default();

    // Kernel: executor — cold run-time list scheduling.
    let started = Instant::now();
    for _ in 0..rounds {
        for p in &prepared {
            p.clear_residency(&mut scratch);
            black_box(p.evaluate_list(&mut scratch).expect("kernel runs"));
        }
    }
    timings.executor_ns = ns(started);

    // Kernel: timing_loop — the on-demand cold timing pass.
    let started = Instant::now();
    for _ in 0..rounds {
        for p in &prepared {
            black_box(
                p.evaluate_on_demand_cold(&mut scratch)
                    .expect("kernel runs"),
            );
        }
    }
    timings.timing_loop_ns = ns(started);

    // Kernels: replacement and reuse, against the evolving tile state the
    // activations themselves leave behind. As in the simulation, each
    // assignment runs with the configurations of the other (still queued)
    // graphs protected, so both replacement passes, the protection lookup
    // and tied last-use stamps all show. `replacement` times the assignment
    // and the contents update together: the update keeps the tile masks and
    // last-use generations the assignment reads, so timing the assignment
    // alone would leave that upkeep out. `reuse` is timed alone; the
    // protection bookkeeping stays outside both timed regions.
    let required: Vec<Vec<ConfigId>> = prepared
        .iter()
        .map(|p| p.required_configs().collect())
        .collect();
    let mut contents = TileContents::new(platform.tile_count());
    let mut replacement_total = 0.0f64;
    let mut reuse_total = 0.0f64;
    for round in 0..rounds {
        for (p, own) in prepared.iter().zip(&required) {
            scratch.clear_protection();
            for configs in &required {
                scratch.protect(configs);
            }
            scratch.unprotect(own);
            let started = Instant::now();
            p.assign_tiles_into(&contents, ReplacementPolicy::ReuseAware, &mut scratch)
                .expect("kernel runs");
            replacement_total += started.elapsed().as_secs_f64();
            let started = Instant::now();
            black_box(p.mark_reusable(&contents, &mut scratch));
            reuse_total += started.elapsed().as_secs_f64();
            let started = Instant::now();
            p.apply_to_contents(
                &mut contents,
                &scratch,
                drhw_model::Time::from_millis(round as u64 + 1),
            );
            replacement_total += started.elapsed().as_secs_f64();
        }
    }
    timings.replacement_ns = replacement_total * 1e9 / calls;
    timings.reuse_ns = reuse_total * 1e9 / calls;

    // Kernel: hybrid — one full hybrid activation from a cold tile state.
    let started = Instant::now();
    for _ in 0..rounds {
        for (p, hybrid) in prepared.iter().zip(&hybrids) {
            p.clear_residency(&mut scratch);
            black_box(
                p.evaluate_hybrid(hybrid, InterTaskWindow::empty(), &mut scratch)
                    .expect("kernel runs"),
            );
        }
    }
    timings.hybrid_ns = ns(started);

    timings
}

/// Measures every pipeline stage over the multimedia benchmark set, running
/// each stage `rounds` times (the reported number is the *total* over all
/// rounds, so more rounds mean proportionally larger but less noisy values).
///
/// # Panics
///
/// Panics if the multimedia benchmark graphs fail to schedule — they are
/// static and well-formed, so that indicates a broken build.
pub fn measure_stage_timings(rounds: usize) -> StageTimings {
    let ProbeFixture {
        platform,
        graphs,
        schedules,
        prepared,
        ..
    } = probe_fixture();
    let mut timings = StageTimings::default();

    // Stage: Pareto pruning — the TCM design-time library over the full set.
    let set = MultimediaWorkload.task_set();
    let started = Instant::now();
    for _ in 0..rounds {
        black_box(
            DesignTimeLibrary::build(&set, &platform, &DesignTimeScheduler::new())
                .expect("benchmark set builds"),
        );
    }
    timings.pareto_ms = ms(started);

    // Stage: branch & bound — the exact load-order search, worst case (all
    // loads needed).
    let started = Instant::now();
    for _ in 0..rounds {
        for (graph, schedule) in graphs.iter().zip(&schedules) {
            let problem = PrefetchProblem::new(graph, schedule, &platform)
                .expect("benchmark graphs fit the platform");
            black_box(
                BranchBoundScheduler::new()
                    .schedule(&problem)
                    .expect("benchmark graphs schedule cleanly"),
            );
        }
    }
    timings.branch_bound_ms = ms(started);

    // Stage: critical-set loop — the Fig. 4 selection (which itself invokes
    // the scheduler repeatedly; measured as the whole loop).
    let started = Instant::now();
    for _ in 0..rounds {
        for (graph, schedule) in graphs.iter().zip(&schedules) {
            black_box(
                CriticalSetAnalysis::compute(graph, schedule, &platform)
                    .expect("benchmark graphs schedule cleanly"),
            );
        }
    }
    timings.critical_set_ms = ms(started);

    // The run-time stages go through the arena kernels — the code the
    // simulation engine actually runs per iteration.
    let mut scratch = Scratch::new();

    // Stage: list scheduler — cold-start run-time scheduling of every graph.
    let started = Instant::now();
    for _ in 0..rounds {
        for p in &prepared {
            p.clear_residency(&mut scratch);
            black_box(p.evaluate_list(&mut scratch).expect("kernel runs"));
        }
    }
    timings.list_scheduler_ms = ms(started);

    // Stage: replacement + reuse — slot-to-tile mapping, reuse detection and
    // the contents update, against an evolving tile state.
    let mut contents = TileContents::new(platform.tile_count());
    let started = Instant::now();
    for round in 0..rounds {
        for p in &prepared {
            p.assign_tiles_into(&contents, ReplacementPolicy::ReuseAware, &mut scratch)
                .expect("kernel runs");
            black_box(p.mark_reusable(&contents, &mut scratch));
            p.apply_to_contents(
                &mut contents,
                &scratch,
                drhw_model::Time::from_millis(round as u64 + 1),
            );
        }
    }
    timings.replacement_reuse_ms = ms(started);

    timings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timings_cover_every_stage_with_positive_values() {
        let timings = measure_stage_timings(1);
        let pairs = timings.as_pairs();
        let names: Vec<&str> = pairs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, STAGE_NAMES);
        for (name, value) in &pairs {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{name} must be a finite non-negative wall clock, got {value}"
            );
        }
        // The stages do real work, so the total cannot be exactly zero.
        assert!(pairs.iter().map(|(_, v)| v).sum::<f64>() > 0.0);
    }

    #[test]
    fn kernel_timings_cover_every_kernel_with_positive_values() {
        let timings = measure_kernel_timings(2);
        let pairs = timings.as_pairs();
        let names: Vec<&str> = pairs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, KERNEL_NAMES);
        for (name, value) in &pairs {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{name} must be a finite non-negative per-call cost, got {value}"
            );
        }
        // The kernels do real work, so the total cannot be exactly zero.
        assert!(pairs.iter().map(|(_, v)| v).sum::<f64>() > 0.0);
    }
}
