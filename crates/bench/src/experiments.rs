//! The experiments of §7, exposed as reusable functions.
//!
//! Each function regenerates the data behind one artifact of the paper:
//!
//! * [`table1_rows`] — Table 1 (per-task overhead without prefetch and with an
//!   optimal prefetch schedule);
//! * [`headline_numbers`] — the 23 % / 7 % aggregate numbers of §7;
//! * [`figure6_series`] — Figure 6 (overhead versus tile count for the
//!   run-time, run-time + inter-task and hybrid policies on the multimedia
//!   task set);
//! * [`figure7_series`] — Figure 7 (the same sweep on the Pocket GL 3-D
//!   rendering application);
//! * [`replacement_ablation`] / [`cs_scheduler_ablation`] — ablations of the
//!   design choices called out in DESIGN.md.

use drhw_engine::{Engine, EngineError, JobSpec};
use drhw_model::{Platform, SubtaskGraph, Time};
use drhw_prefetch::{
    BranchBoundScheduler, CriticalSetAnalysis, ListScheduler, OnDemandScheduler, PolicyKind,
    PrefetchProblem, PrefetchScheduler, ReplacementPolicy,
};
use drhw_sim::{ScenarioPolicy, SimulationConfig, SimulationReport};
use drhw_workloads::multimedia::{
    fully_parallel_schedule, jpeg_decoder_graph, mpeg_encoder_graph, parallel_jpeg_graph,
    pattern_recognition_graph, MpegFrame,
};
use drhw_workloads::Workload;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Task name as it appears in the paper.
    pub name: &'static str,
    /// Number of subtasks.
    pub subtasks: usize,
    /// Ideal execution time (no reconfiguration overhead).
    pub ideal: Time,
    /// Overhead (as a percentage of the ideal time) when every subtask must be
    /// loaded and no prefetch is applied.
    pub overhead_percent: f64,
    /// Overhead after applying an optimal prefetch schedule.
    pub prefetch_percent: f64,
    /// The figures the paper reports, for side-by-side comparison.
    pub paper_overhead_percent: f64,
    /// The prefetch figure the paper reports.
    pub paper_prefetch_percent: f64,
}

fn characterise(graph: &SubtaskGraph, platform: &Platform) -> (Time, f64, f64) {
    let schedule = fully_parallel_schedule(graph).expect("benchmark graphs are well-formed");
    let problem = PrefetchProblem::new(graph, &schedule, platform)
        .expect("benchmark graphs fit the characterisation platform");
    let ideal = problem.ideal_makespan();
    let on_demand = OnDemandScheduler::new()
        .schedule(&problem)
        .expect("benchmark graphs schedule cleanly");
    let optimal = BranchBoundScheduler::new()
        .schedule(&problem)
        .expect("benchmark graphs schedule cleanly");
    (
        ideal,
        on_demand.overhead_ratio() * 100.0,
        optimal.overhead_ratio() * 100.0,
    )
}

/// Regenerates the rows of Table 1.
pub fn table1_rows() -> Vec<Table1Row> {
    let platform = Platform::virtex_like(16).expect("non-empty platform");
    let mut rows = Vec::new();

    let pattern = pattern_recognition_graph();
    let (ideal, overhead, prefetch) = characterise(&pattern, &platform);
    rows.push(Table1Row {
        name: "Pattern Rec.",
        subtasks: pattern.len(),
        ideal,
        overhead_percent: overhead,
        prefetch_percent: prefetch,
        paper_overhead_percent: 17.0,
        paper_prefetch_percent: 4.0,
    });

    let jpeg = jpeg_decoder_graph();
    let (ideal, overhead, prefetch) = characterise(&jpeg, &platform);
    rows.push(Table1Row {
        name: "JPEG dec.",
        subtasks: jpeg.len(),
        ideal,
        overhead_percent: overhead,
        prefetch_percent: prefetch,
        paper_overhead_percent: 20.0,
        paper_prefetch_percent: 5.0,
    });

    let pjpeg = parallel_jpeg_graph();
    let (ideal, overhead, prefetch) = characterise(&pjpeg, &platform);
    rows.push(Table1Row {
        name: "Parallel JPEG",
        subtasks: pjpeg.len(),
        ideal,
        overhead_percent: overhead,
        prefetch_percent: prefetch,
        paper_overhead_percent: 35.0,
        paper_prefetch_percent: 7.0,
    });

    // MPEG: the paper reports the average over the B, P and I scenarios.
    let mut ideal_sum = 0u64;
    let mut overhead_sum = 0.0;
    let mut prefetch_sum = 0.0;
    for frame in MpegFrame::ALL {
        let graph = mpeg_encoder_graph(frame);
        let (ideal, overhead, prefetch) = characterise(&graph, &platform);
        ideal_sum += ideal.as_micros();
        overhead_sum += overhead;
        prefetch_sum += prefetch;
    }
    rows.push(Table1Row {
        name: "MPEG encoder",
        subtasks: mpeg_encoder_graph(MpegFrame::P).len(),
        ideal: Time::from_micros(ideal_sum / 3),
        overhead_percent: overhead_sum / 3.0,
        prefetch_percent: prefetch_sum / 3.0,
        paper_overhead_percent: 56.0,
        paper_prefetch_percent: 18.0,
    });

    rows
}

/// One point of a Figure 6 / Figure 7 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FigurePoint {
    /// Number of DRHW tiles of the simulated platform.
    pub tiles: usize,
    /// The simulated policy.
    pub policy: PolicyKind,
    /// Aggregate reconfiguration overhead in percent.
    pub overhead_percent: f64,
    /// Percentage of DRHW subtask executions that reused a resident
    /// configuration.
    pub reuse_percent: f64,
}

/// The simulation configuration a workload's experiments run under: the
/// workload-specific knobs (inter-task scenarios, activation probability)
/// fixed by the [`Workload`] itself, plus the caller's iteration count and
/// seed.
pub fn workload_config(workload: &dyn Workload, iterations: usize, seed: u64) -> SimulationConfig {
    let mut config = SimulationConfig::default()
        .with_iterations(iterations)
        .with_seed(seed);
    config.task_inclusion_probability = workload.task_inclusion_probability();
    if let Some(combos) = workload.correlated_scenarios() {
        config = config.with_scenario_policy(ScenarioPolicy::Correlated(combos));
    }
    config
}

/// The base job spec of one experiment: a named workload, iteration count
/// and seed — everything else (inclusion probability, correlated scenarios)
/// comes from the workload itself, exactly as [`workload_config`] derives
/// it.
fn experiment_spec(workload: &str, iterations: usize, seed: u64) -> JobSpec {
    JobSpec::new(workload)
        .with_iterations(iterations)
        .with_seed(seed)
}

/// Sweeps one workload over its tile range: every sweep point is one engine
/// job covering all requested policies × iterations in a single pass over
/// the worker pool.
///
/// This is the generic harness behind Figures 6 and 7; it runs unchanged
/// over any workload the engine's registry resolves (built-ins,
/// `random-<t>x<s>`, `fuzz-<family>-<seed>`, …). Re-running a sweep on a
/// warm engine reuses every cached plan.
///
/// # Errors
///
/// Propagates engine errors (unknown workloads, simulation failures).
pub fn workload_sweep(
    engine: &Engine,
    workload: &str,
    iterations: usize,
    seed: u64,
    policies: &[PolicyKind],
) -> Result<Vec<FigurePoint>, EngineError> {
    let resolved = engine.registry().resolve(workload)?;
    let mut points = Vec::new();
    for tile_count in resolved.tile_sweep() {
        let spec = experiment_spec(workload, iterations, seed)
            .with_tiles(tile_count)
            .with_policies(policies);
        for report in engine.run(spec)? {
            points.push(FigurePoint {
                tiles: tile_count,
                policy: report.policy(),
                overhead_percent: report.overhead_percent(),
                reuse_percent: report.reuse_percent(),
            });
        }
    }
    Ok(points)
}

/// Regenerates the three curves of Figure 6: reconfiguration overhead of the
/// multimedia task set for 8–16 tiles under the run-time, run-time +
/// inter-task and hybrid policies.
///
/// # Errors
///
/// Propagates engine errors.
pub fn figure6_series(
    engine: &Engine,
    iterations: usize,
    seed: u64,
) -> Result<Vec<FigurePoint>, EngineError> {
    workload_sweep(
        engine,
        "multimedia",
        iterations,
        seed,
        &PolicyKind::FIGURE_POLICIES,
    )
}

/// The aggregate §7 headline numbers on the multimedia set: the overhead
/// without any prefetch and with the design-time-only prefetch, measured at
/// the given tile count.
///
/// # Errors
///
/// Propagates engine errors.
pub fn headline_numbers(
    engine: &Engine,
    iterations: usize,
    seed: u64,
    tiles: usize,
) -> Result<(SimulationReport, SimulationReport), EngineError> {
    baseline_pair(engine, "multimedia", iterations, seed, tiles)
}

/// Runs the no-prefetch and design-time-only baselines of one workload as a
/// single engine job.
fn baseline_pair(
    engine: &Engine,
    workload: &str,
    iterations: usize,
    seed: u64,
    tiles: usize,
) -> Result<(SimulationReport, SimulationReport), EngineError> {
    let spec = experiment_spec(workload, iterations, seed)
        .with_tiles(tiles)
        .with_policies([PolicyKind::NoPrefetch, PolicyKind::DesignTimeOnly]);
    let mut reports = engine.run(spec)?.into_iter();
    Ok((
        reports.next().expect("one report per requested policy"),
        reports.next().expect("one report per requested policy"),
    ))
}

/// Regenerates the three curves of Figure 7: the Pocket GL application swept
/// from 5 to 10 tiles, with scenario selection restricted to the 20 feasible
/// inter-task scenarios.
///
/// # Errors
///
/// Propagates engine errors.
pub fn figure7_series(
    engine: &Engine,
    iterations: usize,
    seed: u64,
) -> Result<Vec<FigurePoint>, EngineError> {
    workload_sweep(
        engine,
        "pocket_gl",
        iterations,
        seed,
        &PolicyKind::FIGURE_POLICIES,
    )
}

/// The Pocket GL headline numbers (71 % without prefetch, 25 % with the
/// design-time prefetch in the paper) at the given tile count.
///
/// # Errors
///
/// Propagates engine errors.
pub fn figure7_headline(
    engine: &Engine,
    iterations: usize,
    seed: u64,
    tiles: usize,
) -> Result<(SimulationReport, SimulationReport), EngineError> {
    baseline_pair(engine, "pocket_gl", iterations, seed, tiles)
}

/// One row of the replacement-policy ablation: the hybrid policy simulated
/// with different slot-to-tile mapping strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The label of the variant.
    pub label: String,
    /// Aggregate overhead in percent.
    pub overhead_percent: f64,
    /// Reuse percentage observed.
    pub reuse_percent: f64,
}

/// Runs every policy of [`PolicyKind::ALL`] on the multimedia set under the
/// same workload and returns the reports, in that order. This is the dataset
/// behind the machine-readable `BENCH_results.json` the `all_experiments`
/// binary emits.
///
/// # Errors
///
/// Propagates engine errors.
pub fn policy_overhead_reports(
    engine: &Engine,
    iterations: usize,
    seed: u64,
    tiles: usize,
) -> Result<Vec<SimulationReport>, EngineError> {
    engine.run(
        experiment_spec("multimedia", iterations, seed)
            .with_tiles(tiles)
            .with_policies(PolicyKind::ALL),
    )
}

/// Ablation: how much the reuse-aware replacement policy matters compared to
/// LRU and direct mapping (multimedia set, hybrid prefetch, fixed tile
/// count). The replacement policy is a run-time knob, so all three variants
/// share one cached plan.
///
/// # Errors
///
/// Propagates engine errors.
pub fn replacement_ablation(
    engine: &Engine,
    iterations: usize,
    seed: u64,
    tiles: usize,
) -> Result<Vec<AblationRow>, EngineError> {
    let mut rows = Vec::new();
    for policy in [
        ReplacementPolicy::ReuseAware,
        ReplacementPolicy::LeastRecentlyUsed,
        ReplacementPolicy::Direct,
    ] {
        let spec = experiment_spec("multimedia", iterations, seed)
            .with_tiles(tiles)
            .with_policies([PolicyKind::Hybrid])
            .with_replacement(policy);
        let report = engine.run(spec)?.remove(0);
        rows.push(AblationRow {
            label: format!("replacement={policy}"),
            overhead_percent: report.overhead_percent(),
            reuse_percent: report.reuse_percent(),
        });
    }
    Ok(rows)
}

/// Ablation: the critical-subtask sets computed with the exact branch & bound
/// scheduler versus the list-scheduling heuristic, over the multimedia graphs.
/// Returns `(graph name, |CS| with B&B, |CS| with the list scheduler)`.
pub fn cs_scheduler_ablation() -> Vec<(String, usize, usize)> {
    let platform = Platform::virtex_like(16).expect("non-empty platform");
    let graphs: Vec<SubtaskGraph> = vec![
        pattern_recognition_graph(),
        jpeg_decoder_graph(),
        parallel_jpeg_graph(),
        mpeg_encoder_graph(MpegFrame::P),
    ];
    graphs
        .into_iter()
        .map(|graph| {
            let schedule =
                fully_parallel_schedule(&graph).expect("benchmark graphs are well-formed");
            let exact = CriticalSetAnalysis::compute_with(
                &graph,
                &schedule,
                &platform,
                &BranchBoundScheduler::new(),
            )
            .expect("benchmark graphs schedule cleanly");
            let heuristic = CriticalSetAnalysis::compute_with(
                &graph,
                &schedule,
                &platform,
                &ListScheduler::new(),
            )
            .expect("benchmark graphs schedule cleanly");
            (graph.name().to_string(), exact.len(), heuristic.len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_rows_with_published_subtask_counts() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        let counts: Vec<usize> = rows.iter().map(|r| r.subtasks).collect();
        assert_eq!(counts, vec![6, 4, 8, 5]);
        // Ideal execution times match Table 1.
        assert_eq!(rows[0].ideal, Time::from_millis(94));
        assert_eq!(rows[1].ideal, Time::from_millis(81));
        assert_eq!(rows[2].ideal, Time::from_millis(57));
        assert_eq!(rows[3].ideal, Time::from_millis(33));
    }

    #[test]
    fn table1_shape_matches_the_paper() {
        for row in table1_rows() {
            // Prefetch always helps, and the measured numbers sit in the same
            // ballpark as the published ones (within a factor of two).
            assert!(row.prefetch_percent < row.overhead_percent, "{}", row.name);
            assert!(
                row.overhead_percent > row.paper_overhead_percent * 0.5
                    && row.overhead_percent < row.paper_overhead_percent * 2.0,
                "{}: measured {:.1}% vs paper {:.1}%",
                row.name,
                row.overhead_percent,
                row.paper_overhead_percent
            );
            assert!(
                row.prefetch_percent < row.paper_prefetch_percent * 2.5,
                "{}: measured prefetch {:.1}% vs paper {:.1}%",
                row.name,
                row.prefetch_percent,
                row.paper_prefetch_percent
            );
        }
    }

    fn test_engine() -> Engine {
        Engine::builder().build()
    }

    #[test]
    fn quick_figure6_sweep_shows_the_expected_ordering() {
        let points = figure6_series(&test_engine(), 60, 7).unwrap();
        assert_eq!(points.len(), 9 * 3);
        // At every tile count the hybrid and the inter-task variant stay at or
        // below the pure run-time heuristic plus a small tolerance.
        for tiles in 8..=16 {
            let at = |p: PolicyKind| {
                points
                    .iter()
                    .find(|x| x.tiles == tiles && x.policy == p)
                    .map(|x| x.overhead_percent)
                    .expect("point exists")
            };
            assert!(at(PolicyKind::RunTimeInterTask) <= at(PolicyKind::RunTime) + 0.5);
            assert!(at(PolicyKind::Hybrid) <= at(PolicyKind::RunTime) + 1.5);
        }
    }

    #[test]
    fn workload_sweep_runs_over_any_registered_workload() {
        let engine = test_engine();
        let random = engine.registry().resolve("random-3x5").expect("built-in");
        let points = workload_sweep(&engine, "random-3x5", 10, 1, &[PolicyKind::Hybrid]).unwrap();
        assert_eq!(points.len(), random.tile_sweep().count());
        for point in &points {
            assert_eq!(point.policy, PolicyKind::Hybrid);
            assert!(point.overhead_percent.is_finite());
        }
    }

    #[test]
    fn ablation_reports_cover_every_variant() {
        let engine = test_engine();
        let rows = replacement_ablation(&engine, 30, 3, 10).unwrap();
        assert_eq!(rows.len(), 3);
        let reuse_aware = &rows[0];
        let direct = &rows[2];
        assert!(reuse_aware.reuse_percent >= direct.reuse_percent - 1e-9);
        let cs = cs_scheduler_ablation();
        assert_eq!(cs.len(), 4);
        for (name, exact, heuristic) in cs {
            assert!(
                exact <= heuristic,
                "{name}: exact CS larger than heuristic CS"
            );
            assert!(exact >= 1);
        }
    }
}
