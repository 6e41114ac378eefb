//! The differential harness: pinned fuzz corpus, bit-for-bit comparison,
//! first-divergence shrinking.
//!
//! A [`DiffCase`] pins one `(workload, tiles, seed, knobs)` tuple. Running a
//! case sweeps **all five policies** and compares the fast path against the
//! straight-line reference two ways:
//!
//! 1. per-iteration outcomes (`IterationPlan::evaluate_run`), field by field;
//! 2. the aggregate reports of the sequential `IterationPlan::run`.
//!
//! [`run_corpus`] then replays every named case through the `drhw-engine`
//! worker pool, cold and warm, against those aggregate reports. Integer
//! fields must match exactly and the floating-point energy total must match
//! **bit for bit** (`f64::to_bits`), because the engine promises reports
//! independent of its thread count and the reference defines what the
//! numbers ought to be.
//!
//! When a case diverges, [`run_corpus`] shrinks it before reporting: the
//! iteration count is cut to the first divergent iteration, then whole
//! tasks, scenarios and trailing subtasks are removed while the divergence
//! persists. The resulting [`Divergence`] prints the minimal failing task
//! set, ready to paste into a regression test.

use std::collections::BTreeMap;

use drhw_engine::{Engine, JobSpec};
use drhw_model::{PeClass, Platform, Scenario, ScenarioId, SubtaskGraph, Task, TaskId, TaskSet};
use drhw_prefetch::{PolicyKind, ReplacementPolicy};
use drhw_sim::{
    IterationOutcome, IterationPlan, PointSelection, ScenarioPolicy, SimulationConfig,
    SimulationReport,
};
use drhw_workloads::{FuzzFamily, FuzzWorkload, Workload};

use crate::reference::{
    OracleConfig, PointSelectionRule, ReferenceOutcome, ReferencePolicy, ReferenceReport,
    ReferenceSimulator, ReplacementRule, ScenarioRule,
};

/// The pinned master seed every corpus derives from. Changing it re-rolls
/// every generated case, so treat it like a golden value.
pub const CORPUS_SEED: u64 = 0xD1FF_2005;

/// Environment variable scaling the corpus (`DRHW_FUZZ_CASES`).
pub const FUZZ_CASES_ENV: &str = "DRHW_FUZZ_CASES";

/// Reads the corpus size from `DRHW_FUZZ_CASES`, falling back to `default`
/// when the variable is unset or unparseable.
pub fn corpus_cases_from_env(default: usize) -> usize {
    std::env::var(FUZZ_CASES_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// One differential test case: a concrete task set plus every knob both
/// simulators consume.
#[derive(Debug, Clone)]
pub struct DiffCase {
    /// Human-readable label (workload name, tiles, seed).
    pub label: String,
    /// The task set both sides simulate.
    pub task_set: TaskSet,
    /// DRHW tile count of the platform.
    pub tiles: usize,
    /// The engine-side configuration (the oracle side is derived from it).
    pub config: SimulationConfig,
    /// Registry name of the workload the case was generated from, when the
    /// task set is reproducible by name — this is what lets [`run_corpus`]
    /// additionally push the case through the `drhw-engine` job path.
    /// Structurally shrunk cases lose the name (`None`).
    pub workload: Option<String>,
}

impl DiffCase {
    /// Builds a case from a registered workload and explicit knobs.
    pub fn from_workload(
        workload: &dyn Workload,
        tiles: usize,
        iterations: usize,
        seed: u64,
        chunk_size: usize,
    ) -> Self {
        let mut config = SimulationConfig::default()
            .with_iterations(iterations)
            .with_seed(seed)
            .with_chunk_size(chunk_size);
        config.task_inclusion_probability = workload.task_inclusion_probability();
        if let Some(combos) = workload.correlated_scenarios() {
            config = config.with_scenario_policy(ScenarioPolicy::Correlated(combos));
        }
        DiffCase {
            label: format!("{}@{tiles}t seed={seed}", workload.name()),
            task_set: workload.task_set(),
            tiles,
            config,
            workload: Some(workload.name().to_string()),
        }
    }

    /// The job spec reproducing this case through the `drhw-engine` path, or
    /// `None` when the task set is not reproducible by name.
    pub fn job_spec(&self) -> Option<JobSpec> {
        let workload = self.workload.as_ref()?;
        Some(
            JobSpec::new(workload)
                .with_tiles(self.tiles)
                .with_iterations(self.config.iterations)
                .with_seed(self.config.seed)
                .with_chunk_size(self.config.chunk_size)
                .with_replacement(self.config.replacement)
                .with_point_selection(self.config.point_selection)
                .with_task_inclusion_probability(self.config.task_inclusion_probability),
        )
    }

    fn oracle_config(&self) -> OracleConfig {
        OracleConfig {
            iterations: self.config.iterations,
            seed: self.config.seed,
            task_inclusion_probability: self.config.task_inclusion_probability,
            replacement: match self.config.replacement {
                ReplacementPolicy::ReuseAware => ReplacementRule::ReuseAware,
                ReplacementPolicy::LeastRecentlyUsed => ReplacementRule::LeastRecentlyUsed,
                ReplacementPolicy::Direct => ReplacementRule::Direct,
            },
            point_selection: match self.config.point_selection {
                PointSelection::FullyParallel => PointSelectionRule::FullyParallel,
                PointSelection::Fastest => PointSelectionRule::Fastest,
                PointSelection::EnergyAware => PointSelectionRule::EnergyAware,
            },
            scenario_rule: match &self.config.scenario_policy {
                ScenarioPolicy::Independent => ScenarioRule::Independent,
                ScenarioPolicy::Correlated(combos) => ScenarioRule::Correlated(combos.clone()),
            },
            chunk_size: self.config.chunk_size,
        }
    }
}

/// The reference policy matching an engine policy.
pub fn reference_policy(policy: PolicyKind) -> ReferencePolicy {
    match policy {
        PolicyKind::NoPrefetch => ReferencePolicy::NoPrefetch,
        PolicyKind::DesignTimeOnly => ReferencePolicy::DesignTimeOnly,
        PolicyKind::RunTime => ReferencePolicy::RunTime,
        PolicyKind::RunTimeInterTask => ReferencePolicy::RunTimeInterTask,
        PolicyKind::Hybrid => ReferencePolicy::Hybrid,
    }
}

/// One confirmed disagreement between the engine and the reference.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Label of the diverging case.
    pub case: String,
    /// The policy under which the sides disagreed.
    pub policy: PolicyKind,
    /// The first diverging iteration, or `None` for aggregate-report
    /// comparisons.
    pub iteration: Option<usize>,
    /// The first diverging field (aggregate comparisons carry an
    /// `[aggregate]` suffix, e.g. `penalty_total[aggregate]`).
    pub field: String,
    /// The engine's value, rendered.
    pub engine: String,
    /// The reference's value, rendered.
    pub oracle: String,
    /// Description of the shrunk minimal counterexample, when shrinking ran.
    pub minimized: Option<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "differential divergence in {case} under {policy}",
            case = self.case,
            policy = self.policy
        )?;
        match self.iteration {
            Some(i) => write!(f, " at iteration {i}")?,
            None => write!(f, " in the aggregate report")?,
        }
        write!(
            f,
            ": field `{}` engine={} oracle={}",
            self.field, self.engine, self.oracle
        )?;
        if let Some(minimized) = &self.minimized {
            write!(f, "\nminimal counterexample:\n{minimized}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Divergence {}

/// Statistics of one successfully compared case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// The case label.
    pub label: String,
    /// Iterations compared per policy.
    pub iterations: usize,
    /// Policies swept (always all five).
    pub policies: usize,
    /// The aggregate [`IterationPlan::run`] reports of the case, when every
    /// policy simulated cleanly — reused by [`run_corpus`] as the comparison
    /// target for the engine replay, so the direct path is not recomputed.
    pub reports: Option<Vec<SimulationReport>>,
}

macro_rules! compare_fields {
    ($case:expr, $policy:expr, $iteration:expr, $suffix:expr, [$( ($name:literal, $engine:expr, $oracle:expr) ),* $(,)?]) => {
        $(
            if $engine != $oracle {
                return Err(Box::new(Divergence {
                    case: $case.label.clone(),
                    policy: $policy,
                    iteration: $iteration,
                    field: format!("{}{}", $name, $suffix),
                    engine: format!("{:?}", $engine),
                    oracle: format!("{:?}", $oracle),
                    minimized: None,
                }));
            }
        )*
    };
}

fn compare_outcome(
    case: &DiffCase,
    policy: PolicyKind,
    iteration: usize,
    engine: &IterationOutcome,
    oracle: &ReferenceOutcome,
) -> Result<(), Box<Divergence>> {
    compare_fields!(
        case,
        policy,
        Some(iteration),
        "",
        [
            ("activations", engine.activations(), oracle.activations),
            ("ideal", engine.ideal(), oracle.ideal),
            ("penalty", engine.penalty(), oracle.penalty),
            (
                "loads_performed",
                engine.loads_performed(),
                oracle.loads_performed
            ),
            (
                "loads_cancelled",
                engine.loads_cancelled(),
                oracle.loads_cancelled
            ),
            (
                "drhw_subtasks_executed",
                engine.drhw_subtasks_executed(),
                oracle.drhw_subtasks_executed
            ),
            (
                "reused_subtasks",
                engine.reused_subtasks(),
                oracle.reused_subtasks
            ),
            (
                "reconfiguration_energy_mj_bits",
                engine.reconfiguration_energy_mj().to_bits(),
                oracle.reconfiguration_energy_mj.to_bits()
            ),
        ]
    );
    Ok(())
}

fn compare_report(
    case: &DiffCase,
    policy: PolicyKind,
    engine: &SimulationReport,
    oracle: &ReferenceReport,
) -> Result<(), Box<Divergence>> {
    compare_fields!(
        case,
        policy,
        None,
        "[aggregate]",
        [
            ("activations", engine.activations(), oracle.activations),
            ("ideal_total", engine.ideal_total(), oracle.ideal_total),
            (
                "penalty_total",
                engine.penalty_total(),
                oracle.penalty_total
            ),
            (
                "loads_performed",
                engine.loads_performed(),
                oracle.loads_performed
            ),
            (
                "loads_cancelled",
                engine.loads_cancelled(),
                oracle.loads_cancelled
            ),
            (
                "drhw_subtasks_executed",
                engine.drhw_subtasks_executed(),
                oracle.drhw_subtasks_executed
            ),
            (
                "reused_subtasks",
                engine.reused_subtasks(),
                oracle.reused_subtasks
            ),
            (
                "reconfiguration_energy_mj_bits",
                engine.reconfiguration_energy_mj().to_bits(),
                oracle.reconfiguration_energy_mj.to_bits()
            ),
        ]
    );

    Ok(())
}

/// Runs one case: all five policies, per-iteration and aggregate
/// comparisons.
///
/// # Errors
///
/// Returns the first [`Divergence`] in (policy, iteration) order. A case
/// where both sides fail to simulate counts as agreement; a case where only
/// one side fails is reported as a divergence in the `error` field.
pub fn run_case(case: &DiffCase) -> Result<CaseOutcome, Box<Divergence>> {
    let platform = Platform::virtex_like(case.tiles).expect("corpus tile counts are positive");
    let plan = IterationPlan::new(&case.task_set, &platform, case.config.clone());
    let oracle = ReferenceSimulator::new(&case.task_set, &platform, case.oracle_config())
        .expect("oracle config mirrors a validated engine config");

    let plan = match plan {
        Ok(plan) => plan,
        Err(engine_error) => {
            // The engine rejected the case outright; the oracle must reject
            // it too (any policy's first iteration suffices as the probe).
            return match oracle.simulate_policy(ReferencePolicy::NoPrefetch) {
                Err(_) => Ok(CaseOutcome {
                    label: case.label.clone(),
                    iterations: 0,
                    policies: PolicyKind::ALL.len(),
                    reports: None,
                }),
                Ok(_) => Err(Box::new(Divergence {
                    case: case.label.clone(),
                    policy: PolicyKind::NoPrefetch,
                    iteration: None,
                    field: "error".to_string(),
                    engine: engine_error.to_string(),
                    oracle: "simulated successfully".to_string(),
                    minimized: None,
                })),
            };
        }
    };

    let mut reference_reports: Vec<Option<ReferenceReport>> =
        Vec::with_capacity(PolicyKind::ALL.len());
    for policy in PolicyKind::ALL {
        let mirror = reference_policy(policy);
        let engine_run = plan.evaluate_run(policy);
        let oracle_run = oracle.simulate_policy(mirror);
        let (engine_run, oracle_run) = match (engine_run, oracle_run) {
            (Ok(e), Ok(o)) => (e, o),
            (Err(_), Err(_)) => {
                // Both sides agree the case is unschedulable under this
                // policy; the aggregate pass is skipped below.
                reference_reports.push(None);
                continue;
            }
            (Err(e), Ok(_)) => {
                return Err(Box::new(Divergence {
                    case: case.label.clone(),
                    policy,
                    iteration: None,
                    field: "error".to_string(),
                    engine: e.to_string(),
                    oracle: "simulated successfully".to_string(),
                    minimized: None,
                }))
            }
            (Ok(_), Err(o)) => {
                return Err(Box::new(Divergence {
                    case: case.label.clone(),
                    policy,
                    iteration: None,
                    field: "error".to_string(),
                    engine: "simulated successfully".to_string(),
                    oracle: o.to_string(),
                    minimized: None,
                }))
            }
        };
        assert_eq!(engine_run.len(), oracle_run.len(), "iteration counts match");
        for (iteration, (engine, oracle_outcome)) in engine_run.iter().zip(&oracle_run).enumerate()
        {
            compare_outcome(case, policy, iteration, engine, oracle_outcome)?;
        }
        // The engine folds per-chunk partial sums in chunk order; mirror that
        // grouping so the f64 energy total is comparable bit for bit.
        reference_reports.push(Some(ReferenceReport::from_outcomes_chunked(
            &oracle_run,
            case.config.chunk_size,
        )));
    }

    // Aggregate comparison: one run covering every policy at once (a run
    // over a policy subset would still be bit-identical, but sweeping all
    // five in one pass is what production jobs do).
    let mut reports = None;
    if reference_reports.iter().all(Option::is_some) {
        let run = plan
            .run(&PolicyKind::ALL)
            .expect("per-iteration pass already succeeded");
        for (which, policy) in PolicyKind::ALL.into_iter().enumerate() {
            let reference = reference_reports[which]
                .as_ref()
                .expect("all policies succeeded");
            compare_report(case, policy, &run[which], reference)?;
        }
        reports = Some(run);
    }

    Ok(CaseOutcome {
        label: case.label.clone(),
        iterations: case.config.iterations,
        policies: PolicyKind::ALL.len(),
        reports,
    })
}

/// The pinned corpus: `cases` deterministic cases cycling through the six
/// DAG families, tile counts, chunk sizes, replacement rules and
/// point-selection strategies. The same `cases` value always yields the same
/// corpus (derived from [`CORPUS_SEED`]).
pub fn pinned_corpus(cases: usize) -> Vec<DiffCase> {
    let chunk_sizes = [3usize, 4, 5, 8];
    let replacements = [
        ReplacementPolicy::ReuseAware,
        ReplacementPolicy::LeastRecentlyUsed,
        ReplacementPolicy::Direct,
    ];
    (0..cases)
        .map(|i| {
            let family = FuzzFamily::ALL[i % FuzzFamily::ALL.len()];
            let fuzz_seed = CORPUS_SEED.wrapping_add(i as u64);
            let workload = FuzzWorkload::new(family, fuzz_seed);
            let sweep: Vec<usize> = workload.tile_sweep().collect();
            let tiles = sweep[i / FuzzFamily::ALL.len() % sweep.len()];
            let iterations = 6 + i % 7;
            let chunk_size = chunk_sizes[i % chunk_sizes.len()];
            let mut case = DiffCase::from_workload(
                &workload,
                tiles,
                iterations,
                CORPUS_SEED ^ (i as u64).rotate_left(17),
                chunk_size,
            );
            case.config.replacement = replacements[i % replacements.len()];
            case.config.point_selection = match i % 5 {
                3 => PointSelection::Fastest,
                4 => PointSelection::EnergyAware,
                _ => PointSelection::FullyParallel,
            };
            case.label = format!("#{i} {}", case.label);
            case
        })
        .collect()
}

/// Runs a whole corpus, shrinking the first divergence before returning it.
///
/// Every case that carries a workload name is additionally replayed through
/// the `drhw-engine` job path (plan cache, worker pool, ordered fold) —
/// once cold (a cache miss that prepares the plan) and once warm (a
/// guaranteed cache hit on the same key) — and both replays are compared
/// bit for bit against the [`IterationPlan::run`] reports the direct pass
/// already computed. The sequential run and the worker pool, and the hit
/// and miss paths, must be indistinguishable on the whole corpus.
///
/// # Errors
///
/// Returns the shrunk [`Divergence`] of the first failing case.
pub fn run_corpus(cases: &[DiffCase]) -> Result<Vec<CaseOutcome>, Box<Divergence>> {
    // One engine for the whole corpus. Corpus workload names are unique
    // (the fuzz seed is part of the name), so within one case the first
    // submission misses and the resubmission below hits.
    let engine = Engine::builder().cache_capacity(16).build();
    let mut outcomes = Vec::with_capacity(cases.len());
    for case in cases {
        match run_case(case) {
            Ok(outcome) => {
                engine_check(case, &engine, outcome.reports.as_deref())?;
                outcomes.push(outcome);
            }
            Err(divergence) => return Err(shrink(case, *divergence)),
        }
    }
    Ok(outcomes)
}

/// Replays a named case through the engine — cold, then warm — and demands
/// bit-for-bit agreement with the direct reports `run_case` computed
/// (including agreement on *failing*: if the direct pass produced no
/// aggregate reports, the engine job must error too).
fn engine_check(
    case: &DiffCase,
    engine: &Engine,
    direct_reports: Option<&[SimulationReport]>,
) -> Result<(), Box<Divergence>> {
    let Some(spec) = case.job_spec() else {
        return Ok(());
    };
    let divergence = |field: &str, engine_side: String, direct_side: String| {
        Box::new(Divergence {
            case: case.label.clone(),
            policy: PolicyKind::NoPrefetch,
            iteration: None,
            field: field.to_string(),
            engine: engine_side,
            oracle: direct_side,
            minimized: None,
        })
    };
    match (engine.run(spec.clone()), direct_reports) {
        (Ok(via_engine), Some(direct)) => {
            if via_engine != direct {
                return Err(divergence(
                    "reports[engine-vs-direct]",
                    format!("{via_engine:?}"),
                    format!("{direct:?}"),
                ));
            }
            // Resubmit: same key, so this run is served from the plan
            // cache and must still be bit-identical.
            let handle = match engine.submit(spec) {
                Ok(handle) => handle,
                Err(e) => {
                    return Err(divergence(
                        "error[cache-replay]",
                        e.to_string(),
                        "first submission succeeded".to_string(),
                    ))
                }
            };
            if !handle.was_cache_hit() {
                return Err(divergence(
                    "cache[cache-replay]",
                    "miss".to_string(),
                    "hit expected on resubmission".to_string(),
                ));
            }
            match handle.wait() {
                Ok(warm) if warm == via_engine => Ok(()),
                Ok(warm) => Err(divergence(
                    "reports[cache-replay]",
                    format!("{warm:?}"),
                    format!("{via_engine:?}"),
                )),
                Err(e) => Err(divergence(
                    "error[cache-replay]",
                    e.to_string(),
                    "cold replay succeeded".to_string(),
                )),
            }
        }
        (Err(_), None) => Ok(()),
        (Ok(_), None) => Err(divergence(
            "error[engine-vs-direct]",
            "simulated successfully".to_string(),
            "direct pass produced no aggregate reports".to_string(),
        )),
        (Err(e), Some(_)) => Err(divergence(
            "error[engine-vs-direct]",
            e.to_string(),
            "simulated successfully".to_string(),
        )),
    }
}

/// Shrinks a diverging case to a (locally) minimal counterexample: first the
/// iteration count is cut to the first divergent iteration, then whole
/// tasks, scenarios and trailing subtasks are removed while any divergence
/// persists. Returns the divergence of the minimal case, with its
/// description attached.
pub fn shrink(case: &DiffCase, divergence: Divergence) -> Box<Divergence> {
    let mut current = case.clone();
    let mut last = divergence;

    // Step 1: the outcome of iteration k depends only on its chunk prefix,
    // so k+1 iterations suffice to reproduce a divergence at iteration k.
    if let Some(iteration) = last.iteration {
        let truncated = with_iterations(&current, iteration + 1);
        if let Err(d) = run_case(&truncated) {
            current = truncated;
            last = *d;
        }
    }

    // Step 2: structural shrinking to a fixed point.
    loop {
        let mut advanced = false;
        for candidate in shrink_candidates(&current) {
            if let Err(d) = run_case(&candidate) {
                current = candidate;
                last = *d;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }

    last.minimized = Some(describe_case(&current));
    Box::new(last)
}

fn with_iterations(case: &DiffCase, iterations: usize) -> DiffCase {
    let mut shrunk = case.clone();
    shrunk.config = shrunk.config.with_iterations(iterations.max(1));
    shrunk
}

/// Every one-step-smaller variant of a case, in preference order: drop a
/// task, drop a scenario, drop the trailing subtask of a scenario graph.
fn shrink_candidates(case: &DiffCase) -> Vec<DiffCase> {
    let mut candidates = Vec::new();
    let tasks = case.task_set.tasks();

    if tasks.len() > 1 {
        for drop in 0..tasks.len() {
            let kept: Vec<Task> = tasks
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, t)| t.clone())
                .collect();
            if let Some(candidate) = rebuild(case, kept) {
                candidates.push(candidate);
            }
        }
    }

    for (which, task) in tasks.iter().enumerate() {
        if task.scenarios().len() > 1 {
            for drop in 0..task.scenarios().len() {
                let kept: Vec<Scenario> = task
                    .scenarios()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, s)| s.clone())
                    .collect();
                if let Ok(smaller) = Task::new(task.id(), task.name().to_string(), kept) {
                    let mut replaced: Vec<Task> = tasks.to_vec();
                    replaced[which] = smaller;
                    if let Some(candidate) = rebuild(case, replaced) {
                        candidates.push(candidate);
                    }
                }
            }
        }
    }

    for (which, task) in tasks.iter().enumerate() {
        for (scenario_index, scenario) in task.scenarios().iter().enumerate() {
            let Some(smaller_graph) = drop_last_subtask(scenario.graph()) else {
                continue;
            };
            let mut scenarios: Vec<Scenario> = task.scenarios().to_vec();
            scenarios[scenario_index] = Scenario::new(scenario.id(), smaller_graph)
                .with_probability(scenario.probability());
            if let Ok(smaller) = Task::new(task.id(), task.name().to_string(), scenarios) {
                let mut replaced: Vec<Task> = tasks.to_vec();
                replaced[which] = smaller;
                if let Some(candidate) = rebuild(case, replaced) {
                    candidates.push(candidate);
                }
            }
        }
    }

    candidates
}

/// Rebuilds a case around a smaller task list, fixing the correlated
/// combinations up (entries for removed tasks are dropped; combinations
/// naming a removed scenario are dropped wholesale). Returns `None` when the
/// shrink would leave the case invalid (no tasks, or a correlated rule with
/// no combinations).
fn rebuild(case: &DiffCase, tasks: Vec<Task>) -> Option<DiffCase> {
    if tasks.is_empty() {
        return None;
    }
    let task_set = TaskSet::new(case.task_set.name().to_string(), tasks).ok()?;
    let mut config = case.config.clone();
    if let ScenarioPolicy::Correlated(combos) = &case.config.scenario_policy {
        let repaired: Vec<BTreeMap<TaskId, ScenarioId>> = combos
            .iter()
            .filter_map(|combo| {
                let mut repaired = BTreeMap::new();
                for (&task, &scenario) in combo {
                    match task_set.tasks().iter().find(|t| t.id() == task) {
                        // A combination naming a now-removed scenario would
                        // change behaviour, not shrink it: drop the combo.
                        Some(t) => {
                            t.scenario(scenario)?;
                            repaired.insert(task, scenario);
                        }
                        None => continue,
                    }
                }
                Some(repaired)
            })
            .collect();
        if repaired.is_empty() {
            return None;
        }
        config = config.with_scenario_policy(ScenarioPolicy::Correlated(repaired));
    }
    Some(DiffCase {
        label: format!("{} (shrunk)", case.label),
        task_set,
        tiles: case.tiles,
        config,
        // A structurally shrunk task set no longer matches any registry
        // name, so the engine replay is skipped for it.
        workload: None,
    })
}

/// Rebuilds the graph without its highest-id subtask (and the edges touching
/// it); `None` when only one subtask is left.
fn drop_last_subtask(graph: &SubtaskGraph) -> Option<SubtaskGraph> {
    if graph.len() <= 1 {
        return None;
    }
    let last = graph.len() - 1;
    let mut smaller = SubtaskGraph::new(graph.name().to_string());
    for (id, subtask) in graph.iter() {
        if id.index() == last {
            break;
        }
        smaller.add_subtask(subtask.clone());
    }
    for (from, to) in graph.edges() {
        if from.index() == last || to.index() == last {
            continue;
        }
        smaller
            .add_dependency(from, to)
            .expect("subgraph of a DAG stays acyclic");
    }
    Some(smaller)
}

/// Renders a case as a reproducible description: every graph with execution
/// times, configurations, PE classes and edges, plus every knob.
pub fn describe_case(case: &DiffCase) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tiles={} iterations={} seed={} chunk_size={} replacement={} point_selection={:?}",
        case.tiles,
        case.config.iterations,
        case.config.seed,
        case.config.chunk_size,
        case.config.replacement,
        case.config.point_selection,
    );
    let _ = writeln!(
        out,
        "task_inclusion_probability={}",
        case.config.task_inclusion_probability
    );
    if let ScenarioPolicy::Correlated(combos) = &case.config.scenario_policy {
        let _ = writeln!(out, "correlated combinations: {combos:?}");
    }
    for task in case.task_set.tasks() {
        let _ = writeln!(out, "task {} ({:?}):", task.id(), task.name());
        for scenario in task.scenarios() {
            let _ = writeln!(
                out,
                "  scenario {} (p={}):",
                scenario.id(),
                scenario.probability()
            );
            let graph = scenario.graph();
            for (id, subtask) in graph.iter() {
                let class = match subtask.pe_class() {
                    PeClass::Drhw => "drhw",
                    PeClass::Isp => "isp",
                };
                let _ = writeln!(
                    out,
                    "    {id}: {:?} exec={}us config={} pe={class}",
                    subtask.name(),
                    subtask.exec_time().as_micros(),
                    subtask.config(),
                );
            }
            let edges: Vec<String> = graph
                .edges()
                .map(|(from, to)| format!("{from}->{to}"))
                .collect();
            let _ = writeln!(out, "    edges: {}", edges.join(", "));
        }
    }
    out
}

/// Keeps `describe_case` honest in tests: a described case must mention every
/// subtask of every scenario.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_corpus_is_deterministic_and_diverse() {
        let a = pinned_corpus(24);
        let b = pinned_corpus(24);
        assert_eq!(a.len(), 24);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.task_set, y.task_set);
            assert_eq!(x.config, y.config);
        }
        // All six families appear.
        for family in FuzzFamily::ALL {
            assert!(
                a.iter().any(|c| c.label.contains(family.name())),
                "family {family} missing from the corpus"
            );
        }
        // All three point-selection strategies appear.
        for selection in [
            PointSelection::FullyParallel,
            PointSelection::Fastest,
            PointSelection::EnergyAware,
        ] {
            assert!(a.iter().any(|c| c.config.point_selection == selection));
        }
    }

    #[test]
    fn corpus_env_knob_falls_back_to_the_default() {
        // The variable is not set in unit tests.
        assert_eq!(corpus_cases_from_env(42), 42);
    }

    #[test]
    fn described_cases_mention_every_subtask() {
        let case = &pinned_corpus(1)[0];
        let description = describe_case(case);
        for task in case.task_set.tasks() {
            for scenario in task.scenarios() {
                for (_, subtask) in scenario.graph().iter() {
                    assert!(
                        description.contains(subtask.name()),
                        "missing {}",
                        subtask.name()
                    );
                }
            }
        }
    }

    #[test]
    fn shrinking_drops_tasks_scenarios_and_subtasks() {
        let case = &pinned_corpus(6)[5]; // a mix-family case (multi-scenario)
        let candidates = shrink_candidates(case);
        assert!(!candidates.is_empty());
        let original: usize = case
            .task_set
            .tasks()
            .iter()
            .flat_map(|t| t.scenarios())
            .map(|s| s.graph().len())
            .sum();
        for candidate in &candidates {
            let shrunk: usize = candidate
                .task_set
                .tasks()
                .iter()
                .flat_map(|t| t.scenarios())
                .map(|s| s.graph().len())
                .sum();
            assert!(shrunk < original, "candidates must be strictly smaller");
        }
    }

    #[test]
    fn subtask_dropping_preserves_validity() {
        let case = &pinned_corpus(4)[3];
        let graph = case.task_set.tasks()[0].scenarios()[0].graph();
        let smaller = drop_last_subtask(graph).expect("fuzz graphs have >1 subtask");
        assert_eq!(smaller.len(), graph.len() - 1);
        smaller.validate().expect("shrunk graphs stay valid DAGs");
    }
}
