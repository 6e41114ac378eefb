//! Per-crate layer timings, reported by `--trace 1`.
//!
//! The spans are taken here, in the benchmark, around direct calls into
//! each crate's public API, on requests drawn like the workload's own. A
//! request is measured bottom up, and each span's median over the profiled
//! requests is reported:
//!
//! | metric                 | crate          | span                                                   |
//! |------------------------|----------------|--------------------------------------------------------|
//! | `workloads.build_ms`   | drhw-workloads | resolve the workload name, build its task set          |
//! | `tcm.library_ms`       | drhw-tcm       | the Pareto design-time library of the task set         |
//! | `prefetch.bb_ms`       | drhw-prefetch  | branch & bound on every scenario the plan prepares     |
//! | `prefetch.critical_ms` | drhw-prefetch  | the Fig. 4 critical-set loop on the same scenarios     |
//! | `sim.prepare_ms`       | drhw-sim       | `IterationPlan::new`, the whole design-time build      |
//! | `sim.eval_ms`          | drhw-sim       | every (policy, chunk) slot of the job, on one thread   |
//! | `engine.run_ms`        | drhw-engine    | `Engine::run`, plan cache as warm as the server's      |
//! | `net.roundtrip_ms`     | drhw-net       | the request over a socket to the otherwise idle server |
//!
//! `prefetch.bb_nodes` counts the branch & bound nodes a request explores.
//! The spans nest: `sim.prepare_ms` runs the tcm and prefetch work itself,
//! `engine.run_ms` runs the evaluation (spread over the pool) and, on a
//! plan-cache miss, the preparation, and `net.roundtrip_ms` runs the same
//! work on the server's engine. The difference between neighbours is the
//! outer layer's own cost.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use drhw_engine::json::{parse, JsonValue};
use drhw_engine::{Engine, JobSpec};
use drhw_model::{InitialSchedule, Platform, ScenarioId, SubtaskGraph, TaskId};
use drhw_prefetch::{BranchBoundScheduler, HybridPrefetch, PrefetchProblem, SearchCache};
use drhw_sim::IterationPlan;
use drhw_tcm::{DesignTimeLibrary, DesignTimeScheduler};

use crate::workload::request_line;

/// Requests profiled at the least, however short the time budget.
const MIN_REQUESTS: usize = 15;

/// What [`profile`] measured.
pub struct Profile {
    /// `(metric, median, unit)` of every span and count.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Requests whose answer over the wire differed from the in-process one.
    pub mismatches: usize,
}

#[derive(Default)]
struct Samples {
    build: Vec<f64>,
    library: Vec<f64>,
    bb: Vec<f64>,
    critical: Vec<f64>,
    nodes: Vec<f64>,
    prepare: Vec<f64>,
    eval: Vec<f64>,
    engine: Vec<f64>,
    net: Vec<f64>,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Profiles requests from `specs` for `budget` (and at least
/// [`MIN_REQUESTS`] of them): each runs layer by layer in process, on
/// `engine`, then over the wire on the server at `server`.
pub fn profile(
    specs: impl Iterator<Item = JobSpec>,
    engine: &Engine,
    server: SocketAddr,
    budget: Duration,
) -> Result<Profile, String> {
    let mut stream = TcpStream::connect(server).map_err(|e| format!("connect {server}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set_nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?,
    );
    let mut samples = Samples::default();
    let mut mismatches = 0;
    let started = Instant::now();
    for (index, spec) in specs.enumerate() {
        if index >= MIN_REQUESTS && started.elapsed() >= budget {
            break;
        }
        let in_process = measure(&spec, engine, &mut samples)?;
        let sent = Instant::now();
        stream
            .write_all(request_line(index as u64 + 1, &spec).as_bytes())
            .map_err(|e| format!("profiled request: {e}"))?;
        let mut answer = String::new();
        reader
            .read_line(&mut answer)
            .map_err(|e| format!("profiled answer: {e}"))?;
        samples.net.push(ms(sent));
        let over_wire = parse(answer.trim_end())
            .ok()
            .and_then(|value| value.get("reports").map(JsonValue::to_json));
        if over_wire.as_deref() != Some(in_process.as_str()) {
            eprintln!(
                "perfbench: {} answered differently over the wire: {}",
                spec.workload,
                answer.trim_end()
            );
            mismatches += 1;
        }
    }
    let median = |name: &'static str, values: &[f64], unit: &'static str| {
        crate::median(values)
            .map(|value| (name, value, unit))
            .ok_or_else(|| format!("no samples for {name}"))
    };
    Ok(Profile {
        metrics: vec![
            median("net.roundtrip_ms", &samples.net, "ms")?,
            median("engine.run_ms", &samples.engine, "ms")?,
            median("sim.eval_ms", &samples.eval, "ms")?,
            median("sim.prepare_ms", &samples.prepare, "ms")?,
            median("tcm.library_ms", &samples.library, "ms")?,
            median("prefetch.bb_ms", &samples.bb, "ms")?,
            median("prefetch.critical_ms", &samples.critical, "ms")?,
            median("workloads.build_ms", &samples.build, "ms")?,
            median("prefetch.bb_nodes", &samples.nodes, "count")?,
        ],
        mismatches,
    })
}

/// Times one request's crate-level spans and returns its reports as the
/// in-process engine renders them.
fn measure(spec: &JobSpec, engine: &Engine, samples: &mut Samples) -> Result<String, String> {
    let started = Instant::now();
    let workload = engine
        .registry()
        .resolve(&spec.workload)
        .map_err(|e| e.to_string())?;
    let set = workload.task_set();
    samples.build.push(ms(started));

    let tiles = spec.resolved_tiles(workload.as_ref());
    let platform = Platform::virtex_like(tiles).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let library = DesignTimeLibrary::build(&set, &platform, &DesignTimeScheduler::new())
        .map_err(|e| e.to_string())?;
    samples.library.push(ms(started));

    // The searches `IterationPlan::new` runs on every scenario a job can
    // activate: on the initial schedule the default point selection picks,
    // with one search cache shared by both searches, as the plan shares it.
    let reachable = workload.correlated_scenarios().map(|combos| {
        let mut reachable = BTreeSet::new();
        for task in set.tasks() {
            reachable.insert((task.id(), task.scenarios()[0].id()));
            for combo in &combos {
                if let Some(&scenario) = combo.get(&task.id()) {
                    reachable.insert((task.id(), scenario));
                }
            }
        }
        reachable
    });
    let (mut bb_ms, mut critical_ms, mut nodes) = (0.0, 0.0, 0u64);
    for task in set.tasks() {
        for scenario in task.scenarios() {
            let key = (task.id(), scenario.id());
            if reachable
                .as_ref()
                .is_some_and(|reachable| !reachable.contains(&key))
            {
                continue;
            }
            let graph = scenario.graph();
            let schedule = initial_schedule(&library, key, graph, tiles)?;
            let mut cache = SearchCache::new();
            let started = Instant::now();
            let problem =
                PrefetchProblem::new(graph, &schedule, &platform).map_err(|e| e.to_string())?;
            let (_, stats) = BranchBoundScheduler::new()
                .schedule_with_stats(&problem, &mut cache, None)
                .map_err(|e| e.to_string())?;
            bb_ms += ms(started);
            nodes += stats.nodes;
            let started = Instant::now();
            black_box(
                HybridPrefetch::compute_assisted(graph, &schedule, &platform, &mut cache)
                    .map_err(|e| e.to_string())?,
            );
            critical_ms += ms(started);
        }
    }
    samples.bb.push(bb_ms);
    samples.critical.push(critical_ms);
    samples.nodes.push(nodes as f64);

    let config = spec.config_for(workload.as_ref(), engine.default_config());
    let started = Instant::now();
    let plan = IterationPlan::new(&set, &platform, config).map_err(|e| e.to_string())?;
    samples.prepare.push(ms(started));
    let mut scratch = plan.make_scratch();
    let started = Instant::now();
    for policy in spec.resolved_policies() {
        for chunk in 0..plan.chunk_count() {
            black_box(
                plan.evaluate_chunk_with(policy, chunk, &mut scratch)
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    samples.eval.push(ms(started));

    let started = Instant::now();
    let reports = engine.run(spec.clone()).map_err(|e| e.to_string())?;
    samples.engine.push(ms(started));
    Ok(crate::reports_json(&reports))
}

/// The initial schedule `IterationPlan::new` gives a scenario under the
/// default point selection: fully parallel when it fits the platform, else
/// the fastest Pareto point that does.
fn initial_schedule(
    library: &DesignTimeLibrary,
    (task, scenario): (TaskId, ScenarioId),
    graph: &SubtaskGraph,
    tiles: usize,
) -> Result<InitialSchedule, String> {
    let parallel = InitialSchedule::fully_parallel(graph).map_err(|e| e.to_string())?;
    if parallel.slot_count() <= tiles {
        return Ok(parallel);
    }
    library
        .curve(task, scenario)
        .map_err(|e| e.to_string())?
        .fastest_within_tiles(tiles)
        .map(|point| point.schedule().clone())
        .ok_or_else(|| format!("no Pareto point of {task} {scenario} fits {tiles} tiles"))
}
