//! `perfbench` — the end-to-end benchmark of the DRHW serving stack.
//!
//! A run boots the TCP serving tier (`drhw-net`) on one shared job engine
//! (`drhw-engine`) inside this process, sends it an open-loop request
//! schedule drawn from `--seed` over loopback sockets, checks the answers
//! against an independent engine, and prints one JSON object as the last
//! line of stdout:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm|cold|sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the metrics are end to end: request latency from the
//! instant a request falls due to its result line, and the set-up time.
//! With `--trace 1` the same traffic runs, then every crate is timed on
//! requests drawn like the workload's own (see [`layers`]). `README.md`
//! beside this package describes the workloads and why they were chosen.

mod layers;
mod openloop;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drhw_engine::json::{parse, JsonValue};
use drhw_engine::serve::report_json;
use drhw_engine::{Engine, JobSpec};
use drhw_net::{Server, ServerConfig};
use drhw_prefetch::PolicyKind;
use drhw_sim::{SimulationConfig, SimulationReport};

use crate::openloop::{Clients, Outcome};
use crate::workload::{request_line, Job, Workload, FIGURE_KEYS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Engine pool workers, fixed so machines of any size run one configuration.
/// One: on a shared 2-core host, a second worker made every latency depend
/// on how much of the other core the host left free.
const ENGINE_THREADS: usize = 1;
/// Client connections, one server session each.
const CONNECTIONS: usize = 16;
/// How long answers may trail the last request's due instant before the
/// missing ones count as failed.
const DRAIN: Duration = Duration::from_secs(60);
/// Open-loop requests per run recomputed on an independent engine.
const VERIFIED_JOBS: usize = 48;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: expected an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (warm, cold or sweep)")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let jobs = args
        .workload
        .schedule(args.seed, Duration::from_secs(args.seconds));
    if jobs.is_empty() {
        return Err("the schedule drew no requests; raise --seconds".into());
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut booted = None;
    for _ in 0..SETUPS {
        if let Some(previous) = booted.take() {
            shut_down(previous);
        }
        let started = Instant::now();
        booted = Some(boot()?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let booted = booted.ok_or("no set-up ran")?;

    let before = booted.engine.cache_stats();
    let outcome = openloop::run(&booted.clients, &jobs, DRAIN)?;
    let after = booted.engine.cache_stats();

    let reference = warmed_engine()?;
    let checked = check(args.workload, &jobs, &outcome, &reference)?;
    let p50 = percentile(&checked.latencies_ms, 50.0).ok_or("no request succeeded")?;
    let p90 = percentile(&checked.latencies_ms, 90.0).ok_or("no request succeeded")?;
    eprintln!(
        "perfbench: {:?} seed {}: {} requests, {} failed, p50 {p50:.3} ms, p90 {p90:.3} ms, \
         set-up {:.3} s, {} cores available",
        args.workload,
        args.seed,
        jobs.len(),
        checked.failed,
        median(&setup_s).unwrap_or(0.0),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut correct = checked.correct;
    let metrics = if args.trace {
        let profile = layers::profile(
            args.workload.profile_specs(args.seed),
            &reference,
            booted.server.local_addr(),
            Duration::from_secs(args.seconds),
        )?;
        correct &= profile.mismatches == 0;
        let mut metrics = profile.metrics;
        metrics.extend([
            (
                "engine.cache_hits",
                (after.hits - before.hits) as f64,
                "count",
            ),
            (
                "engine.cache_misses",
                (after.misses - before.misses) as f64,
                "count",
            ),
            (
                "client.lateness_ms",
                percentile(&outcome.lateness_ms, 90.0).ok_or("no request was sent")?,
                "ms",
            ),
        ]);
        metrics
    } else {
        vec![
            ("p50_ms", p50, "ms"),
            ("p90_ms", p90, "ms"),
            ("setup_s", median(&setup_s).ok_or("no set-up ran")?, "s"),
        ]
    };
    shut_down(booted);
    Ok(result_line(
        correct,
        jobs.len() as u64,
        checked.failed,
        &metrics,
    ))
}

/// The engine configuration of every server and reference in a run.
fn build_engine() -> Engine {
    Engine::builder()
        .threads(ENGINE_THREADS)
        // Room for the preloaded figure plans and the cold plans in flight.
        .cache_capacity(64)
        .default_config(SimulationConfig::default().with_threads(1))
        .build()
}

/// An engine whose plan cache already holds the fifteen Fig. 6/7 plans, as
/// a server warms its hot set at boot.
fn warmed_engine() -> Result<Engine, String> {
    let engine = build_engine();
    for (workload, tiles) in FIGURE_KEYS {
        engine
            .run(
                JobSpec::new(workload)
                    .with_tiles(tiles)
                    .with_iterations(1)
                    .with_policies([PolicyKind::Hybrid]),
            )
            .map_err(|e| format!("preloading {workload} on {tiles} tiles: {e}"))?;
    }
    Ok(engine)
}

/// A running server with the client's connections open.
struct Booted {
    clients: Clients,
    server: Server,
    engine: Arc<Engine>,
}

/// The set-up `setup_s` times: a warmed engine, the server on it, and every
/// client connection open and answered once.
fn boot() -> Result<Booted, String> {
    let engine = Arc::new(warmed_engine()?);
    // Admission limits far above what any schedule offers: an overloaded
    // server shows up as latency, never as rejected requests.
    let config = ServerConfig {
        per_client_quota: 1 << 16,
        max_pending_jobs: 1 << 20,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), config)
        .map_err(|e| format!("starting the server: {e}"))?;
    let probe = request_line(
        0,
        &JobSpec::new("multimedia")
            .with_tiles(8)
            .with_iterations(1)
            .with_policies([PolicyKind::NoPrefetch]),
    );
    let clients = Clients::connect(server.local_addr(), CONNECTIONS, &probe)?;
    Ok(Booted {
        clients,
        server,
        engine,
    })
}

fn shut_down(booted: Booted) {
    let Booted {
        clients,
        server,
        engine,
    } = booted;
    drop(clients);
    server.handle().shutdown();
    server.join();
    drop(engine);
}

/// What the answers of one open loop showed.
struct Checked {
    /// Due instant to result line of every request answered with a result,
    /// in milliseconds.
    latencies_ms: Vec<f64>,
    /// Requests answered with anything but a result, or not at all.
    failed: u64,
    /// Whether every result checked out.
    correct: bool,
}

/// Checks every answer's shape and recomputes an evenly spaced sample on
/// `reference`: reports are bit-identical whatever the cache state or
/// worker count, so the wire answer must match byte for byte. On `sweep`
/// the figures' claim must hold too.
fn check(
    workload: Workload,
    jobs: &[Job],
    outcome: &Outcome,
    reference: &Engine,
) -> Result<Checked, String> {
    let mut checked = Checked {
        latencies_ms: Vec::with_capacity(jobs.len()),
        failed: 0,
        correct: true,
    };
    let mut reports: Vec<Option<JsonValue>> = vec![None; jobs.len()];
    for (index, (job, answer)) in jobs.iter().zip(&outcome.answers).enumerate() {
        let Some(answer) = answer else {
            checked.failed += 1;
            continue;
        };
        let line = answer.line.trim_end();
        let value =
            parse(line).map_err(|e| format!("request {}: unparsable answer: {e}", index + 1))?;
        if value.get("type").and_then(JsonValue::as_str) != Some("result") {
            eprintln!("perfbench: request {} failed: {line}", index + 1);
            checked.failed += 1;
            continue;
        }
        checked.latencies_ms.push(
            answer
                .at
                .saturating_duration_since(outcome.start + job.due)
                .as_secs_f64()
                * 1e3,
        );
        let got = value.get("reports").cloned().unwrap_or(JsonValue::Null);
        let answered: Vec<&str> = got
            .as_array()
            .unwrap_or_default()
            .iter()
            .filter_map(|report| report.get("policy").and_then(JsonValue::as_str))
            .collect();
        let asked: Vec<String> = job
            .spec
            .resolved_policies()
            .iter()
            .map(ToString::to_string)
            .collect();
        if answered != asked {
            eprintln!(
                "perfbench: request {} answered policies {answered:?}, asked {asked:?}",
                index + 1
            );
            checked.correct = false;
        }
        reports[index] = Some(got);
    }
    let step = (jobs.len() / VERIFIED_JOBS).max(1);
    for index in (0..jobs.len()).step_by(step) {
        let Some(got) = &reports[index] else {
            continue;
        };
        let expected = reference
            .run(jobs[index].spec.clone())
            .map_err(|e| format!("reference for request {}: {e}", index + 1))?;
        if got.to_json() != reports_json(&expected) {
            eprintln!(
                "perfbench: request {} differs from the reference engine",
                index + 1
            );
            checked.correct = false;
        }
    }
    if workload == Workload::Sweep && !figure_claim_holds(jobs, &reports) {
        eprintln!("perfbench: hybrid left more overhead than run-time at a figure point");
        checked.correct = false;
    }
    Ok(checked)
}

/// Figures 6 and 7's claim on the answered sweeps: at every figure point,
/// summed over the run's sweeps, the hybrid heuristic leaves no more
/// reconfiguration overhead than the run-time heuristic.
fn figure_claim_holds(jobs: &[Job], reports: &[Option<JsonValue>]) -> bool {
    let mut sums: BTreeMap<(&str, Option<usize>), (f64, f64)> = BTreeMap::new();
    for (job, got) in jobs.iter().zip(reports) {
        let Some(got) = got else {
            continue;
        };
        let overhead = |policy: &str| {
            got.as_array()?
                .iter()
                .find(|report| report.get("policy").and_then(JsonValue::as_str) == Some(policy))?
                .get("overhead_percent")?
                .as_f64()
        };
        let (Some(run_time), Some(hybrid)) = (overhead("run-time"), overhead("hybrid")) else {
            return false;
        };
        let sum = sums
            .entry((job.spec.workload.as_str(), job.spec.tiles))
            .or_default();
        sum.0 += run_time;
        sum.1 += hybrid;
    }
    !sums.is_empty() && sums.values().all(|&(run_time, hybrid)| hybrid <= run_time)
}

/// The wire form of a job's reports, as the server renders them.
fn reports_json(reports: &[SimulationReport]) -> String {
    JsonValue::Array(reports.iter().map(report_json).collect()).to_json()
}

/// The nearest-rank `p`-th percentile of `samples`; `None` when empty.
fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The object the benchmark prints as its last line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                JsonValue::Object(vec![
                    ("value".to_string(), JsonValue::Float(value)),
                    ("unit".to_string(), JsonValue::String(unit.to_string())),
                ]),
            )
        })
        .collect();
    JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        ("attempted".to_string(), JsonValue::UInt(attempted)),
        ("failed".to_string(), JsonValue::UInt(failed)),
        ("metrics".to_string(), JsonValue::Object(metrics)),
    ])
    .to_json()
}
