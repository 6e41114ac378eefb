//! `loadgen` — the serving-tier load generator.
//!
//! Boots an in-process `drhw-net` server (or targets an external one via
//! `LOADGEN_ADDR`) and drives it over real sockets in one of two modes:
//!
//! * **closed loop** (default): a swarm of concurrent synthetic clients,
//!   each submitting its jobs back to back — the swarm self-throttles to
//!   the server's pace;
//! * **open loop** (`loadgen --open-loop <rate>`): jobs arrive on a Poisson
//!   schedule at `<rate>` per second regardless of how fast the server
//!   drains, reporting offered versus achieved rate and drop/retry counts
//!   per admission-rejection scope (`client`/`server`/`connection`).
//!
//! Both modes print p50/p99/p999 per-job latency from the shared
//! log-bucketed histogram.
//!
//! Environment knobs:
//!
//! * `LOADGEN_CLIENTS` — concurrent clients (closed loop, default 1000)
//! * `LOADGEN_JOBS` — jobs per client (closed loop, default 2); total
//!   arrivals in open-loop mode (default 200)
//! * `LOADGEN_SEED` — arrival-schedule seed (open loop, default 2005)
//! * `LOADGEN_ADDR` — target an already-running server instead of booting one
//! * `LOADGEN_SPEC` — job line template (JSON object, no `id` field)
//! * `LOADGEN_THREADS` — engine worker threads of the in-process server
//! * `LOADGEN_SUMMARY_PATH` — also write the JSON summary to this file
//!
//! The last stdout line is the machine-readable summary
//! (`{"type":"loadgen",…}` or `{"type":"loadgen_open_loop",…}`), which CI
//! uploads as an artifact. Exit status: 0 when no job was lost to an error
//! (open-loop drops are backpressure, reported but not fatal), 1 otherwise,
//! 2 on a configuration error.

use std::sync::Arc;
use std::time::Instant;

use drhw_bench::cli::env_usize;
use drhw_bench::serving::{run_open_loop, run_swarm, OpenLoopConfig, SwarmConfig};
use drhw_net::{Server, ServerConfig};

fn fail_config(message: &str) -> ! {
    eprintln!("loadgen: {message}");
    std::process::exit(2);
}

/// Parses `--open-loop <rate>` out of the argument list; any other
/// argument is a configuration error.
fn open_loop_rate() -> Option<f64> {
    let mut args = std::env::args().skip(1);
    let mut rate = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--open-loop" => match args.next().and_then(|raw| raw.trim().parse::<f64>().ok()) {
                Some(r) if r > 0.0 && r.is_finite() => rate = Some(r),
                _ => fail_config("--open-loop requires a positive rate (jobs per second)"),
            },
            other => fail_config(&format!("unknown argument {other:?}")),
        }
    }
    rate
}

/// Boots an in-process server sized for `connections`/`pending` unless
/// `LOADGEN_ADDR` points at an external one. Pre-warms the plan cache with
/// the job spec so the measured window is pure serving, not one-off design
/// time. Returns the target address and the local server, if any.
fn target_server(spec_json: &str, connections: usize, pending: usize) -> (String, Option<Server>) {
    if let Ok(addr) = std::env::var("LOADGEN_ADDR") {
        return (addr, None);
    }
    let threads = env_usize("LOADGEN_THREADS", 0).unwrap_or_else(|m| fail_config(&m));
    let mut builder = drhw_engine::Engine::builder();
    if threads > 0 {
        builder = builder.threads(threads);
    }
    let engine = Arc::new(builder.build());
    match drhw_engine::Request::parse(spec_json) {
        Ok(request) => {
            if let Err(e) = engine.run(request.spec) {
                fail_config(&format!("spec does not run: {e}"));
            }
        }
        Err(e) => fail_config(&format!("LOADGEN_SPEC does not parse: {e}")),
    }
    let server_config = ServerConfig {
        max_connections: connections + 64,
        max_pending_jobs: pending.max(2048),
        ..ServerConfig::default()
    };
    let server = match Server::start(engine, server_config) {
        Ok(server) => server,
        Err(e) => fail_config(&format!("cannot start in-process server: {e}")),
    };
    (server.local_addr().to_string(), Some(server))
}

fn shutdown_server(local_server: Option<Server>) {
    if let Some(server) = local_server {
        server.handle().shutdown();
        let stats = server.join();
        println!(
            "loadgen: server drained — {} session(s), {} completed, {} failed, {} rejected",
            stats.connections_served, stats.jobs_completed, stats.jobs_failed, stats.jobs_rejected
        );
    }
}

fn write_summary(summary: &str, summary_path: Option<String>) {
    if let Some(path) = summary_path {
        if let Err(e) = std::fs::write(&path, format!("{summary}\n")) {
            eprintln!("loadgen: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    println!("{summary}");
}

fn run_open_loop_mode(rate: f64) {
    let jobs = env_usize("LOADGEN_JOBS", 200).unwrap_or_else(|m| fail_config(&m));
    let seed = env_usize("LOADGEN_SEED", 2005).unwrap_or_else(|m| fail_config(&m)) as u64;
    let summary_path = std::env::var("LOADGEN_SUMMARY_PATH").ok();

    let mut config = OpenLoopConfig {
        rate_per_sec: rate,
        jobs,
        seed,
        ..OpenLoopConfig::default()
    };
    if let Ok(spec) = std::env::var("LOADGEN_SPEC") {
        config.spec_json = spec;
    }
    let (addr, local_server) = target_server(&config.spec_json, jobs, jobs);
    config.addr = addr;

    println!(
        "loadgen: open loop — {jobs} arrival(s) at {rate:.1}/s against {}{}",
        config.addr,
        if local_server.is_some() {
            " (in-process server)"
        } else {
            ""
        }
    );
    let outcome = match run_open_loop(&config) {
        Ok(outcome) => outcome,
        Err(message) => fail_config(&message),
    };
    println!(
        "loadgen: offered {:.1}/s, achieved {:.1}/s — {} completed, {} dropped, {} errored",
        outcome.offered_per_sec(),
        outcome.achieved_per_sec(),
        outcome.jobs_completed,
        outcome.jobs_dropped,
        outcome.jobs_errored,
    );
    println!(
        "loadgen: retries client/server/connection {}/{}/{}, drops {}/{}/{}; latency p50 {:.2} ms, \
         p99 {:.2} ms, p999 {:.2} ms",
        outcome.retries.client,
        outcome.retries.server,
        outcome.retries.connection,
        outcome.drops.client,
        outcome.drops.server,
        outcome.drops.connection,
        outcome.p50_ms(),
        outcome.p99_ms(),
        outcome.p999_ms(),
    );
    shutdown_server(local_server);
    write_summary(&outcome.summary_json(&config).to_json(), summary_path);

    if outcome.jobs_errored > 0 {
        eprintln!(
            "loadgen FAILED: {} job(s) lost to errors (drops via admission control: {})",
            outcome.jobs_errored, outcome.jobs_dropped
        );
        std::process::exit(1);
    }
}

fn main() {
    if let Some(rate) = open_loop_rate() {
        run_open_loop_mode(rate);
        return;
    }
    let clients = env_usize("LOADGEN_CLIENTS", 1000).unwrap_or_else(|m| fail_config(&m));
    let jobs = env_usize("LOADGEN_JOBS", 2).unwrap_or_else(|m| fail_config(&m));
    let summary_path = std::env::var("LOADGEN_SUMMARY_PATH").ok();

    let mut config = SwarmConfig {
        clients,
        jobs_per_client: jobs,
        ..SwarmConfig::default()
    };
    if let Ok(spec) = std::env::var("LOADGEN_SPEC") {
        config.spec_json = spec;
    }
    let (addr, local_server) = target_server(&config.spec_json, clients, clients * jobs);
    config.addr = addr;

    println!(
        "loadgen: {clients} client(s) x {jobs} job(s) against {}{}",
        config.addr,
        if local_server.is_some() {
            " (in-process server)"
        } else {
            ""
        }
    );
    let started = Instant::now();
    let outcome = match run_swarm(&config) {
        Ok(outcome) => outcome,
        Err(message) => fail_config(&message),
    };
    println!(
        "loadgen: {}/{} clients connected, {} job(s) completed, {} errored, {} rejection(s) \
         observed in {:.1} s",
        outcome.clients_connected,
        clients,
        outcome.jobs_completed,
        outcome.jobs_errored,
        outcome.rejections_seen,
        started.elapsed().as_secs_f64()
    );
    println!(
        "loadgen: {:.1} jobs/s, latency p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms \
         ({:.0} % client-slot utilization)",
        outcome.jobs_per_sec(),
        outcome.p50_ms(),
        outcome.p99_ms(),
        outcome.p999_ms(),
        outcome.utilization() * 100.0
    );
    shutdown_server(local_server);
    write_summary(&outcome.summary_json(&config).to_json(), summary_path);

    let expected = (clients * jobs) as u64;
    if outcome.clients_failed > 0 || outcome.jobs_completed != expected {
        eprintln!(
            "loadgen FAILED: expected {expected} completed job(s) from {clients} client(s), got {} \
             (with {} failed client(s))",
            outcome.jobs_completed, outcome.clients_failed
        );
        std::process::exit(1);
    }
}
