//! The client swarm behind the `loadgen` binary and the serving metrics of
//! the perf gate: hammers a running `drhw-net` server with many concurrent
//! synthetic clients over real sockets, recording per-job latency.
//!
//! Every client is one OS thread with a small stack: connect, then submit
//! `jobs_per_client` jobs back to back, timing each from the moment its
//! request line hits the socket to the moment its terminal line (`result`,
//! `error` or final `rejected`) is read back. A `rejected` line — the
//! server's admission control pushing back — is retried after a short
//! backoff and counted, so the swarm observes backpressure instead of
//! failing on it.
//!
//! All clients arm at a [`Barrier`] and fire together at a second one,
//! released only after the clock starts; the measured window runs from
//! there to the last job's terminal line, which makes `jobs_per_sec` an
//! end-to-end number including queueing and engine contention, and keeps
//! every recorded latency inside the window.
//!
//! Besides the closed-loop swarm there is an **open-loop** mode
//! ([`run_open_loop`]): jobs are dispatched on a Poisson schedule at a fixed
//! offered rate regardless of how fast the server answers, which is what
//! exposes queueing collapse — a closed loop self-throttles, an open loop
//! does not. The open loop reports offered versus achieved rate and
//! drop/retry counts per admission-rejection scope (`client`, `server`,
//! `connection`).
//!
//! Both modes aggregate latencies into the shared log-bucketed
//! [`Histogram`] from `drhw-traffic`, so p50/p99/p999 here carry the same
//! ≤ 3.125 % one-sided error contract as the traffic subsystem's virtual
//! latencies.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use drhw_engine::json::{parse, JsonValue};
use drhw_traffic::{Histogram, SplitMix64};

use crate::report::object;

/// How one swarm run is shaped.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent clients (one OS thread + one socket each).
    pub clients: usize,
    /// Jobs each client submits sequentially.
    pub jobs_per_client: usize,
    /// The job line template (a JSON object, no `id` field; the swarm
    /// puts a unique `id` in front of its fields per job).
    pub spec_json: String,
}

/// How long a client waits for a response line before giving up on the job
/// (counted as an error).
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// Connect attempts per swarm client before it counts as failed — under
/// thousands of simultaneous connects the listener backlog overflows
/// transiently and a retry is expected, not an error.
const SWARM_CONNECT_ATTEMPTS: usize = 200;

/// Submissions attempted per swarm job before a persistently `rejected` job
/// counts as an error.
const SWARM_SUBMIT_ATTEMPTS: usize = 50;

/// Connect attempts per open-loop submission before the job counts as an
/// error.
const OPEN_LOOP_CONNECT_ATTEMPTS: usize = 20;

/// Submissions attempted per open-loop job before a persistently rejected
/// job counts as **dropped** (not errored — the server refused it).
const OPEN_LOOP_SUBMIT_ATTEMPTS: usize = 8;

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            addr: String::new(),
            clients: 1000,
            jobs_per_client: 2,
            spec_json:
                r#"{"workload":"multimedia","tiles":4,"iterations":2,"policies":["no-prefetch"]}"#
                    .to_string(),
        }
    }
}

/// What the swarm observed, aggregated across all clients.
#[derive(Debug, Clone, Default)]
pub struct SwarmOutcome {
    /// Clients that connected and ran their jobs.
    pub clients_connected: usize,
    /// Clients that never got a connection.
    pub clients_failed: usize,
    /// Jobs answered with a `result` line.
    pub jobs_completed: u64,
    /// Jobs answered with an `error` line, or that timed out / lost their
    /// connection / stayed rejected past the retry budget.
    pub jobs_errored: u64,
    /// `rejected` lines observed (each one a retried submission) — the
    /// count of backpressure events, not of lost jobs.
    pub rejections_seen: u64,
    /// The measured window: barrier release to last terminal line, in
    /// milliseconds.
    pub elapsed_ms: f64,
    /// Log-bucketed per-completed-job latency histogram (milliseconds in,
    /// microsecond buckets).
    pub latency: Histogram,
}

impl SwarmOutcome {
    /// End-to-end completed-job throughput over the measured window.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_ms > 0.0 {
            self.jobs_completed as f64 / (self.elapsed_ms / 1e3)
        } else {
            0.0
        }
    }

    /// Median per-job latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.latency.p50_ms()
    }

    /// Tail per-job latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.latency.p99_ms()
    }

    /// Extreme-tail (99.9th percentile) per-job latency in milliseconds.
    pub fn p999_ms(&self) -> f64 {
        self.latency.p999_ms()
    }

    /// Busy fraction of the swarm's client slots over the measured window:
    /// total in-flight job time divided by `elapsed × clients`. A client
    /// sitting in connect retries or backoff counts as idle.
    pub fn utilization(&self) -> f64 {
        let clients = self.clients_connected + self.clients_failed;
        if self.elapsed_ms > 0.0 && clients > 0 {
            self.latency.mean_ms() * self.latency.count() as f64
                / (self.elapsed_ms * clients as f64)
        } else {
            0.0
        }
    }

    /// The `{"type":"loadgen",…}` summary line `loadgen` prints last: the
    /// swarm's shape from `config`, then what the swarm observed.
    pub fn summary_json(&self, config: &SwarmConfig) -> JsonValue {
        use JsonValue::{Float, UInt};
        object([
            ("type", JsonValue::String("loadgen".into())),
            ("clients", UInt(config.clients as u64)),
            ("jobs_per_client", UInt(config.jobs_per_client as u64)),
            ("clients_connected", UInt(self.clients_connected as u64)),
            ("clients_failed", UInt(self.clients_failed as u64)),
            ("jobs_completed", UInt(self.jobs_completed)),
            ("jobs_errored", UInt(self.jobs_errored)),
            ("rejections_seen", UInt(self.rejections_seen)),
            ("elapsed_ms", Float(self.elapsed_ms)),
            ("jobs_per_sec", Float(self.jobs_per_sec())),
            ("p50_ms", Float(self.p50_ms())),
            ("p99_ms", Float(self.p99_ms())),
            ("p999_ms", Float(self.p999_ms())),
            ("utilization", Float(self.utilization())),
        ])
    }
}

#[derive(Default)]
struct ClientReport {
    connected: bool,
    completed: u64,
    errored: u64,
    rejections: u64,
    latency: Histogram,
}

/// Which admission bound a `rejected` line named — mirrors the wire
/// protocol's `scope` field (`drhw-net`'s `RejectScope`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeenScope {
    Client,
    Server,
    Connection,
}

impl SeenScope {
    fn of(value: &JsonValue) -> SeenScope {
        match value.get("scope").and_then(JsonValue::as_str) {
            Some("server") => SeenScope::Server,
            Some("connection") => SeenScope::Connection,
            // The per-client quota is the oldest scope and the wire default.
            _ => SeenScope::Client,
        }
    }
}

/// Rejection counters broken down by admission scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeCounts {
    /// `scope:"client"` — the per-client in-flight quota pushed back.
    pub client: u64,
    /// `scope:"server"` — the global pending-job valve pushed back.
    pub server: u64,
    /// `scope:"connection"` — the connection itself was refused.
    pub connection: u64,
}

impl ScopeCounts {
    fn bump(&mut self, scope: SeenScope) {
        match scope {
            SeenScope::Client => self.client += 1,
            SeenScope::Server => self.server += 1,
            SeenScope::Connection => self.connection += 1,
        }
    }

    /// Total rejections across every scope.
    pub fn total(&self) -> u64 {
        self.client + self.server + self.connection
    }
}

enum JobOutcome {
    Completed,
    Rejected(SeenScope),
    Errored,
}

/// Checks a job-line template: a JSON object with at least one field and
/// no `id`, which the load generator assigns per job. Returns its fields.
fn job_template(spec_json: &str) -> Result<Vec<(String, JsonValue)>, String> {
    match parse(spec_json).map_err(|e| format!("spec_json does not parse: {e}"))? {
        JsonValue::Object(fields) if fields.iter().any(|(key, _)| key == "id") => {
            Err("spec_json must not carry an id (the load generator assigns them)".into())
        }
        JsonValue::Object(fields) if !fields.is_empty() => Ok(fields),
        _ => Err("spec_json must be a JSON object with fields".into()),
    }
}

/// The request line of job `id`: `"id"` first, then the template's fields.
/// [`run_swarm`] and [`run_open_loop`] check the template with
/// [`job_template`] before any job is sent.
fn job_line(spec_json: &str, id: u64) -> String {
    let fields = job_template(spec_json).expect("the template is checked before the run");
    let line = std::iter::once(("id".to_string(), JsonValue::UInt(id))).chain(fields);
    format!("{}\n", JsonValue::Object(line.collect()).to_json())
}

fn submit_once(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
    id: u64,
) -> JobOutcome {
    if stream.write_all(line.as_bytes()).is_err() {
        return JobOutcome::Errored;
    }
    let mut response = String::new();
    loop {
        response.clear();
        match reader.read_line(&mut response) {
            Ok(0) | Err(_) => return JobOutcome::Errored,
            Ok(_) => {}
        }
        let Ok(value) = parse(response.trim_end()) else {
            return JobOutcome::Errored;
        };
        // Responses to other jobs cannot appear (submission is sequential
        // per client), but progress lines for this id could if the spec
        // asked for them; skip anything non-terminal.
        if value.get("id").and_then(JsonValue::as_u64) != Some(id) {
            continue;
        }
        match value.get("type").and_then(JsonValue::as_str) {
            Some("result") => return JobOutcome::Completed,
            Some("rejected") => return JobOutcome::Rejected(SeenScope::of(&value)),
            Some("error") => return JobOutcome::Errored,
            _ => continue,
        }
    }
}

fn run_client(config: &SwarmConfig, index: usize, armed: &Barrier, fire: &Barrier) -> ClientReport {
    let mut report = ClientReport::default();
    let mut stream = None;
    for attempt in 0..SWARM_CONNECT_ATTEMPTS {
        match TcpStream::connect(&config.addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => thread::sleep(Duration::from_millis(5 + (attempt as u64 % 16))),
        }
    }
    // Every client passes both barriers exactly once, connected or not, so
    // the swarm cannot deadlock on failed connects.
    armed.wait();
    fire.wait();
    let Some(mut stream) = stream else {
        report.errored = config.jobs_per_client as u64;
        return report;
    };
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        report.errored = config.jobs_per_client as u64;
        return report;
    }
    let Ok(clone) = stream.try_clone() else {
        report.errored = config.jobs_per_client as u64;
        return report;
    };
    let mut reader = BufReader::new(clone);
    report.connected = true;
    for job in 0..config.jobs_per_client {
        let id = (index as u64) * 1_000_000 + job as u64 + 1;
        let line = job_line(&config.spec_json, id);
        let started = Instant::now();
        let mut outcome = JobOutcome::Errored;
        for attempt in 0..SWARM_SUBMIT_ATTEMPTS {
            outcome = submit_once(&mut stream, &mut reader, &line, id);
            match outcome {
                JobOutcome::Rejected(_) => {
                    report.rejections += 1;
                    thread::sleep(Duration::from_millis(2 << (attempt as u64).min(5)));
                }
                _ => break,
            }
        }
        match outcome {
            JobOutcome::Completed => {
                report.completed += 1;
                report
                    .latency
                    .record_ms_f64(started.elapsed().as_secs_f64() * 1e3);
            }
            _ => report.errored += 1,
        }
    }
    report
}

/// Runs one swarm against a live server and aggregates what every client
/// saw.
///
/// # Errors
///
/// Returns a message when the config is unusable (no address, zero
/// clients/jobs, or a spec template that is not a JSON object with at least
/// one field). Server-side trouble is not an error: it surfaces in the
/// outcome's `jobs_errored` / `clients_failed` counters.
pub fn run_swarm(config: &SwarmConfig) -> Result<SwarmOutcome, String> {
    if config.addr.is_empty() {
        return Err("swarm config: addr must name a running server".into());
    }
    if config.clients == 0 || config.jobs_per_client == 0 {
        return Err("swarm config: clients and jobs_per_client must be positive".into());
    }
    job_template(&config.spec_json).map_err(|e| format!("swarm config: {e}"))?;

    let armed = Arc::new(Barrier::new(config.clients + 1));
    let fire = Arc::new(Barrier::new(config.clients + 1));
    let reports: Arc<Mutex<Vec<ClientReport>>> =
        Arc::new(Mutex::new(Vec::with_capacity(config.clients)));
    let mut handles = Vec::with_capacity(config.clients);
    for index in 0..config.clients {
        let config = config.clone();
        let (armed, fire) = (Arc::clone(&armed), Arc::clone(&fire));
        let reports = Arc::clone(&reports);
        let handle = thread::Builder::new()
            .name(format!("loadgen-{index}"))
            .stack_size(96 * 1024)
            .spawn(move || {
                let report = run_client(&config, index, &armed, &fire);
                reports.lock().unwrap().push(report);
            })
            .map_err(|e| format!("cannot spawn client thread {index}: {e}"))?;
        handles.push(handle);
    }
    armed.wait();
    // The clock starts before any client may send, so no job can begin
    // before the window does.
    let started = Instant::now();
    fire.wait();
    for handle in handles {
        let _ = handle.join();
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut outcome = SwarmOutcome {
        elapsed_ms,
        ..SwarmOutcome::default()
    };
    for report in reports.lock().unwrap().iter() {
        if report.connected {
            outcome.clients_connected += 1;
        } else {
            outcome.clients_failed += 1;
        }
        outcome.jobs_completed += report.completed;
        outcome.jobs_errored += report.errored;
        outcome.rejections_seen += report.rejections;
        outcome.latency.merge(&report.latency);
    }
    Ok(outcome)
}

/// How one open-loop run is shaped: `jobs` arrivals on a Poisson schedule
/// at `rate_per_sec`, each submitted over its own socket the moment it
/// arrives — never waiting for earlier jobs.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Offered arrival rate, in jobs per second.
    pub rate_per_sec: f64,
    /// Total arrivals to dispatch.
    pub jobs: usize,
    /// Seed of the Poisson arrival schedule (SplitMix64-derived, so the
    /// schedule itself is reproducible; wall-clock service is not).
    pub seed: u64,
    /// The job line template (a JSON object, no `id` field).
    pub spec_json: String,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            addr: String::new(),
            rate_per_sec: 50.0,
            jobs: 200,
            seed: 2005,
            spec_json: SwarmConfig::default().spec_json,
        }
    }
}

/// What an open-loop run observed.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopOutcome {
    /// Arrivals dispatched (always the configured `jobs`).
    pub jobs_offered: u64,
    /// Jobs answered with a `result` line.
    pub jobs_completed: u64,
    /// Jobs lost to I/O errors, timeouts or `error` lines.
    pub jobs_errored: u64,
    /// Jobs the server kept rejecting past the retry budget.
    pub jobs_dropped: u64,
    /// Rejections that were retried, per admission scope.
    pub retries: ScopeCounts,
    /// Final rejections that dropped the job, per admission scope.
    pub drops: ScopeCounts,
    /// The planned schedule span: first to last arrival, in milliseconds.
    pub planned_ms: f64,
    /// Wall clock from the first arrival to the last terminal line.
    pub elapsed_ms: f64,
    /// Per-completed-job latency histogram, measured from each job's
    /// *scheduled* arrival — dispatcher lateness and queueing count.
    pub latency: Histogram,
}

impl OpenLoopOutcome {
    /// The offered arrival rate actually realised by the schedule.
    pub fn offered_per_sec(&self) -> f64 {
        if self.planned_ms > 0.0 {
            self.jobs_offered as f64 / (self.planned_ms / 1e3)
        } else {
            0.0
        }
    }

    /// Completed-job throughput over the full run window.
    pub fn achieved_per_sec(&self) -> f64 {
        if self.elapsed_ms > 0.0 {
            self.jobs_completed as f64 / (self.elapsed_ms / 1e3)
        } else {
            0.0
        }
    }

    /// Median sojourn (arrival to result) in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.latency.p50_ms()
    }

    /// Tail sojourn in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.latency.p99_ms()
    }

    /// Extreme-tail (99.9th percentile) sojourn in milliseconds.
    pub fn p999_ms(&self) -> f64 {
        self.latency.p999_ms()
    }

    /// The `{"type":"loadgen_open_loop",…}` summary line `loadgen
    /// --open-loop` prints last: the run's shape from `config`, then what
    /// it observed, with retries and drops per admission scope.
    pub fn summary_json(&self, config: &OpenLoopConfig) -> JsonValue {
        use JsonValue::{Float, UInt};
        let scopes = |counts: ScopeCounts| {
            object([
                ("client", UInt(counts.client)),
                ("server", UInt(counts.server)),
                ("connection", UInt(counts.connection)),
            ])
        };
        object([
            ("type", JsonValue::String("loadgen_open_loop".into())),
            ("rate_per_sec", Float(config.rate_per_sec)),
            ("jobs", UInt(config.jobs as u64)),
            ("seed", UInt(config.seed)),
            ("jobs_offered", UInt(self.jobs_offered)),
            ("jobs_completed", UInt(self.jobs_completed)),
            ("jobs_errored", UInt(self.jobs_errored)),
            ("jobs_dropped", UInt(self.jobs_dropped)),
            ("retries", scopes(self.retries)),
            ("drops", scopes(self.drops)),
            ("planned_ms", Float(self.planned_ms)),
            ("elapsed_ms", Float(self.elapsed_ms)),
            ("offered_per_sec", Float(self.offered_per_sec())),
            ("achieved_per_sec", Float(self.achieved_per_sec())),
            ("p50_ms", Float(self.p50_ms())),
            ("p99_ms", Float(self.p99_ms())),
            ("p999_ms", Float(self.p999_ms())),
        ])
    }
}

enum OpenJobResult {
    Completed(f64),
    Dropped(SeenScope),
    Errored,
}

struct OpenJobReport {
    result: OpenJobResult,
    retries: ScopeCounts,
}

/// Runs one job over a fresh connection per attempt: connect, submit, read
/// the terminal line. Rejections back off and retry on a new socket (the
/// server closes refused connections); exhaustion drops the job with its
/// last-seen scope. The returned latency is measured from `scheduled`.
fn run_open_job(config: &OpenLoopConfig, id: u64, scheduled: Instant) -> OpenJobReport {
    let line = job_line(&config.spec_json, id);
    let mut retries = ScopeCounts::default();
    let mut last_scope = SeenScope::Server;
    for attempt in 0..OPEN_LOOP_SUBMIT_ATTEMPTS {
        let mut stream = None;
        for connect_try in 0..OPEN_LOOP_CONNECT_ATTEMPTS {
            match TcpStream::connect(&config.addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => thread::sleep(Duration::from_millis(2 + (connect_try as u64 % 8))),
            }
        }
        let Some(mut stream) = stream else {
            return OpenJobReport {
                result: OpenJobResult::Errored,
                retries,
            };
        };
        if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
            return OpenJobReport {
                result: OpenJobResult::Errored,
                retries,
            };
        }
        let Ok(clone) = stream.try_clone() else {
            return OpenJobReport {
                result: OpenJobResult::Errored,
                retries,
            };
        };
        let mut reader = BufReader::new(clone);
        match submit_once(&mut stream, &mut reader, &line, id) {
            JobOutcome::Completed => {
                return OpenJobReport {
                    result: OpenJobResult::Completed(scheduled.elapsed().as_secs_f64() * 1e3),
                    retries,
                };
            }
            JobOutcome::Rejected(scope) => {
                last_scope = scope;
                if attempt + 1 < OPEN_LOOP_SUBMIT_ATTEMPTS {
                    retries.bump(scope);
                    thread::sleep(Duration::from_millis(2 << (attempt as u64).min(5)));
                }
            }
            JobOutcome::Errored => {
                return OpenJobReport {
                    result: OpenJobResult::Errored,
                    retries,
                };
            }
        }
    }
    OpenJobReport {
        result: OpenJobResult::Dropped(last_scope),
        retries,
    }
}

/// Runs one open-loop session against a live server: draws the Poisson
/// arrival schedule up front, then dispatches each job at its scheduled
/// instant on its own thread — the dispatcher never waits for in-flight
/// jobs, so the offered rate holds no matter how slowly the server drains.
///
/// # Errors
///
/// Returns a message when the config is unusable (no address, zero jobs,
/// non-positive rate, or a bad spec template). Server-side trouble surfaces
/// in the outcome's error/drop counters, never as an `Err`.
pub fn run_open_loop(config: &OpenLoopConfig) -> Result<OpenLoopOutcome, String> {
    if config.addr.is_empty() {
        return Err("open-loop config: addr must name a running server".into());
    }
    if config.jobs == 0 {
        return Err("open-loop config: jobs must be positive".into());
    }
    if !(config.rate_per_sec > 0.0 && config.rate_per_sec.is_finite()) {
        return Err("open-loop config: rate_per_sec must be positive and finite".into());
    }
    job_template(&config.spec_json).map_err(|e| format!("open-loop config: {e}"))?;

    // The whole schedule is drawn up front: absolute offsets from the run
    // start, first arrival at t=0 so `planned_ms` spans exactly the gaps.
    let mut rng = SplitMix64::new(config.seed);
    let mut offsets_us = Vec::with_capacity(config.jobs);
    let mut clock_us = 0u64;
    for job in 0..config.jobs {
        if job > 0 {
            clock_us = clock_us.saturating_add(rng.next_exp_gap_us(config.rate_per_sec));
        }
        offsets_us.push(clock_us);
    }
    let planned_ms = clock_us as f64 / 1e3;

    let reports: Arc<Mutex<Vec<OpenJobReport>>> =
        Arc::new(Mutex::new(Vec::with_capacity(config.jobs)));
    let mut handles = Vec::with_capacity(config.jobs);
    let started = Instant::now();
    for (job, &offset_us) in offsets_us.iter().enumerate() {
        let target = started + Duration::from_micros(offset_us);
        let now = Instant::now();
        if target > now {
            thread::sleep(target - now);
        }
        let config = config.clone();
        let reports = Arc::clone(&reports);
        let handle = thread::Builder::new()
            .name(format!("openloop-{job}"))
            .stack_size(96 * 1024)
            .spawn(move || {
                let report = run_open_job(&config, job as u64 + 1, target);
                reports.lock().unwrap().push(report);
            })
            .map_err(|e| format!("cannot spawn open-loop job thread {job}: {e}"))?;
        handles.push(handle);
    }
    for handle in handles {
        let _ = handle.join();
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut outcome = OpenLoopOutcome {
        jobs_offered: config.jobs as u64,
        planned_ms,
        elapsed_ms,
        ..OpenLoopOutcome::default()
    };
    for report in reports.lock().unwrap().iter() {
        outcome.retries.client += report.retries.client;
        outcome.retries.server += report.retries.server;
        outcome.retries.connection += report.retries.connection;
        match report.result {
            OpenJobResult::Completed(latency_ms) => {
                outcome.jobs_completed += 1;
                outcome.latency.record_ms_f64(latency_ms);
            }
            OpenJobResult::Dropped(scope) => {
                outcome.jobs_dropped += 1;
                outcome.drops.bump(scope);
            }
            OpenJobResult::Errored => outcome.jobs_errored += 1,
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lines_splice_the_id_into_the_template() {
        let line = job_line(r#"{"workload":"multimedia","tiles":4}"#, 42);
        assert_eq!(
            line,
            "{\"id\":42,\"workload\":\"multimedia\",\"tiles\":4}\n"
        );
        let value = parse(line.trim_end()).expect("spliced line is valid JSON");
        assert_eq!(value.get("id").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn a_multi_line_template_still_sends_one_line() {
        let template = r#"{
            "workload": "multimedia",
            "tiles": 4
        }"#;
        assert_eq!(
            job_line(template, 7),
            r#"{"id":7,"workload":"multimedia","tiles":4}"#.to_string() + "\n"
        );
    }

    #[test]
    fn percentiles_come_from_the_shared_histogram() {
        let mut outcome = SwarmOutcome {
            jobs_completed: 5,
            clients_connected: 1,
            elapsed_ms: 1000.0,
            ..SwarmOutcome::default()
        };
        for ms in [5.0, 1.0, 3.0, 2.0, 4.0] {
            outcome.latency.record_ms_f64(ms);
        }
        // Within the histogram's ≤ 3.125 % one-sided bucket error.
        let p50 = outcome.p50_ms();
        assert!((3.0..=3.0 * 1.03125).contains(&p50), "p50 {p50}");
        let p99 = outcome.p99_ms();
        assert!((5.0..=5.0 * 1.03125).contains(&p99), "p99 {p99}");
        assert!(outcome.p999_ms() >= p99);
        assert!((outcome.jobs_per_sec() - 5.0).abs() < 1e-9);
        // 15 ms of in-flight time in a 1000 ms window on one client.
        assert!((outcome.utilization() - 0.015).abs() < 1e-9);
        assert_eq!(SwarmOutcome::default().p50_ms(), 0.0);
        assert_eq!(SwarmOutcome::default().utilization(), 0.0);
    }

    #[test]
    fn scope_counts_bump_and_total() {
        let mut counts = ScopeCounts::default();
        counts.bump(SeenScope::Client);
        counts.bump(SeenScope::Server);
        counts.bump(SeenScope::Server);
        counts.bump(SeenScope::Connection);
        assert_eq!(counts.client, 1);
        assert_eq!(counts.server, 2);
        assert_eq!(counts.connection, 1);
        assert_eq!(counts.total(), 4);
        let line = parse(r#"{"type":"rejected","scope":"server"}"#).unwrap();
        assert_eq!(SeenScope::of(&line), SeenScope::Server);
        let legacy = parse(r#"{"type":"rejected"}"#).unwrap();
        assert_eq!(SeenScope::of(&legacy), SeenScope::Client);
    }

    #[test]
    fn open_loop_config_validation_rejects_unusable_runs() {
        let mut config = OpenLoopConfig::default();
        assert!(run_open_loop(&config).unwrap_err().contains("addr"));
        config.addr = "127.0.0.1:1".into();
        config.jobs = 0;
        assert!(run_open_loop(&config).unwrap_err().contains("jobs"));
        config.jobs = 1;
        config.rate_per_sec = 0.0;
        assert!(run_open_loop(&config).unwrap_err().contains("rate"));
        config.rate_per_sec = 10.0;
        config.spec_json = r#"{"id":1,"workload":"multimedia"}"#.into();
        assert!(run_open_loop(&config).unwrap_err().contains("id"));
    }

    #[test]
    fn an_open_loop_run_completes_against_a_live_server() {
        let engine = std::sync::Arc::new(drhw_engine::Engine::builder().threads(2).build());
        let server =
            drhw_net::Server::start(engine, drhw_net::ServerConfig::default()).expect("bind");
        let config = OpenLoopConfig {
            addr: server.local_addr().to_string(),
            rate_per_sec: 400.0,
            jobs: 24,
            ..OpenLoopConfig::default()
        };
        let outcome = run_open_loop(&config).expect("open loop runs");
        assert_eq!(outcome.jobs_offered, 24);
        assert_eq!(outcome.jobs_completed + outcome.jobs_dropped, 24);
        assert_eq!(outcome.jobs_errored, 0);
        assert!(outcome.offered_per_sec() > 0.0);
        assert!(outcome.achieved_per_sec() > 0.0);
        assert!(outcome.p99_ms() >= outcome.p50_ms());
        server.handle().shutdown();
        server.join();
    }

    #[test]
    fn config_validation_rejects_unusable_swarms() {
        let mut config = SwarmConfig::default();
        assert!(run_swarm(&config).unwrap_err().contains("addr"));
        config.addr = "127.0.0.1:1".into();
        config.clients = 0;
        assert!(run_swarm(&config).unwrap_err().contains("clients"));
        config.clients = 1;
        config.spec_json = "[]".into();
        assert!(run_swarm(&config).unwrap_err().contains("object"));
        config.spec_json = r#"{"id":1,"workload":"multimedia"}"#.into();
        assert!(run_swarm(&config).unwrap_err().contains("id"));
    }

    #[test]
    fn a_small_swarm_round_trips_against_a_live_server() {
        let engine = std::sync::Arc::new(drhw_engine::Engine::builder().threads(2).build());
        let server =
            drhw_net::Server::start(engine, drhw_net::ServerConfig::default()).expect("bind");
        let config = SwarmConfig {
            addr: server.local_addr().to_string(),
            clients: 8,
            jobs_per_client: 2,
            ..SwarmConfig::default()
        };
        let outcome = run_swarm(&config).expect("swarm runs");
        assert_eq!(outcome.clients_connected, 8);
        assert_eq!(outcome.jobs_completed, 16);
        assert_eq!(outcome.jobs_errored, 0);
        assert_eq!(outcome.latency.count(), 16);
        assert!(outcome.p50_ms() > 0.0);
        assert!(outcome.p99_ms() >= outcome.p50_ms());
        assert!(outcome.p999_ms() >= outcome.p99_ms());
        assert!(outcome.utilization() > 0.0 && outcome.utilization() <= 1.0);
        server.handle().shutdown();
        let stats = server.join();
        assert_eq!(stats.jobs_completed, 16);
    }
}
