//! The deterministic open-loop driver: a discrete-event simulation on the
//! virtual clock.
//!
//! Each cell of a scenario — one (generator, workload, policy) triple — is
//! an independent queueing system: arrivals from the generator's stream are
//! queued FIFO against `slots` parallel service slots whose service times
//! are sampled from the cell's *service pool*, the real per-iteration
//! simulated execution times measured through
//! [`Engine::measure_service_times`]. The driver walks virtual time event
//! by event, streaming `traffic_event` records in order, and folds queue
//! wait, service and sojourn latencies into log-bucketed histograms.
//!
//! # Determinism
//!
//! Everything is derived from the scenario: arrival streams from
//! `(seed, generator name)`, service draws from `(seed, workload, policy,
//! arrival index)`, and service pools from the engine's bit-identical
//! sequential measurement pass. The virtual clock is integer microseconds
//! and ties resolve by fixed rules (completions before arrivals; equal-time
//! completions by job index; freed work dispatches before the clock moves).
//! A scenario's results are therefore **byte-identical at any engine worker
//! count** — the property the integration battery and the CI `traffic` job
//! pin.
//!
//! # Measurement window
//!
//! Jobs arriving in `[warmup, duration)` are *measured*: only they
//! contribute to latency histograms, offered throughput and drop counts.
//! Latencies of measured jobs count even when the job completes after the
//! horizon (excluding them would bias the tail away from exactly the
//! overloaded cells where it matters). Achieved throughput counts
//! completions inside the window, and per-slot utilization is the busy
//! overlap with the window — both over the same window, so offered vs
//! achieved reads directly as a saturation check.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::Write;
use std::path::Path;

use drhw_engine::Engine;
use drhw_model::{fnv1a, splitmix64, SplitMix64, Time};
use drhw_prefetch::PolicyKind;

use crate::latency::Histogram;
use crate::record;
use crate::scenario::{GeneratorKind, TrafficScenario};
use crate::TrafficError;

/// The service pool of one (workload, policy) pair: the measured
/// per-iteration execution times jobs sample from, plus the paper's
/// aggregate overhead metric for the same run.
#[derive(Debug, Clone)]
pub struct ServicePool {
    /// The policy measured.
    pub policy: PolicyKind,
    /// Per-iteration simulated execution time, in iteration order.
    pub times: Vec<Time>,
    /// Reconfiguration overhead of the measurement run, in percent — the
    /// paper's headline metric, reported alongside the latency numbers.
    pub overhead_percent: f64,
}

/// Everything one cell's queueing run produced.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Cell index in canonical (generator, workload, policy) order.
    pub cell: usize,
    /// Generator label.
    pub generator: String,
    /// Workload name.
    pub workload: String,
    /// Policy simulated.
    pub policy: PolicyKind,
    /// Arrivals before the horizon (measured or not).
    pub arrived: u64,
    /// Arrivals inside the measurement window.
    pub measured: u64,
    /// Dropped arrivals (bounded queue overflow), total.
    pub dropped: u64,
    /// Dropped arrivals inside the measurement window.
    pub dropped_measured: u64,
    /// Completions whose completion time fell inside the window.
    pub completed_in_window: u64,
    /// Queue-wait latencies of measured jobs.
    pub wait: Histogram,
    /// Service latencies of measured jobs.
    pub service: Histogram,
    /// Sojourn (arrival → completion) latencies of measured jobs.
    pub sojourn: Histogram,
    /// Busy time of each slot overlapping the window, in microseconds.
    pub slot_busy_us: Vec<u64>,
    /// The measurement window length, in microseconds.
    pub window_us: u64,
    /// Overhead of the cell's measurement run (see
    /// [`ServicePool::overhead_percent`]).
    pub overhead_percent: f64,
}

impl CellReport {
    /// Offered load: measured arrivals per second of window.
    pub fn offered_per_sec(&self) -> f64 {
        self.measured as f64 / (self.window_us as f64 / 1e6)
    }

    /// Achieved throughput: in-window completions per second of window.
    pub fn achieved_per_sec(&self) -> f64 {
        self.completed_in_window as f64 / (self.window_us as f64 / 1e6)
    }

    /// Busy fraction of each slot over the measurement window.
    pub fn utilization_per_slot(&self) -> Vec<f64> {
        self.slot_busy_us
            .iter()
            .map(|&busy| busy as f64 / self.window_us as f64)
            .collect()
    }

    /// Mean busy fraction across slots.
    pub fn utilization_mean(&self) -> f64 {
        if self.slot_busy_us.is_empty() {
            0.0
        } else {
            let total: u64 = self.slot_busy_us.iter().sum();
            total as f64 / (self.window_us as f64 * self.slot_busy_us.len() as f64)
        }
    }
}

/// The result of running a whole scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: TrafficScenario,
    /// One report per cell, in canonical order.
    pub cells: Vec<CellReport>,
    /// The arrival stream of each generator (name, absolute microseconds) —
    /// what the runner records as `trace-<name>.jsonl` for later replay.
    pub traces: Vec<(String, Vec<u64>)>,
}

/// Runs a scenario: measures service pools through the engine, materialises
/// every generator's arrival stream, then walks each cell's queueing run in
/// canonical order, streaming the results log (header, cell and event
/// lines) to `events` as virtual time advances.
///
/// Trace-replay generator paths resolve against `base_dir` (typically the
/// scenario file's directory).
///
/// # Errors
///
/// Returns scenario-validation, trace-loading, engine and sink I/O errors.
pub fn run_scenario(
    engine: &Engine,
    scenario: &TrafficScenario,
    base_dir: &Path,
    events: &mut dyn Write,
) -> Result<ScenarioOutcome, TrafficError> {
    scenario.validate()?;
    let duration_us = scenario.duration_ms * 1000;
    let warmup_us = scenario.warmup_ms * 1000;

    // Service pools: one engine measurement pass per workload (the plan
    // cache makes repeats cheap), each yielding every policy's pool.
    let mut pools: Vec<Vec<ServicePool>> = Vec::with_capacity(scenario.workloads.len());
    for workload in &scenario.workloads {
        let measurements = engine
            .measure_service_times(&scenario.measurement_spec(workload))
            .map_err(TrafficError::Engine)?;
        pools.push(
            measurements
                .into_iter()
                .map(|m| ServicePool {
                    policy: m.policy,
                    times: m.service_times,
                    overhead_percent: m.report.overhead_percent(),
                })
                .collect(),
        );
    }

    // Arrival streams: one per generator, shared by all its cells and
    // recorded for replay. Streams stop at the horizon.
    let mut traces: Vec<(String, Vec<u64>)> = Vec::with_capacity(scenario.generators.len());
    for spec in &scenario.generators {
        let arrivals = match &spec.kind {
            GeneratorKind::Trace { path } => {
                let resolved = base_dir.join(path);
                let text = std::fs::read_to_string(&resolved).map_err(|e| TrafficError::Io {
                    path: resolved.display().to_string(),
                    message: e.to_string(),
                })?;
                let mut arrivals = record::parse_trace(&text, path)?;
                arrivals.retain(|&t| t < duration_us);
                arrivals
            }
            _ => {
                let seed = splitmix64(scenario.seed ^ fnv1a(spec.name.as_bytes()));
                let mut generator = spec.build(seed, None);
                let mut arrivals = Vec::new();
                while let Some(t) = generator.next_arrival_us() {
                    if t >= duration_us {
                        break;
                    }
                    arrivals.push(t);
                }
                arrivals
            }
        };
        traces.push((spec.name.clone(), arrivals));
    }

    let cells = scenario.cells();
    record::write_scenario_header(events, scenario, cells.len())?;

    let mut reports = Vec::with_capacity(cells.len());
    for (cell, (gi, wi, policy)) in cells.into_iter().enumerate() {
        let generator = &scenario.generators[gi].name;
        let workload = &scenario.workloads[wi];
        let pool = pools[wi]
            .iter()
            .find(|pool| pool.policy == policy)
            .expect("measurement covers every resolved policy");
        record::write_cell_line(events, cell, generator, workload, policy, scenario.slots)?;
        let report = run_cell(
            CellSetup {
                cell,
                generator,
                workload,
                policy,
                arrivals: &traces[gi].1,
                pool,
                slots: scenario.slots,
                queue_capacity: scenario.queue_capacity,
                seed: scenario.seed,
                warmup_us,
                duration_us,
            },
            events,
        )?;
        reports.push(report);
    }

    Ok(ScenarioOutcome {
        scenario: scenario.clone(),
        cells: reports,
        traces,
    })
}

/// Everything one cell's queueing run needs.
struct CellSetup<'a> {
    cell: usize,
    generator: &'a str,
    workload: &'a str,
    policy: PolicyKind,
    arrivals: &'a [u64],
    pool: &'a ServicePool,
    slots: usize,
    queue_capacity: Option<usize>,
    seed: u64,
    warmup_us: u64,
    duration_us: u64,
}

/// Per-job bookkeeping of an in-flight cell run.
#[derive(Clone, Copy)]
struct JobInfo {
    arrival_us: u64,
    service_us: u64,
    start_us: u64,
}

fn run_cell(setup: CellSetup<'_>, events: &mut dyn Write) -> Result<CellReport, TrafficError> {
    let window_us = setup.duration_us - setup.warmup_us;
    let mut report = CellReport {
        cell: setup.cell,
        generator: setup.generator.to_string(),
        workload: setup.workload.to_string(),
        policy: setup.policy,
        arrived: 0,
        measured: 0,
        dropped: 0,
        dropped_measured: 0,
        completed_in_window: 0,
        wait: Histogram::new(),
        service: Histogram::new(),
        sojourn: Histogram::new(),
        slot_busy_us: vec![0; setup.slots],
        window_us,
        overhead_percent: setup.pool.overhead_percent,
    };

    // Service draws depend on (seed, workload, policy, arrival index) only —
    // independent of the generator, so a trace replay of another
    // generator's arrivals reproduces identical service times job for job.
    let mut service_rng = SplitMix64::new(splitmix64(
        splitmix64(setup.seed ^ fnv1a(setup.workload.as_bytes()))
            ^ fnv1a(setup.policy.to_string().as_bytes()),
    ));
    let pool_len = setup.pool.times.len() as u64;

    let mut jobs: Vec<JobInfo> = Vec::with_capacity(setup.arrivals.len());
    // Completion events: (time, job, slot), earliest time first, ties by
    // job index. Free slots: lowest index first.
    let mut completions: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut free_slots: BinaryHeap<Reverse<usize>> = (0..setup.slots).map(Reverse).collect();
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut next_arrival = 0usize;

    // Dispatches queued jobs onto free slots at time `t` (FIFO, lowest free
    // slot first), emitting `start` events and scheduling completions.
    let dispatch = |t: u64,
                    queue: &mut VecDeque<u64>,
                    free_slots: &mut BinaryHeap<Reverse<usize>>,
                    completions: &mut BinaryHeap<Reverse<(u64, u64, usize)>>,
                    jobs: &mut [JobInfo],
                    report: &mut CellReport,
                    events: &mut dyn Write|
     -> Result<(), TrafficError> {
        while !queue.is_empty() {
            let Some(&Reverse(slot)) = free_slots.peek() else {
                break;
            };
            free_slots.pop();
            let job = queue.pop_front().expect("checked non-empty");
            let info = &mut jobs[job as usize];
            info.start_us = t;
            let wait_us = t - info.arrival_us;
            let end_us = t.saturating_add(info.service_us);
            record::write_event_start(events, setup.cell, job, t, slot, wait_us)?;
            completions.push(Reverse((end_us, job, slot)));
            // Busy overlap with the measurement window, accounted up front:
            // the interval is fully determined here.
            let overlap_start = t.max(setup.warmup_us);
            let overlap_end = end_us.min(setup.duration_us);
            if overlap_end > overlap_start {
                report.slot_busy_us[slot] += overlap_end - overlap_start;
            }
        }
        Ok(())
    };

    loop {
        let next_completion_time = completions.peek().map(|Reverse((t, _, _))| *t);
        let next_arrival_time = setup.arrivals.get(next_arrival).copied();
        let take_completion = match (next_completion_time, next_arrival_time) {
            (Some(tc), Some(ta)) => tc <= ta,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_completion {
            let Reverse((t, job, slot)) = completions.pop().expect("peeked non-empty");
            let info = jobs[job as usize];
            let sojourn_us = t - info.arrival_us;
            record::write_event_completion(
                events,
                setup.cell,
                job,
                t,
                slot,
                info.service_us,
                sojourn_us,
            )?;
            if (setup.warmup_us..setup.duration_us).contains(&t) {
                report.completed_in_window += 1;
            }
            if info.arrival_us >= setup.warmup_us {
                report.wait.record_us(info.start_us - info.arrival_us);
                report.service.record_us(info.service_us);
                report.sojourn.record_us(sojourn_us);
            }
            free_slots.push(Reverse(slot));
            dispatch(
                t,
                &mut queue,
                &mut free_slots,
                &mut completions,
                &mut jobs,
                &mut report,
                events,
            )?;
        } else {
            let t = next_arrival_time.expect("checked above");
            next_arrival += 1;
            let job = jobs.len() as u64;
            let service_us = if pool_len == 0 {
                0
            } else {
                setup.pool.times[(service_rng.next_u64() % pool_len) as usize].as_micros()
            };
            jobs.push(JobInfo {
                arrival_us: t,
                service_us,
                start_us: 0,
            });
            let measured = t >= setup.warmup_us;
            report.arrived += 1;
            report.measured += u64::from(measured);
            record::write_event_arrival(events, setup.cell, job, t)?;
            let full = setup
                .queue_capacity
                .is_some_and(|capacity| free_slots.is_empty() && queue.len() >= capacity);
            if full {
                report.dropped += 1;
                report.dropped_measured += u64::from(measured);
                record::write_event_drop(events, setup.cell, job, t)?;
            } else {
                queue.push_back(job);
                dispatch(
                    t,
                    &mut queue,
                    &mut free_slots,
                    &mut completions,
                    &mut jobs,
                    &mut report,
                    events,
                )?;
            }
        }
    }
    debug_assert!(queue.is_empty(), "drain leaves no queued job behind");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(times_ms: &[u64]) -> ServicePool {
        ServicePool {
            policy: PolicyKind::Hybrid,
            times: times_ms.iter().map(|&ms| Time::from_millis(ms)).collect(),
            overhead_percent: 1.0,
        }
    }

    fn setup<'a>(
        arrivals: &'a [u64],
        pool: &'a ServicePool,
        slots: usize,
        queue_capacity: Option<usize>,
    ) -> CellSetup<'a> {
        CellSetup {
            cell: 0,
            generator: "g",
            workload: "w",
            policy: PolicyKind::Hybrid,
            arrivals,
            pool,
            slots,
            queue_capacity,
            seed: 1,
            warmup_us: 0,
            duration_us: 10_000_000,
        }
    }

    #[test]
    fn single_slot_fifo_queues_and_drains() {
        // Two jobs arrive back to back; the second waits for the first.
        let pool = pool(&[100]); // constant 100 ms service
        let arrivals = [1_000, 2_000];
        let mut sink = Vec::new();
        let report = run_cell(setup(&arrivals, &pool, 1, None), &mut sink).unwrap();
        assert_eq!(report.arrived, 2);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.sojourn.count(), 2);
        // Job 0: sojourn 100 ms. Job 1: waits 99 ms, sojourn 199 ms.
        assert_eq!(report.wait.max_us(), 99_000);
        assert_eq!(report.sojourn.max_us(), 199_000);
        // Busy 200 ms of the 10 s window on the single slot.
        assert_eq!(report.slot_busy_us, vec![200_000]);
        let text = String::from_utf8(sink).unwrap();
        let kinds: Vec<&str> = text
            .lines()
            .filter_map(|line| {
                line.split("\"event\":\"")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "arrival",
                "start",
                "arrival",
                "completion",
                "start",
                "completion"
            ]
        );
    }

    #[test]
    fn bounded_queue_drops_excess_arrivals() {
        // One slot busy 100 ms, queue capacity 1: the third simultaneousish
        // arrival is dropped.
        let pool = pool(&[100]);
        let arrivals = [1_000, 1_001, 1_002];
        let mut sink = Vec::new();
        let report = run_cell(setup(&arrivals, &pool, 1, Some(1)), &mut sink).unwrap();
        assert_eq!(report.arrived, 3);
        assert_eq!(report.dropped, 1);
        assert_eq!(report.sojourn.count(), 2);
        assert!(String::from_utf8(sink)
            .unwrap()
            .contains("\"event\":\"drop\""));
    }

    #[test]
    fn warmup_excludes_early_jobs_from_stats_but_not_events() {
        let pool = pool(&[10]);
        let arrivals = [1_000, 6_000_000];
        let mut sink = Vec::new();
        let mut s = setup(&arrivals, &pool, 1, None);
        s.warmup_us = 5_000_000;
        let report = run_cell(s, &mut sink).unwrap();
        assert_eq!(report.arrived, 2);
        assert_eq!(report.measured, 1);
        assert_eq!(report.sojourn.count(), 1);
        // Both jobs still appear in the event stream.
        let text = String::from_utf8(sink).unwrap();
        assert_eq!(text.matches("\"event\":\"arrival\"").count(), 2);
        // Only the warm job's busy time counts: 10 ms of the 5 s window.
        assert_eq!(report.slot_busy_us, vec![10_000]);
        assert!((report.utilization_mean() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn two_slots_run_in_parallel_and_tie_break_deterministically() {
        let pool = pool(&[100]);
        let arrivals = [1_000, 1_000, 1_000];
        let mut sink = Vec::new();
        let report = run_cell(setup(&arrivals, &pool, 2, None), &mut sink).unwrap();
        // Jobs 0 and 1 run immediately on slots 0 and 1; job 2 waits 100 ms.
        assert_eq!(report.wait.max_us(), 100_000);
        assert_eq!(report.slot_busy_us, vec![200_000, 100_000]);
        let text = String::from_utf8(sink).unwrap();
        // Completions at the same virtual time appear in job order.
        let completion_jobs: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"completion\""))
            .map(|l| {
                l.split("\"job\":")
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
            })
            .collect();
        assert_eq!(completion_jobs, ["0", "1", "2"]);
    }
}
