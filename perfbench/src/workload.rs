//! The workloads and the request schedules they draw from a seed.
//!
//! Every workload is an open loop: requests fall due on a fixed schedule,
//! whatever the server's pace — Poisson arrivals for `warm` and `cold`, a
//! fixed interval for `sweep`. They differ in what an arrival asks for, and
//! so in which layers carry the latency:
//!
//! * `warm` — one small job (all five policies, [`WARM_ITERATIONS`]) on one
//!   of the fifteen Fig. 6/7 plan keys the server preloads at boot. Every
//!   request hits the plan cache; the TCP tier and the chunk evaluation
//!   carry the latency.
//! * `cold` — one small job on a `fuzz-<family>-<seed>` workload that no
//!   request named before. Every request misses the plan cache and pays the
//!   design-time build: task-set generation, the TCM Pareto library, branch
//!   & bound and the critical-set loop.
//! * `sweep` — a user asking for Figures 6 and 7: the fifteen figure points
//!   at once, the three figure policies at the paper's 1000 iterations.
//!   Plans are warm; the worker pool's simulation throughput carries the
//!   latency.

use std::time::Duration;

use drhw_engine::json::JsonValue;
use drhw_engine::JobSpec;
use drhw_prefetch::PolicyKind;
use drhw_traffic::SplitMix64;
use drhw_workloads::FuzzFamily;

/// The plan keys of the two figure sweeps: the multimedia set on 8–16 tiles
/// (Fig. 6) and Pocket GL on 5–10 tiles (Fig. 7).
pub const FIGURE_KEYS: [(&str, usize); 15] = [
    ("multimedia", 8),
    ("multimedia", 9),
    ("multimedia", 10),
    ("multimedia", 11),
    ("multimedia", 12),
    ("multimedia", 13),
    ("multimedia", 14),
    ("multimedia", 15),
    ("multimedia", 16),
    ("pocket_gl", 5),
    ("pocket_gl", 6),
    ("pocket_gl", 7),
    ("pocket_gl", 8),
    ("pocket_gl", 9),
    ("pocket_gl", 10),
];

/// Iterations of a `warm` job.
const WARM_ITERATIONS: usize = 256;
/// Iterations of a `cold` job: few, so the design-time build dominates.
const COLD_ITERATIONS: usize = 64;
/// Iterations of a `sweep` job: the paper's count at every figure point.
const SWEEP_ITERATIONS: usize = 1000;

/// Separates the request stream's seed from the arrival clock's.
const REQUEST_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;
/// Separates the profiled requests' seed from the open loop's, so the keys
/// `cold` profiles are new to every engine.
const PROFILE_STREAM: u64 = 0xD1B5_4A32_D192_ED03;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Warm,
    Cold,
    Sweep,
}

/// One request of the open loop.
pub struct Job {
    /// What the request asks for.
    pub spec: JobSpec,
    /// The request line sent for it, newline included.
    pub line: String,
    /// When it falls due, from the start of the open loop.
    pub due: Duration,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "warm" => Ok(Workload::Warm),
            "cold" => Ok(Workload::Cold),
            "sweep" => Ok(Workload::Sweep),
            other => Err(format!(
                "unknown workload {other:?} (expected warm, cold or sweep)"
            )),
        }
    }

    /// Mean arrivals per second, each low enough that the server stays well
    /// short of saturation: queueing shows in the tail, but the backlog does
    /// not grow over a run.
    fn rate_per_sec(self) -> f64 {
        match self {
            Workload::Warm => 100.0,
            Workload::Cold => 50.0,
            Workload::Sweep => 2.0,
        }
    }

    /// The gap before the next arrival, in microseconds: exponential
    /// (Poisson arrivals) for `warm` and `cold`, fixed for `sweep`, whose
    /// randomly overlapping sweeps would otherwise make a run measure how
    /// many happened to overlap.
    fn gap_us(self, clock: &mut SplitMix64) -> u64 {
        match self {
            Workload::Sweep => (1e6 / self.rate_per_sec()) as u64,
            _ => clock.next_exp_gap_us(self.rate_per_sec()),
        }
    }

    /// The jobs one arrival asks for.
    fn arrival(self, rng: &mut SplitMix64) -> Vec<JobSpec> {
        match self {
            Workload::Warm => {
                let (workload, tiles) = FIGURE_KEYS[pick(rng, FIGURE_KEYS.len())];
                vec![JobSpec::new(workload)
                    .with_tiles(tiles)
                    .with_iterations(WARM_ITERATIONS)
                    .with_seed(rng.next_u64())]
            }
            Workload::Cold => {
                let family = FuzzFamily::ALL[pick(rng, FuzzFamily::ALL.len())];
                vec![JobSpec::new(format!("fuzz-{family}-{}", rng.next_u64()))
                    .with_iterations(COLD_ITERATIONS)]
            }
            Workload::Sweep => {
                let seed = rng.next_u64();
                FIGURE_KEYS
                    .iter()
                    .map(|&(workload, tiles)| {
                        JobSpec::new(workload)
                            .with_tiles(tiles)
                            .with_iterations(SWEEP_ITERATIONS)
                            .with_seed(seed)
                            .with_policies(PolicyKind::FIGURE_POLICIES)
                    })
                    .collect()
            }
        }
    }

    /// The open loop's requests over `span`, in due order. The same seed
    /// gives the same requests.
    pub fn schedule(self, seed: u64, span: Duration) -> Vec<Job> {
        let mut clock = SplitMix64::new(seed);
        let mut requests = SplitMix64::new(seed ^ REQUEST_STREAM);
        let mut jobs = Vec::new();
        let mut due = Duration::ZERO;
        loop {
            due += Duration::from_micros(self.gap_us(&mut clock));
            if due >= span {
                return jobs;
            }
            for spec in self.arrival(&mut requests) {
                let line = request_line(jobs.len() as u64 + 1, &spec);
                jobs.push(Job { spec, line, due });
            }
        }
    }

    /// An endless stream of requests drawn like the open loop's, for the
    /// per-layer profile.
    pub fn profile_specs(self, seed: u64) -> impl Iterator<Item = JobSpec> {
        let mut rng = SplitMix64::new(seed ^ PROFILE_STREAM);
        std::iter::repeat_with(move || self.arrival(&mut rng)).flatten()
    }
}

/// A uniform index below `len`.
fn pick(rng: &mut SplitMix64, len: usize) -> usize {
    (rng.next_u64() % len as u64) as usize
}

/// The v2 request envelope of `spec`, newline-terminated.
pub fn request_line(id: u64, spec: &JobSpec) -> String {
    let mut line = JsonValue::Object(vec![
        ("v".to_string(), JsonValue::UInt(2)),
        ("id".to_string(), JsonValue::UInt(id)),
        ("spec".to_string(), spec.to_json()),
    ])
    .to_json();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_requests() {
        for workload in [Workload::Warm, Workload::Cold, Workload::Sweep] {
            let lines = |seed| {
                workload
                    .schedule(seed, Duration::from_secs(5))
                    .into_iter()
                    .map(|job| (job.line, job.due))
                    .collect::<Vec<_>>()
            };
            assert!(!lines(7).is_empty());
            assert_eq!(lines(7), lines(7));
            assert_ne!(lines(7), lines(8));
        }
    }
}
