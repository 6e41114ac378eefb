//! Pluggable arrival processes for the open-loop driver.
//!
//! A [`TrafficGenerator`] yields absolute arrival times on the virtual clock
//! (nondecreasing integer microseconds); the driver consumes arrivals until
//! the scenario horizon. All randomness comes from [`SplitMix64`] streams
//! derived from the scenario's master seed, so a generator's arrival
//! sequence depends only on `(seed, generator)` — never on the workload or
//! policy it is paired with, which is what makes scenario cells *paired*
//! (every cell of one generator sees the identical arrival stream) and
//! scenario outputs byte-identical at any engine worker count.

// The stream lives in `drhw-model`, shared with the simulator's seed
// derivation; re-exported for callers that import it from this crate.
pub use drhw_model::SplitMix64;

/// An arrival process on the virtual clock.
pub trait TrafficGenerator {
    /// The next absolute arrival time in microseconds, nondecreasing across
    /// calls; `None` when the process is exhausted (only trace replay ends).
    fn next_arrival_us(&mut self) -> Option<u64>;
}

/// Poisson arrivals: i.i.d. exponential inter-arrival gaps at a fixed rate.
#[derive(Debug, Clone)]
pub struct PoissonGenerator {
    rng: SplitMix64,
    rate_per_sec: f64,
    clock_us: u64,
}

impl PoissonGenerator {
    /// A Poisson process of `rate_per_sec` arrivals per second.
    pub fn new(seed: u64, rate_per_sec: f64) -> Self {
        PoissonGenerator {
            rng: SplitMix64::new(seed),
            rate_per_sec,
            clock_us: 0,
        }
    }
}

impl TrafficGenerator for PoissonGenerator {
    fn next_arrival_us(&mut self) -> Option<u64> {
        self.clock_us = self
            .clock_us
            .saturating_add(self.rng.next_exp_gap_us(self.rate_per_sec));
        Some(self.clock_us)
    }
}

/// Bursty on-off arrivals (a two-state MMPP): the process alternates
/// between an *on* phase emitting Poisson arrivals at `rate_on_per_sec` and
/// an *off* phase at `rate_off_per_sec` (which may be zero: silence), with
/// exponentially distributed phase durations. Starts in the on phase.
#[derive(Debug, Clone)]
pub struct OnOffGenerator {
    rng: SplitMix64,
    rate_on_per_sec: f64,
    rate_off_per_sec: f64,
    mean_on_us: f64,
    mean_off_us: f64,
    clock_us: u64,
    phase_end_us: u64,
    on: bool,
}

impl OnOffGenerator {
    /// An on-off process. `rate_on_per_sec` must be positive (the off rate
    /// may be zero); phase means are in milliseconds.
    pub fn new(
        seed: u64,
        rate_on_per_sec: f64,
        rate_off_per_sec: f64,
        mean_on_ms: f64,
        mean_off_ms: f64,
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mean_on_us = mean_on_ms * 1e3;
        let phase_end_us = rng.next_exp_mean_us(mean_on_us);
        OnOffGenerator {
            rng,
            rate_on_per_sec,
            rate_off_per_sec,
            mean_on_us,
            mean_off_us: mean_off_ms * 1e3,
            clock_us: 0,
            phase_end_us,
            on: true,
        }
    }
}

impl TrafficGenerator for OnOffGenerator {
    fn next_arrival_us(&mut self) -> Option<u64> {
        loop {
            let rate = if self.on {
                self.rate_on_per_sec
            } else {
                self.rate_off_per_sec
            };
            if rate > 0.0 {
                let candidate = self.clock_us.saturating_add(self.rng.next_exp_gap_us(rate));
                if candidate <= self.phase_end_us {
                    self.clock_us = candidate;
                    return Some(candidate);
                }
                // The draw fell past the phase boundary: discard it and
                // restart at the boundary — distributionally identical for
                // an exponential (memorylessness) and deterministic.
            }
            self.clock_us = self.phase_end_us;
            self.on = !self.on;
            let mean = if self.on {
                self.mean_on_us
            } else {
                self.mean_off_us
            };
            self.phase_end_us = self
                .clock_us
                .saturating_add(self.rng.next_exp_mean_us(mean));
        }
    }
}

/// Replays a recorded arrival trace verbatim. Consumes no randomness: a
/// replayed cell sees exactly the arrivals of the recorded run.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    arrivals: Vec<u64>,
    next: usize,
}

impl TraceGenerator {
    /// A generator replaying `arrivals` (absolute microseconds, must be
    /// nondecreasing — validated by the trace loader).
    pub fn from_arrivals(arrivals: Vec<u64>) -> Self {
        TraceGenerator { arrivals, next: 0 }
    }
}

impl TrafficGenerator for TraceGenerator {
    fn next_arrival_us(&mut self) -> Option<u64> {
        let arrival = self.arrivals.get(self.next).copied();
        self.next += arrival.is_some() as usize;
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_until(generator: &mut dyn TrafficGenerator, horizon_us: u64) -> Vec<u64> {
        let mut arrivals = Vec::new();
        while let Some(t) = generator.next_arrival_us() {
            if t >= horizon_us {
                break;
            }
            arrivals.push(t);
        }
        arrivals
    }

    #[test]
    fn poisson_is_deterministic_per_seed_and_strictly_increasing() {
        let a = collect_until(&mut PoissonGenerator::new(7, 100.0), 5_000_000);
        let b = collect_until(&mut PoissonGenerator::new(7, 100.0), 5_000_000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // ~100/s over 5 s: loose 3-sigma-ish band.
        assert!(a.len() > 350 && a.len() < 650, "got {}", a.len());
        let c = collect_until(&mut PoissonGenerator::new(8, 100.0), 5_000_000);
        assert_ne!(a, c);
    }

    #[test]
    fn onoff_rate_zero_off_phase_produces_gaps() {
        let mut generator = OnOffGenerator::new(11, 500.0, 0.0, 200.0, 200.0);
        let arrivals = collect_until(&mut generator, 10_000_000);
        assert!(!arrivals.is_empty());
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        // With equal on/off means the achieved rate is roughly half the on
        // rate; mainly we care that silence gaps exist (an off phase).
        let max_gap = arrivals.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(max_gap > 50_000, "expected an off-phase gap, max {max_gap}");
    }

    #[test]
    fn onoff_is_deterministic_per_seed() {
        let mut a = OnOffGenerator::new(3, 120.0, 5.0, 400.0, 600.0);
        let mut b = OnOffGenerator::new(3, 120.0, 5.0, 400.0, 600.0);
        assert_eq!(
            collect_until(&mut a, 3_000_000),
            collect_until(&mut b, 3_000_000)
        );
    }

    #[test]
    fn trace_replays_verbatim_and_ends() {
        let mut generator = TraceGenerator::from_arrivals(vec![5, 5, 9]);
        assert_eq!(generator.next_arrival_us(), Some(5));
        assert_eq!(generator.next_arrival_us(), Some(5));
        assert_eq!(generator.next_arrival_us(), Some(9));
        assert_eq!(generator.next_arrival_us(), None);
        assert_eq!(generator.next_arrival_us(), None);
    }

    #[test]
    fn unit_draws_stay_in_the_half_open_interval() {
        let mut rng = SplitMix64::new(0);
        for _ in 0..10_000 {
            let u = rng.next_unit();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
