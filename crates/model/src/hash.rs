//! The workspace's one pseudo-random stream and one hash.
//!
//! Every seeded stream of the fast path — per-iteration workload seeds,
//! traffic arrivals and service draws — is SplitMix64, and every stable
//! fingerprint — kernel memo slots, the branch & bound evaluation memo,
//! on-disk plan-cache keys and checksums, traffic stream tags — is built
//! from the SplitMix64 finalizer ([`mix64`]) or from [`fnv1a`]. These values
//! reach disk (plan-cache entries) and shape traffic streams, so their
//! outputs are pinned by known-answer tests: changing a constant here
//! silently invalidates every persisted plan and re-rolls every workload.

/// The Weyl-sequence increment of SplitMix64 (2^64 / φ, rounded to odd).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a bijective avalanche mix, so every
/// input bit reaches every output bit and distinct inputs never collide.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step from a raw state — the first output of
/// `SplitMix64::new(z)`. Turns structured tags (a seed plus an index or a
/// name hash) into well-spread stream seeds.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

/// 64-bit FNV-1a over a byte string — the workspace's stable string hash.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A deterministic SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// One SplitMix64 output step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// A uniform draw in the half-open unit interval `(0, 1]` (never zero,
    /// so `ln` is always finite).
    pub fn next_unit(&mut self) -> f64 {
        (((self.next_u64() >> 11) + 1) as f64) * (1.0 / 9_007_199_254_740_992.0)
    }

    /// An exponential inter-arrival gap in microseconds for a process of
    /// `rate_per_sec` events per second (at least 1 µs, so arrival times
    /// strictly increase).
    pub fn next_exp_gap_us(&mut self, rate_per_sec: f64) -> u64 {
        let gap = -self.next_unit().ln() * 1e6 / rate_per_sec;
        (gap.round() as u64).max(1)
    }

    /// An exponential duration in microseconds with the given mean.
    pub fn next_exp_mean_us(&mut self, mean_us: f64) -> u64 {
        let duration = -self.next_unit().ln() * mean_us;
        (duration.round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers_are_pinned() {
        // Seed 0 is the published SplitMix64 reference stream.
        let mut zero = SplitMix64::new(0);
        let stream: Vec<u64> = (0..4).map(|_| zero.next_u64()).collect();
        assert_eq!(
            stream,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC
            ]
        );
        let mut seeded = SplitMix64::new(2005);
        let stream: Vec<u64> = (0..4).map(|_| seeded.next_u64()).collect();
        assert_eq!(
            stream,
            [
                0xA0DA_B038_7542_E050,
                0xB5D6_3D57_8F63_4F2F,
                0x2F8F_8019_AE7C_4018,
                0x57BE_4ABD_E1D0_CA81
            ]
        );
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(2005), 0xA0DA_B038_7542_E050);

        // The derived draws the traffic generators consume.
        let mut draws = SplitMix64::new(0);
        assert_eq!(draws.next_unit().to_bits(), 4_606_131_375_998_723_002);
        assert_eq!(draws.next_exp_gap_us(100.0), 8404);
        assert_eq!(draws.next_exp_mean_us(1500.0), 5450);
        let mut draws = SplitMix64::new(2005);
        assert_eq!(draws.next_unit().to_bits(), 4_603_834_775_379_028_061);
        assert_eq!(draws.next_exp_gap_us(100.0), 3421);
        assert_eq!(draws.next_exp_mean_us(1500.0), 2525);

        for (input, output) in [
            (0, 0),
            (1, 0x5692_161D_100B_05E5),
            (2005, 0x7323_89A0_1B33_ED6D),
            (u64::MAX, 0xB4D0_55FC_F2CB_BD7B),
            (0x0123_4567_89AB_CDEF, 0xB2C0_58E4_EBB5_112C),
        ] {
            assert_eq!(mix64(input), output, "mix64({input:#x})");
        }

        for (input, output) in [
            ("", 0xCBF2_9CE4_8422_2325),
            ("a", 0xAF63_DC4C_8601_EC8C),
            ("multimedia", 0xEF7C_3FEC_334B_FC12),
            ("drhw-plan-cache", 0x80E3_482C_C107_9065),
        ] {
            assert_eq!(fnv1a(input.as_bytes()), output, "fnv1a({input:?})");
        }
    }
}
