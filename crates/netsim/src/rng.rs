//! Deterministic random numbers.
//!
//! [`SimRng`] is a SplitMix64 generator: tiny, fast, full 64-bit state,
//! and — crucially for this project — trivially *forkable*. Each subsystem
//! (DNS jitter, per-service behaviour, tracker payloads, …) forks its own
//! labelled stream from the experiment seed, so adding a random draw in
//! one subsystem never perturbs another subsystem's stream. That property
//! is what keeps calibrated experiment outputs stable as the codebase
//! evolves.

/// A SplitMix64 pseudo-random generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::below requires bound > 0");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi]` inclusive.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "SimRng::range requires lo <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Pick a uniformly random element of `items`; `None` when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }

    /// Fork an independent stream labelled `label`. Forks of the same
    /// parent with different labels are statistically independent; the
    /// same `(parent_seed, label)` pair always yields the same stream.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h = self.state ^ 0x632b_e59b_d9b4_e019;
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            h = h.rotate_left(23);
        }
        SimRng::new(h)
    }

    /// Sum of `n` consecutive [`unit`](Self::unit) draws, batched into
    /// one call for per-exchange paths that fold several uniforms
    /// (latency jitter). Consumes exactly the same draws in the same
    /// order as `n` separate `unit()` calls, so every downstream stream
    /// stays byte-identical — the differential suite pins this law.
    pub fn unit_sum(&mut self, n: usize) -> f64 {
        let mut sum = 0.0;
        for _ in 0..n {
            sum += self.unit();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
        // Tiny bound still works.
        for _ in 0..100 {
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    fn range_inclusive() {
        let mut r = SimRng::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let root = SimRng::new(2016);
        let mut dns1 = root.fork("dns");
        let mut dns2 = root.fork("dns");
        let mut svc = root.fork("services");
        assert_eq!(dns1.next_u64(), dns2.next_u64());
        // Different labels diverge immediately (overwhelmingly likely).
        let mut dns3 = root.fork("dns");
        assert_ne!(dns3.next_u64(), svc.next_u64());
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn batched_draws_match_sequential_streams() {
        // unit_sum(n) must consume the identical draw sequence as n
        // unit() calls: same running sum, same post-state.
        for n in [0usize, 1, 3, 8] {
            let mut batched = SimRng::new(0xFEED);
            let mut sequential = SimRng::new(0xFEED);
            let a = batched.unit_sum(n);
            let mut b = 0.0f64;
            for _ in 0..n {
                b += sequential.unit();
            }
            assert_eq!(a.to_bits(), b.to_bits(), "sum diverged at n={n}");
            assert_eq!(batched, sequential, "state diverged at n={n}");
        }
    }
}

appvsweb_json::impl_json!(struct SimRng { state });
