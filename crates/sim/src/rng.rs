//! Deterministic randomness for the federation.
//!
//! A self-contained xoshiro256++ generator (seeded via SplitMix64) plus the
//! distributions the site performance models need. Lognormal/normal sampling
//! is implemented with Box–Muller on top of the uniform source. No external
//! RNG crate is used, so the stream is fully pinned by this file and the
//! trace's FNV-1a loop (which [`DetRng::fork`] mixes labels with): the same
//! seed yields the same sequence on every platform and toolchain.

use crate::trace::{fnv, FNV_OFFSET};

/// A deterministic RNG stream. Two `DetRng`s built from the same seed yield
/// identical sequences; [`DetRng::fork`] derives an independent child stream
/// so components can consume randomness without perturbing each other.
#[derive(Clone, Debug)]
pub struct DetRng {
    /// xoshiro256++ state.
    s: [u64; 4],
    /// Cached second Box–Muller variate.
    spare_normal: Option<f64>,
}

/// SplitMix64 step: expands a 64-bit seed into well-mixed state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a stream from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            spare_normal: None,
        }
    }

    /// The raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derive an independent child stream tagged by `label`. Children with
    /// different labels are decorrelated; the parent stream is advanced by
    /// exactly one `u64`.
    pub fn fork(&mut self, label: &str) -> DetRng {
        let base = self.next_u64();
        // FNV-1a over the label mixes the tag into the child seed.
        DetRng::seed_from_u64(base ^ fnv(FNV_OFFSET, label.as_bytes()))
    }

    /// Uniform in `[0, 1)` (53 bits of precision).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        // Lemire's multiply-shift maps the full 64-bit output onto the range
        // with negligible bias for the simulation's small ranges.
        let span = hi - lo;
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller (caching the paired variate).
    pub fn std_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // u1 in (0,1] so ln(u1) is finite.
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.std_normal()
    }

    /// Lognormal: `exp(N(mu, sigma))`. `mu`/`sigma` are the parameters of the
    /// underlying normal, as is conventional.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// A multiplicative noise factor centred on 1.0 with relative spread
    /// `rel_sigma` — the canonical "system variability" model for run-to-run
    /// timing jitter (§2.1 of the paper discusses the sources).
    pub fn jitter(&mut self, rel_sigma: f64) -> f64 {
        if rel_sigma <= 0.0 {
            return 1.0;
        }
        // Lognormal with median 1.0; clamp the tails so a single unlucky
        // sample cannot dominate a simulated measurement.
        self.lognormal(0.0, rel_sigma).clamp(0.5, 2.0)
    }

    /// Exponential with the given mean (inter-arrival times).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.unit();
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_u64(0, (i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn forks_are_decorrelated_but_deterministic() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        let mut fa = a.fork("scheduler");
        let mut fb = b.fork("scheduler");
        assert_eq!(fa.unit().to_bits(), fb.unit().to_bits());

        let mut c = DetRng::seed_from_u64(7);
        let mut fc = c.fork("faas");
        // Different label => (overwhelmingly likely) different stream.
        assert_ne!(fa.unit().to_bits(), fc.unit().to_bits());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = DetRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn jitter_stays_in_clamp() {
        let mut rng = DetRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let j = rng.jitter(0.3);
            assert!((0.5..=2.0).contains(&j));
        }
        assert_eq!(rng.jitter(0.0), 1.0);
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = DetRng::seed_from_u64(3);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle should move things");
    }

    #[test]
    fn range_bounds() {
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = rng.range_u64(10, 20);
            assert!((10..20).contains(&x));
            let f = rng.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn uniform_mean_is_plausible() {
        let mut rng = DetRng::seed_from_u64(6);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
