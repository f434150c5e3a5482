//! Deterministic, forkable random number generation.
//!
//! Reproducibility is a core requirement of the simulator: a figure in
//! EXPERIMENTS.md must regenerate bit-for-bit from its seed. [`DetRng`] wraps
//! a [`rand::rngs::StdRng`] seeded from a single `u64`, and adds *forking*:
//! deriving an independent child stream from a label, so that e.g. the
//! network-latency stream and the device-churn stream never interleave (and
//! therefore adding draws to one cannot perturb the other).

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A deterministic RNG with labelled forking.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: StdRng,
}

/// Mixes a 64-bit value (SplitMix64 finalizer). Used to derive fork seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a label into a 64-bit stream discriminator (FNV-1a).
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl DetRng {
    /// Creates a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            inner: StdRng::seed_from_u64(mix64(seed)),
        }
    }

    /// Derives an independent generator for the given label.
    ///
    /// Forking depends only on `(seed, label)` — not on how many values were
    /// drawn from `self` — so subsystems stay decoupled.
    pub fn fork(&self, label: &str) -> DetRng {
        DetRng::new(mix64(self.seed ^ hash_label(label)))
    }

    /// Derives an independent generator for a label plus numeric index
    /// (e.g. one stream per device).
    pub fn fork_indexed(&self, label: &str, index: u64) -> DetRng {
        DetRng::new(mix64(self.seed ^ hash_label(label) ^ mix64(index)))
    }

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Uniform draw from a range, e.g. `rng.range(0..10)`.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// Exponential draw with the given mean (inverse-CDF method).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "exponential mean must be positive");
        // Use 1 - u to avoid ln(0).
        let u: f64 = 1.0 - self.inner.gen::<f64>();
        -mean * u.ln()
    }

    /// Standard normal draw (Box–Muller; one value per call for simplicity).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = 1.0 - self.inner.gen::<f64>();
        let u2: f64 = self.inner.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal draw parameterized by the *median* and sigma of the
    /// underlying normal. Used for heavy-tailed opportunistic delays.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0, "log-normal median must be positive");
        let z = self.normal(0.0, 1.0);
        median * (sigma * z).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.inner);
    }

    /// Samples `k` distinct indices from `0..n` (floyd's algorithm via
    /// shuffle of a prefix; O(n) but simple and deterministic).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.range(i..n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Picks one element of a slice uniformly (panics on empty input).
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick on empty slice");
        &items[self.range(0..items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be essentially disjoint");
    }

    #[test]
    fn fork_is_independent_of_draw_position() {
        let root = DetRng::new(99);
        let f1 = root.fork("network");
        let mut drained = DetRng::new(99);
        for _ in 0..1000 {
            drained.next_u64();
        }
        let f2 = drained.fork("network");
        let mut f1 = f1;
        let mut f2 = f2;
        for _ in 0..10 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn fork_labels_distinguish_streams() {
        let root = DetRng::new(5);
        let mut a = root.fork("alpha");
        let mut b = root.fork("beta");
        assert_ne!(a.next_u64(), b.next_u64());
        let mut i0 = root.fork_indexed("dev", 0);
        let mut i1 = root.fork_indexed("dev", 1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_is_calibrated() {
        let mut rng = DetRng::new(11);
        let hits = (0..20_000).filter(|_| rng.chance(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn exponential_mean_is_calibrated() {
        let mut rng = DetRng::new(13);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "got {mean}");
    }

    #[test]
    fn normal_moments_are_calibrated() {
        let mut rng = DetRng::new(17);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = DetRng::new(23);
        let s = rng.sample_indices(50, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(s.iter().all(|&i| i < 50));
        // k > n clamps
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
        assert!(rng.sample_indices(0, 5).is_empty());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn log_normal_median_is_calibrated() {
        let mut rng = DetRng::new(31);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.log_normal(8.0, 0.75)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!((median - 8.0).abs() < 0.5, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }
}
