//! Deterministic, stream-splittable randomness for simulations.
//!
//! Every source of stochastic behaviour (host speed jitter, disk access
//! draws, link latencies, workload arrivals) pulls from its own named
//! sub-stream derived from one master seed. Two runs with the same seed are
//! bit-identical; changing one component's draw count never perturbs another
//! component's stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// The FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Derives a child seed from `seed` and a label's FNV-1a hash with the
/// SplitMix64 finalizer.
fn derive_seed(seed: u64, label_hash: u64) -> u64 {
    let mut z = seed ^ label_hash;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic RNG stream.
///
/// # Examples
///
/// ```
/// use simkit::rng::SimRng;
/// let mut a = SimRng::new(7).stream("disk");
/// let mut b = SimRng::new(7).stream("disk");
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut c = SimRng::new(7).stream("net");
/// assert_ne!(SimRng::new(7).stream("disk").next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates the master stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SimRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream identified by `label`.
    pub fn stream(&self, label: &str) -> SimRng {
        self.child(fnv1a(FNV_OFFSET, label.as_bytes()))
    }

    /// Derives an independent child stream identified by `label` and `index`
    /// (e.g. one stream per host): the stream labelled `"{label}#{index}"`,
    /// hashed piecewise so no label string is built.
    pub fn stream_indexed(&self, label: &str, index: usize) -> SimRng {
        let mut digits = [0u8; 20]; // usize::MAX has 20 decimal digits
        let mut start = digits.len();
        let mut rest = index;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let h = fnv1a(fnv1a(FNV_OFFSET, label.as_bytes()), b"#");
        self.child(fnv1a(h, &digits[start..]))
    }

    fn child(&self, label_hash: u64) -> SimRng {
        let child = derive_seed(self.seed, label_hash);
        SimRng {
            seed: child,
            inner: StdRng::seed_from_u64(child),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "bad range");
        self.inner.random_range(lo..hi)
    }

    /// Picks a uniformly random index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() on empty range");
        self.inner.random_range(0..n)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform01() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed draw with rate `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        let u = self.uniform01();
        -(1.0 - u).ln() / lambda
    }

    /// Standard-normal draw (Box–Muller; one value per call).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative standard deviation");
        let u1 = loop {
            let u = self.uniform01();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform01();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        let mean_s = mean.as_secs_f64();
        if mean_s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.exponential(1.0 / mean_s))
    }

    /// Uniform duration in `[lo, hi)`.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        if hi <= lo {
            return lo;
        }
        SimDuration::from_nanos(self.uniform_u64(lo.as_nanos(), hi.as_nanos()))
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let root = SimRng::new(1);
        let mut xs = Vec::new();
        for label in ["a", "b", "c", "a#0", "a#1"] {
            xs.push(root.stream(label).next_u64());
        }
        xs.sort_unstable();
        xs.dedup();
        assert_eq!(xs.len(), 5, "all derived streams must differ");
    }

    #[test]
    fn stream_indexed_matches_manual_label() {
        let root = SimRng::new(9);
        assert_eq!(
            root.stream_indexed("host", 3).next_u64(),
            root.stream("host#3").next_u64()
        );
    }

    #[test]
    fn stream_indexed_hashes_exactly_the_formatted_label() {
        let root = SimRng::new(0x5eed);
        let large = [
            1_000,
            9_999,
            10_000,
            123_456_789,
            u32::MAX as usize,
            usize::MAX,
        ];
        for label in ["epoch", "host-speed", ""] {
            for i in (0..1000).chain(large) {
                let formatted = root.stream(&format!("{label}#{i}"));
                let mut indexed = root.stream_indexed(label, i);
                assert_eq!(indexed.seed, formatted.seed, "{label}#{i}");
                assert_eq!(indexed.next_u64(), formatted.clone().next_u64());
            }
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let n = r.uniform_u64(10, 20);
            assert!((10..20).contains(&n));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03);
        assert!((var - 4.0).abs() < 0.1);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0), "clamped above 1");
    }

    #[test]
    fn exp_duration_zero_mean() {
        let mut r = SimRng::new(4);
        assert_eq!(r.exp_duration(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(21);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
