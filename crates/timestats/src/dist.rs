//! Distributions used throughout the paper's analysis: the exponential
//! baseline/victim models, uniform noise, the exponential-plus-uniform
//! convolution (the "add random noise" alternative of the appendix), and
//! empirical distributions built from simulation traces.

use rand::Rng;

/// A cumulative distribution function over the reals.
///
/// Implementors must be proper CDFs: monotone non-decreasing, with limits
/// 0 and 1. All distributions in this crate have support on `[0, ∞)`.
pub trait Cdf {
    /// `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Smallest `x` with `cdf(x) >= q`, found by bracketing + bisection.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1)`.
    fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile arg must be in [0,1)");
        if q == 0.0 {
            return 0.0;
        }
        let mut hi = 1.0;
        while self.cdf(hi) < q {
            hi *= 2.0;
            assert!(hi.is_finite(), "quantile failed to bracket");
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Mean of a non-negative random variable, `∫₀^∞ (1 - F(x)) dx`,
    /// by trapezoidal integration up to the `1 - 1e-9` quantile.
    fn mean_nonneg(&self) -> f64 {
        let upper = self.quantile(1.0 - 1e-9).max(1e-12);
        let n = 20_000;
        let h = upper / n as f64;
        let mut acc = 0.0;
        let mut prev = 1.0 - self.cdf(0.0);
        for i in 1..=n {
            let x = i as f64 * h;
            let cur = 1.0 - self.cdf(x);
            acc += 0.5 * (prev + cur) * h;
            prev = cur;
        }
        acc
    }
}

/// Draws samples; separated from [`Cdf`] because some CDFs (e.g. analytic
/// order statistics) are never sampled directly.
pub trait Sample {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Exponential distribution with rate `λ` (mean `1/λ`).
///
/// The paper models baseline inter-event timings as `Exp(λ)` and
/// victim-influenced timings as `Exp(λ′)` with `λ′ < λ` (Fig. 1).
///
/// # Examples
///
/// ```
/// use timestats::dist::{Cdf, Exponential};
/// let e = Exponential::new(1.0);
/// assert!((e.cdf(1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
/// assert!((e.mean_nonneg() - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Exponential { rate }
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Cdf for Exponential {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile arg must be in [0,1)");
        -(1.0 - q).ln() / self.rate
    }

    fn mean_nonneg(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        -(1.0 - u).ln() / self.rate
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        Uniform { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl Cdf for Uniform {
    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (x - self.lo) / (self.hi - self.lo)
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile arg must be in [0,1)");
        self.lo + q * (self.hi - self.lo)
    }

    fn mean_nonneg(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl Sample for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        self.lo + u * (self.hi - self.lo)
    }
}

/// The convolution `X + N` where `X ~ Exp(λ)` and `N ~ U(0, b)`: the
/// "obscure timings with uniformly random noise" alternative that the
/// appendix compares StopWatch against (Fig. 8).
///
/// Closed form:
/// `F(x) = (x - (1 - e^{-λx})/λ)/b` for `0 < x < b`, and
/// `F(x) = 1 - (e^{-λ(x-b)} - e^{-λx})/(λ b)` for `x >= b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpPlusUniform {
    rate: f64,
    b: f64,
}

impl ExpPlusUniform {
    /// Creates the convolution with exponential rate `rate` and noise bound `b`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are strictly positive and finite.
    pub fn new(rate: f64, b: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        assert!(b > 0.0 && b.is_finite(), "noise bound must be positive");
        ExpPlusUniform { rate, b }
    }

    /// The exponential rate λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The noise upper bound `b`.
    pub fn noise_bound(&self) -> f64 {
        self.b
    }
}

impl Cdf for ExpPlusUniform {
    fn cdf(&self, x: f64) -> f64 {
        let (l, b) = (self.rate, self.b);
        if x <= 0.0 {
            0.0
        } else if x < b {
            (x - (1.0 - (-l * x).exp()) / l) / b
        } else {
            1.0 - ((-l * (x - b)).exp() - (-l * x).exp()) / (l * b)
        }
    }

    fn mean_nonneg(&self) -> f64 {
        1.0 / self.rate + self.b / 2.0
    }
}

impl Sample for ExpPlusUniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Exponential::new(self.rate).sample(rng) + Uniform::new(0.0, self.b).sample(rng)
    }
}

/// A distribution shifted right by a constant (e.g. `X_{2:3} + Δn`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shifted<D> {
    inner: D,
    shift: f64,
}

impl<D> Shifted<D> {
    /// Wraps `inner`, shifting it right by `shift >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is negative or non-finite.
    pub fn new(inner: D, shift: f64) -> Self {
        assert!(shift >= 0.0 && shift.is_finite(), "shift must be >= 0");
        Shifted { inner, shift }
    }

    /// The wrapped distribution.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The shift amount.
    pub fn shift(&self) -> f64 {
        self.shift
    }
}

impl<D: Cdf> Cdf for Shifted<D> {
    fn cdf(&self, x: f64) -> f64 {
        self.inner.cdf(x - self.shift)
    }

    fn mean_nonneg(&self) -> f64 {
        self.inner.mean_nonneg() + self.shift
    }
}

impl<D: Sample> Sample for Shifted<D> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inner.sample(rng) + self.shift
    }
}

/// Empirical distribution over a recorded sample (e.g. inter-packet virtual
/// delivery times from a simulation run, as in Fig. 4).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Empirical {
    sorted: Vec<f64>,
}

impl Empirical {
    /// Builds an empirical CDF from observations (any order).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains NaN.
    pub fn from_samples(xs: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = xs.into_iter().collect();
        assert!(!sorted.is_empty(), "empirical distribution needs samples");
        assert!(sorted.iter().all(|x| !x.is_nan()), "NaN sample");
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Empirical { sorted }
    }

    /// Number of underlying observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` iff there are no observations (unreachable through the public
    /// constructor; kept for completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

impl Cdf for Empirical {
    fn cdf(&self, x: f64) -> f64 {
        let cnt = self.sorted.partition_point(|&v| v <= x);
        cnt as f64 / self.sorted.len() as f64
    }

    fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile arg must be in [0,1)");
        let idx = (q * self.sorted.len() as f64).floor() as usize;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    fn mean_nonneg(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

impl Cdf for Box<dyn Cdf + '_> {
    fn cdf(&self, x: f64) -> f64 {
        (**self).cdf(x)
    }
}

impl<D: Cdf + ?Sized> Cdf for &D {
    fn cdf(&self, x: f64) -> f64 {
        (**self).cdf(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_cdf_and_quantile() {
        let e = Exponential::new(2.0);
        assert_eq!(e.cdf(0.0), 0.0);
        assert_eq!(e.cdf(-1.0), 0.0);
        assert!((e.cdf(0.5) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        let q = e.quantile(0.5);
        assert!((e.cdf(q) - 0.5).abs() < 1e-12);
        assert!((e.mean_nonneg() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exponential_sample_mean() {
        let e = Exponential::new(4.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let m: f64 = (0..n).map(|_| e.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((m - 0.25).abs() < 0.01);
    }

    #[test]
    fn uniform_cdf() {
        let u = Uniform::new(1.0, 3.0);
        assert_eq!(u.cdf(0.5), 0.0);
        assert_eq!(u.cdf(3.5), 1.0);
        assert!((u.cdf(2.0) - 0.5).abs() < 1e-12);
        assert!((u.quantile(0.25) - 1.5).abs() < 1e-12);
        assert!((u.mean_nonneg() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exp_plus_uniform_matches_monte_carlo() {
        let d = ExpPlusUniform::new(1.0, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        for &x in &[0.5, 1.0, 2.0, 3.0, 5.0] {
            let emp = samples.iter().filter(|&&v| v <= x).count() as f64 / n as f64;
            assert!(
                (d.cdf(x) - emp).abs() < 0.005,
                "x={x}: analytic {} vs mc {}",
                d.cdf(x),
                emp
            );
        }
        assert!((d.mean_nonneg() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exp_plus_uniform_is_continuous_at_b() {
        let d = ExpPlusUniform::new(1.3, 0.7);
        let below = d.cdf(0.7 - 1e-9);
        let above = d.cdf(0.7 + 1e-9);
        assert!((below - above).abs() < 1e-6);
    }

    #[test]
    fn shifted_shifts() {
        let s = Shifted::new(Exponential::new(1.0), 2.0);
        assert_eq!(s.cdf(1.9), 0.0);
        assert!((s.cdf(3.0) - Exponential::new(1.0).cdf(1.0)).abs() < 1e-12);
        assert!((s.mean_nonneg() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_cdf_steps() {
        let e = Empirical::from_samples([3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.cdf(0.9), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(3.0), 1.0);
        assert!((e.mean_nonneg() - 2.0).abs() < 1e-12);
        assert_eq!(e.quantile(0.5), 2.0);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empirical_empty_panics() {
        Empirical::from_samples(std::iter::empty());
    }

    #[test]
    fn default_quantile_via_bisection() {
        // ExpPlusUniform has no closed-form quantile; exercise the default.
        let d = ExpPlusUniform::new(1.0, 1.0);
        for &q in &[0.1, 0.5, 0.9, 0.999] {
            let x = d.quantile(q);
            assert!((d.cdf(x) - q).abs() < 1e-9, "q={q}");
        }
    }

    #[test]
    fn generic_mean_matches_closed_form() {
        let d = ExpPlusUniform::new(2.0, 3.0);
        // Generic integration path vs closed form.
        struct Opaque<'a>(&'a ExpPlusUniform);
        impl Cdf for Opaque<'_> {
            fn cdf(&self, x: f64) -> f64 {
                self.0.cdf(x)
            }
        }
        let generic = Opaque(&d).mean_nonneg();
        assert!(
            (generic - d.mean_nonneg()).abs() < 1e-3,
            "generic {generic}"
        );
    }
}
