//! Lightweight measurement collectors used across the reproduction:
//! running summaries, sample sets with exact percentiles, and counters.

use std::collections::BTreeMap;
use std::fmt;

/// Online running summary (count / mean / variance / min / max) using
/// Welford's algorithm. Constant memory; no percentiles.
///
/// # Examples
///
/// ```
/// use simkit::metrics::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] { s.record(x); }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n;
        self.m2 += other.m2 + d * d * self.n as f64 * other.n as f64 / n;
        self.mean = mean;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.n == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

/// Stores every observation; supports exact quantiles and empirical CDFs.
///
/// # Examples
///
/// ```
/// use simkit::metrics::Samples;
/// let s: Samples = (1..=99).map(|i| i as f64).collect();
/// assert_eq!(s.quantile(0.5), 50.0);
/// assert_eq!(s.quantile(0.0), 1.0);
/// assert_eq!(s.quantile(1.0), 99.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    xs: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples {
            xs: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.xs.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.xs.iter().sum::<f64>() / self.xs.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.xs
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
    }

    /// Exact sample quantile with nearest-rank interpolation.
    ///
    /// # Panics
    ///
    /// Panics when empty or when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.xs.is_empty(), "quantile of empty sample set");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let mut me = self.clone();
        me.ensure_sorted();
        let idx = (q * (me.xs.len() - 1) as f64).round() as usize;
        me.xs[idx]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Empirical CDF evaluated at `x`: fraction of observations `<= x`.
    pub fn ecdf(&self, x: f64) -> f64 {
        if self.xs.is_empty() {
            return 0.0;
        }
        let mut me = self.clone();
        me.ensure_sorted();
        let cnt = me.xs.partition_point(|&v| v <= x);
        cnt as f64 / me.xs.len() as f64
    }

    /// Consumes the set and returns the sorted observations.
    pub fn into_sorted(mut self) -> Vec<f64> {
        self.ensure_sorted();
        self.xs
    }

    /// A view of the raw (insertion-ordered) observations.
    pub fn as_slice(&self) -> &[f64] {
        &self.xs
    }

    /// Converts to a [`Summary`].
    pub fn summary(&self) -> Summary {
        let mut s = Summary::new();
        for &x in &self.xs {
            s.record(x);
        }
        s
    }

    /// Merges another sample set into this one (observation multiset
    /// union, like [`Summary::merge`] but keeping exact quantiles).
    ///
    /// # Examples
    ///
    /// ```
    /// use simkit::metrics::Samples;
    /// let mut a: Samples = [1.0, 3.0].into_iter().collect();
    /// let b: Samples = [2.0].into_iter().collect();
    /// a.merge(&b);
    /// assert_eq!(a.median(), 2.0);
    /// ```
    pub fn merge(&mut self, other: &Samples) {
        self.xs.extend_from_slice(&other.xs);
        self.sorted = self.xs.len() <= 1;
    }

    /// Exports the standard percentile summary used in reports, sorting
    /// the observations once for all eight statistics.
    pub fn percentiles(&self) -> Percentiles {
        if self.is_empty() {
            return Percentiles::default();
        }
        let mut xs = self.xs.clone();
        xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
        // Same nearest-rank rule as [`Samples::quantile`].
        let at = |q: f64| xs[(q * (xs.len() - 1) as f64).round() as usize];
        Percentiles {
            count: xs.len() as u64,
            mean: self.mean(),
            min: xs[0],
            p50: at(0.5),
            p90: at(0.9),
            p95: at(0.95),
            p99: at(0.99),
            max: xs[xs.len() - 1],
        }
    }
}

/// A fixed percentile summary of one sample set — the exchange format
/// merged aggregates are reported in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentiles {
    /// Number of observations (0 means every other field is 0).
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for Samples {
    /// Records every value of `iter`, reserving its lower size hint first
    /// as `Vec::extend` does.
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.xs.reserve(iter.size_hint().0);
        for x in iter {
            self.record(x);
        }
    }
}

/// A set of named monotone counters, kept in name order.
///
/// # Examples
///
/// ```
/// use simkit::metrics::Counters;
/// let mut c = Counters::new();
/// c.add("disk_irq", 2);
/// c.add("disk_irq", 1);
/// assert_eq!(c.get("disk_irq"), 3);
/// assert_eq!(c.get("missing"), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counters {
    map: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.map.entry(name).or_insert(0) += n;
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_matches_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut a = Summary::new();
        a.record(1.0);
        let before = a.mean();
        a.merge(&Summary::new());
        assert_eq!(a.mean(), before);
        let mut e = Summary::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
    }

    #[test]
    fn samples_quantiles_and_ecdf() {
        let s: Samples = [5.0, 1.0, 3.0, 2.0, 4.0].into_iter().collect();
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.ecdf(3.0) - 0.6).abs() < 1e-12);
        assert_eq!(s.ecdf(0.5), 0.0);
        assert_eq!(s.ecdf(10.0), 1.0);
    }

    #[test]
    fn samples_into_sorted() {
        let s: Samples = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(s.into_sorted(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn samples_reject_nan() {
        Samples::new().record(f64::NAN);
    }

    #[test]
    fn samples_extend_reserves_an_exact_size_hint() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut s = Samples::new();
        s.extend(values.iter().copied());
        assert_eq!(s.len(), 1000);
        assert_eq!(s.xs.capacity(), 1000, "one exact reservation");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn samples_extend_rejects_nan() {
        Samples::new().extend([1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        Samples::new().quantile(0.5);
    }

    #[test]
    fn samples_merge_matches_combined() {
        let mut a: Samples = [5.0, 1.0].into_iter().collect();
        let b: Samples = [3.0, 2.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.median(), 3.0);
        assert_eq!(a.quantile(1.0), 5.0);
        let p = a.percentiles();
        assert_eq!(p.count, 5);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.p50, 3.0);
        assert_eq!(p.max, 5.0);
        assert!((p.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let p = Samples::new().percentiles();
        assert_eq!(p, Percentiles::default());
        assert_eq!(p.count, 0);
    }

    #[test]
    fn counters_roundtrip() {
        let mut c = Counters::new();
        c.add("c", 1);
        c.add("b", 5);
        c.add("a", 0);
        c.add("b", 2);
        assert_eq!(c.get("a"), 0);
        assert_eq!(c.get("b"), 7);
        assert_eq!(c.get("c"), 1);
        assert_eq!(c.get("d"), 0);
        let rows: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(rows, [("a", 0), ("b", 7), ("c", 1)]);
    }
}
