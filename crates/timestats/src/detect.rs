//! χ²-based distinguishability: how many observations does an attacker need
//! to reject, at a given confidence, the hypothesis that it is *not*
//! coresident with the victim? (Figs. 1b, 1c, 4b of the paper.)
//!
//! Methodology: bin the observation space into `k` equal-probability bins
//! under the null (no victim) distribution. If the attacker actually samples
//! the alternative (victim present), the Pearson χ² statistic grows linearly
//! in the sample size `N` with slope equal to the χ² divergence
//! `δ = Σ_i (p′_i − p_i)² / p_i`. The expected number of observations for
//! the test to clear the critical value at confidence `c` is therefore
//! `N*(c) = χ²_{k−1}(c) / δ` — the standard non-centrality power
//! approximation. The paper does not spell out its exact test construction;
//! absolute counts may differ by a constant, the *shape* (growth in
//! confidence, with/without-StopWatch gap) is what we reproduce.

use crate::dist::Cdf;
use crate::special::{chi2_cdf, chi2_quantile};
use std::cell::Cell;

/// Interior bin edges giving `k` equal-probability bins under `null`.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn equal_prob_edges<D: Cdf>(null: &D, k: usize) -> Vec<f64> {
    assert!(k >= 2, "need at least two bins");
    (1..k).map(|i| null.quantile(i as f64 / k as f64)).collect()
}

/// Probability mass of each bin (edges as from [`equal_prob_edges`]) under `d`.
///
/// Returns `edges.len() + 1` probabilities summing to 1.
pub fn bin_probs<D: Cdf>(d: &D, edges: &[f64]) -> Vec<f64> {
    let mut probs = Vec::with_capacity(edges.len() + 1);
    let mut prev = 0.0;
    for &e in edges {
        let c = d.cdf(e);
        probs.push((c - prev).max(0.0));
        prev = c;
    }
    probs.push((1.0 - prev).max(0.0));
    probs
}

/// The χ² divergence `Σ (p′ − p)²/p` between binned alternative `alt` and
/// null `null` probabilities.
///
/// Bins with null mass below `1e-12` are skipped (they contribute unbounded,
/// unphysical divergence).
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn chi2_divergence(null: &[f64], alt: &[f64]) -> f64 {
    assert_eq!(null.len(), alt.len(), "bin count mismatch");
    null.iter()
        .zip(alt)
        .filter(|(p, _)| **p > 1e-12)
        .map(|(p, q)| (q - p) * (q - p) / p)
        .sum()
}

/// Pearson χ² statistic of observed counts against expected probabilities.
///
/// # Panics
///
/// Panics if lengths differ or the expected probabilities do not sum to ≈ 1.
pub fn chi2_statistic(counts: &[u64], expected_probs: &[f64]) -> f64 {
    assert_eq!(counts.len(), expected_probs.len(), "bin count mismatch");
    let total: u64 = counts.iter().sum();
    let psum: f64 = expected_probs.iter().sum();
    assert!((psum - 1.0).abs() < 1e-6, "expected probs must sum to 1");
    let n = total as f64;
    counts
        .iter()
        .zip(expected_probs)
        .filter(|(_, p)| **p > 1e-12)
        .map(|(&c, &p)| {
            let e = n * p;
            (c as f64 - e) * (c as f64 - e) / e
        })
        .sum()
}

/// p-value of a Pearson goodness-of-fit test (upper tail, df = bins − 1).
pub fn chi2_gof_pvalue(counts: &[u64], expected_probs: &[f64]) -> f64 {
    let stat = chi2_statistic(counts, expected_probs);
    let df = (counts.len() - 1).max(1) as u32;
    1.0 - chi2_cdf(stat, df)
}

/// A configured distinguishability analysis between a null and an
/// alternative distribution.
///
/// # Examples
///
/// ```
/// use timestats::detect::Detector;
/// use timestats::dist::Exponential;
/// // Distinguishing Exp(1) from Exp(1/2) directly is easy...
/// let direct = Detector::from_cdfs(&Exponential::new(1.0), &Exponential::new(0.5), 10);
/// let n_direct = direct.observations_needed(0.95);
/// // ... and must get strictly harder at higher confidence.
/// assert!(direct.observations_needed(0.99) >= n_direct);
/// ```
#[derive(Debug, Clone)]
pub struct Detector {
    null_probs: Vec<f64>,
    alt_probs: Vec<f64>,
}

impl Detector {
    /// Builds a detector by binning two analytic CDFs into `bins`
    /// equal-probability (under null) bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2`.
    pub fn from_cdfs<N: Cdf, A: Cdf>(null: &N, alt: &A, bins: usize) -> Self {
        let edges = equal_prob_edges(null, bins);
        Detector {
            null_probs: bin_probs(null, &edges),
            alt_probs: bin_probs(alt, &edges),
        }
    }

    /// Like [`Detector::from_cdfs`] but with extra bin edges at the null
    /// quantiles in `tail_qs` (e.g. `[0.99, 0.999]`).
    ///
    /// Tail-sensitive binning matters for the appendix's noise comparison:
    /// uniform noise cannot hide the exponential tail of a victim's timing
    /// distribution, whereas the median of three replicas thins the tail
    /// quadratically. A detector that never looks past the 90th percentile
    /// misses exactly the region where the two defenses differ.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2` or any tail quantile is outside `(0, 1)`.
    pub fn from_cdfs_with_tails<N: Cdf, A: Cdf>(
        null: &N,
        alt: &A,
        bins: usize,
        tail_qs: &[f64],
    ) -> Self {
        let mut edges = equal_prob_edges(null, bins);
        for &q in tail_qs {
            assert!(q > 0.0 && q < 1.0, "tail quantile must be in (0,1)");
            edges.push(null.quantile(q));
        }
        edges.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite edges"));
        edges.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        Detector {
            null_probs: bin_probs(null, &edges),
            alt_probs: bin_probs(alt, &edges),
        }
    }

    /// Builds a detector from two empirical sample sets. Bin edges are the
    /// null sample's quantiles.
    ///
    /// # Panics
    ///
    /// Panics if either sample set is empty or `bins < 2`.
    pub fn from_samples(null: &[f64], alt: &[f64], bins: usize) -> Self {
        let null_d = crate::dist::Empirical::from_samples(null.iter().copied());
        let alt_d = crate::dist::Empirical::from_samples(alt.iter().copied());
        Self::from_cdfs(&null_d, &alt_d, bins)
    }

    /// The binned null probabilities.
    pub fn null_probs(&self) -> &[f64] {
        &self.null_probs
    }

    /// The binned alternative probabilities.
    pub fn alt_probs(&self) -> &[f64] {
        &self.alt_probs
    }

    /// χ² divergence per observation.
    pub fn divergence(&self) -> f64 {
        chi2_divergence(&self.null_probs, &self.alt_probs)
    }

    /// Expected observations needed to reject the null at `confidence`.
    ///
    /// Returns `u64::MAX` when the distributions are (numerically)
    /// indistinguishable.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is outside `(0, 1)`.
    pub fn observations_needed(&self, confidence: f64) -> u64 {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1)"
        );
        let delta = self.divergence();
        if delta < 1e-15 {
            return u64::MAX;
        }
        let df = (self.null_probs.len() - 1).max(1) as u32;
        (critical_value(confidence, df) / delta).ceil() as u64
    }

    /// Sweeps [`Self::observations_needed`] over several confidences,
    /// returning `(confidence, observations)` pairs.
    pub fn sweep(&self, confidences: &[f64]) -> Vec<(f64, u64)> {
        confidences
            .iter()
            .map(|&c| (c, self.observations_needed(c)))
            .collect()
    }
}

/// `chi2_quantile(confidence, df)`, remembered per thread for the last
/// `(confidence, df)` asked: a sweep report's verdicts all ask for the
/// same critical value, and each fresh one is a 200-step bisection. The
/// quantile is a pure function, so a remembered value is bit-identical
/// to a fresh one.
fn critical_value(confidence: f64, df: u32) -> f64 {
    thread_local! {
        static LAST: Cell<Option<(u64, u32, f64)>> = const { Cell::new(None) };
    }
    let key = (confidence.to_bits(), df);
    LAST.with(|last| match last.get() {
        Some((bits, k, crit)) if (bits, k) == key => crit,
        _ => {
            let crit = chi2_quantile(confidence, df);
            last.set(Some((key.0, key.1, crit)));
            crit
        }
    })
}

/// The confidence grid the paper uses on its x-axes (Figs. 1b, 1c, 4b, 8).
pub const PAPER_CONFIDENCES: [f64; 7] = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, Sample, Uniform};
    use crate::order_stats::OrderStat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn equal_prob_edges_split_mass() {
        let e = Exponential::new(1.0);
        let edges = equal_prob_edges(&e, 4);
        assert_eq!(edges.len(), 3);
        let probs = bin_probs(&e, &edges);
        assert_eq!(probs.len(), 4);
        for p in &probs {
            assert!((p - 0.25).abs() < 1e-9, "probs {probs:?}");
        }
    }

    #[test]
    fn divergence_zero_for_identical() {
        let p = vec![0.25; 4];
        assert!(chi2_divergence(&p, &p) < 1e-15);
    }

    #[test]
    fn divergence_positive_for_different() {
        let p = vec![0.25, 0.25, 0.25, 0.25];
        let q = vec![0.4, 0.3, 0.2, 0.1];
        assert!(chi2_divergence(&p, &q) > 0.01);
    }

    #[test]
    fn statistic_matches_hand_computation() {
        // counts [8, 12], expected [0.5, 0.5], n=20 -> E=10 each.
        // chi2 = (8-10)^2/10 + (12-10)^2/10 = 0.8
        let s = chi2_statistic(&[8, 12], &[0.5, 0.5]);
        assert!((s - 0.8).abs() < 1e-12);
    }

    #[test]
    fn gof_pvalue_uniform_counts_high() {
        let p = chi2_gof_pvalue(&[100, 100, 100, 100], &[0.25; 4]);
        assert!(p > 0.99, "perfect fit p-value {p}");
        let p2 = chi2_gof_pvalue(&[400, 0, 0, 0], &[0.25; 4]);
        assert!(p2 < 1e-6, "terrible fit p-value {p2}");
    }

    #[test]
    fn observations_grow_with_confidence() {
        let d = Detector::from_cdfs(&Exponential::new(1.0), &Exponential::new(0.5), 10);
        let sweep = d.sweep(&PAPER_CONFIDENCES);
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1, "non-monotone in confidence: {sweep:?}");
        }
    }

    #[test]
    fn stopwatch_median_needs_many_more_observations() {
        // The Fig. 1b effect: distinguishing medians is much harder than
        // distinguishing the raw distributions.
        let base = Exponential::new(1.0);
        let victim = Exponential::new(0.5);
        let without = Detector::from_cdfs(&base, &victim, 10);
        let m_null = OrderStat::median_of_three(base, base, base);
        let m_alt = OrderStat::median_of_three(victim, base, base);
        let with = Detector::from_cdfs(&m_null, &m_alt, 10);
        let n_without = without.observations_needed(0.95);
        let n_with = with.observations_needed(0.95);
        // Theorem 4 guarantees a KS-distance factor of 2, i.e. a chi-square
        // power factor of at least ~4; empirically the factor is ~6 at this
        // binning and grows with tail-sensitive binning.
        assert!(
            n_with >= 5 * n_without,
            "expected >=5x gap, got {n_with} vs {n_without}"
        );
        let without_t = Detector::from_cdfs_with_tails(&base, &victim, 10, &[0.99, 0.999, 0.9999]);
        let with_t = Detector::from_cdfs_with_tails(&m_null, &m_alt, 10, &[0.99, 0.999, 0.9999]);
        assert!(
            with_t.observations_needed(0.95) > 5 * without_t.observations_needed(0.95),
            "tail-binned gap should also hold"
        );
    }

    #[test]
    fn identical_distributions_unreachable() {
        let e = Exponential::new(1.0);
        let d = Detector::from_cdfs(&e, &e, 10);
        assert_eq!(d.observations_needed(0.95), u64::MAX);
    }

    #[test]
    fn empirical_detector_close_to_analytic() {
        let mut rng = StdRng::seed_from_u64(11);
        let null = Exponential::new(1.0);
        let alt = Exponential::new(0.5);
        let n = 100_000;
        let ns: Vec<f64> = (0..n).map(|_| null.sample(&mut rng)).collect();
        let as_: Vec<f64> = (0..n).map(|_| alt.sample(&mut rng)).collect();
        let emp = Detector::from_samples(&ns, &as_, 10);
        let ana = Detector::from_cdfs(&null, &alt, 10);
        let (de, da) = (emp.divergence(), ana.divergence());
        assert!(
            (de - da).abs() / da < 0.1,
            "empirical {de} vs analytic {da}"
        );
    }

    #[test]
    fn uniform_vs_uniform_shifted() {
        let d = Detector::from_cdfs(&Uniform::new(0.0, 1.0), &Uniform::new(0.1, 1.1), 5);
        assert!(d.observations_needed(0.9) < 1000);
    }

    #[test]
    fn remembered_critical_values_are_bit_identical_to_fresh_ones() {
        // Repeats hit the memo; every change of confidence or df misses.
        for (confidence, df) in [(0.95, 9), (0.95, 9), (0.70, 9), (0.95, 4), (0.95, 9)] {
            assert_eq!(
                critical_value(confidence, df).to_bits(),
                chi2_quantile(confidence, df).to_bits(),
                "confidence {confidence}, df {df}"
            );
        }
        let d = Detector::from_cdfs(&Exponential::new(1.0), &Exponential::new(0.5), 10);
        let fresh = (chi2_quantile(0.95, 9) / d.divergence()).ceil() as u64;
        assert_eq!(d.observations_needed(0.95), fresh);
        assert_eq!(d.observations_needed(0.95), fresh, "served from the memo");
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn bad_confidence_panics() {
        let e = Exponential::new(1.0);
        Detector::from_cdfs(&e, &Exponential::new(0.5), 4).observations_needed(1.0);
    }
}
