//! Fig. 1 in closed form: why the median of three replicas hides a
//! coresident victim. Baseline delays are Exp(1) and the victim's are
//! Exp(λ′); panel (a) compares the CDFs, panels (b)/(c) count the
//! observations a χ² test needs to tell the victim apart.
//! `examples/analytic_figures.rs` prints both.

use crate::detect::{Detector, PAPER_CONFIDENCES};
use crate::dist::{Cdf, Exponential};
use crate::noise::TAIL_QS;
use crate::order_stats::OrderStat;

/// χ² bins of the Fig. 1 detectors (the paper's granularity).
const BINS: usize = 10;

/// Fig. 1a at one point `x`.
#[derive(Debug, Clone, Copy)]
pub struct Fig1CurvePoint {
    /// Evaluation point x.
    pub x: f64,
    /// Baseline Exp(1) CDF.
    pub baseline: f64,
    /// Victim Exp(λ′) CDF.
    pub victim: f64,
    /// CDF of the median of three baselines.
    pub median_three_baselines: f64,
    /// CDF of the median of two baselines and the victim.
    pub median_with_victim: f64,
}

/// Fig. 1b/c at one confidence.
#[derive(Debug, Clone, Copy)]
pub struct Fig1DetectPoint {
    /// Test confidence.
    pub confidence: f64,
    /// Observations needed with StopWatch (median of three).
    pub with_stopwatch: u64,
    /// Observations needed without StopWatch (raw distributions).
    pub without_stopwatch: u64,
}

/// Fig. 1 for one victim rate λ′.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Panel (a) at x = 0.0, 0.1, …, 6.0.
    pub curves: Vec<Fig1CurvePoint>,
    /// Panel (b)/(c) at each of [`PAPER_CONFIDENCES`], tail-binned.
    pub detection: Vec<Fig1DetectPoint>,
}

/// Computes Fig. 1 for baseline rate 1 and victim rate `lambda_prime`.
pub fn fig1(lambda_prime: f64) -> Fig1 {
    let base = Exponential::new(1.0);
    let victim = Exponential::new(lambda_prime);
    let med_null = OrderStat::median_of_three(base, base, base);
    let med_alt = OrderStat::median_of_three(victim, base, base);
    let curves = (0..=60)
        .map(|i| {
            let x = i as f64 * 0.1;
            Fig1CurvePoint {
                x,
                baseline: base.cdf(x),
                victim: victim.cdf(x),
                median_three_baselines: med_null.cdf(x),
                median_with_victim: med_alt.cdf(x),
            }
        })
        .collect();
    let raw = Detector::from_cdfs_with_tails(&base, &victim, BINS, TAIL_QS);
    let med = Detector::from_cdfs_with_tails(&med_null, &med_alt, BINS, TAIL_QS);
    let detection = PAPER_CONFIDENCES
        .iter()
        .map(|&confidence| Fig1DetectPoint {
            confidence,
            with_stopwatch: med.observations_needed(confidence),
            without_stopwatch: raw.observations_needed(confidence),
        })
        .collect();
    Fig1 { curves, detection }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shapes() {
        let f = fig1(0.5);
        assert_eq!(f.curves.len(), 61);
        // The two median curves are closer together than the raw pair.
        let mid = &f.curves[20]; // x = 2.0
        let raw_gap = (mid.baseline - mid.victim).abs();
        let med_gap = (mid.median_three_baselines - mid.median_with_victim).abs();
        assert!(med_gap < raw_gap);
        // Detection: StopWatch needs more observations, monotone in
        // confidence.
        for p in &f.detection {
            assert!(p.with_stopwatch > p.without_stopwatch);
        }
        for w in f.detection.windows(2) {
            assert!(w[1].with_stopwatch >= w[0].with_stopwatch);
        }
    }
}
