//! # timestats — the statistical machinery of the StopWatch paper
//!
//! Implements everything the paper's security analysis (Sec. III, Sec. V-B,
//! Appendix) needs:
//!
//! * [`dist`] — exponential / uniform / empirical distributions and the
//!   exponential-plus-uniform-noise convolution, behind one [`dist::Cdf`]
//!   trait;
//! * [`order_stats`] — CDFs of order statistics of independent,
//!   non-identically-distributed variables (Güngör et al. Result 2.4), with
//!   the median-of-three closed form the paper's defense rests on;
//! * [`special`] — log-gamma, incomplete gamma, erf, χ² CDF/quantile
//!   (implemented from scratch);
//! * [`detect`] — χ²-based "observations needed to detect the victim"
//!   calculations (Figs. 1b, 1c, 4b);
//! * [`figures`] — Fig. 1 in closed form (CDFs and observation counts);
//! * [`ks`] — Kolmogorov–Smirnov distance and Theorems 3/4;
//! * [`noise`] — the median-vs-uniform-noise delay comparison (Fig. 8).
//!
//! # Examples
//!
//! Reproducing the heart of Fig. 1: the median of three replicas makes a
//! coresident victim dramatically harder to detect.
//!
//! ```
//! use timestats::dist::Exponential;
//! use timestats::order_stats::OrderStat;
//! use timestats::detect::Detector;
//!
//! let base = Exponential::new(1.0);
//! let victim = Exponential::new(0.5);
//!
//! // Without StopWatch the attacker compares raw distributions...
//! let raw = Detector::from_cdfs(&base, &victim, 10);
//! // ...with StopWatch it sees only medians of three replicas, at most one
//! // of which is coresident with the victim.
//! let med_null = OrderStat::median_of_three(base, base, base);
//! let med_alt  = OrderStat::median_of_three(victim, base, base);
//! let sw = Detector::from_cdfs(&med_null, &med_alt, 10);
//!
//! let n_raw = raw.observations_needed(0.95);
//! let n_sw = sw.observations_needed(0.95);
//! assert!(n_sw > 5 * n_raw); // far harder under the median defense
//! ```

pub mod detect;
pub mod dist;
pub mod figures;
pub mod ks;
pub mod noise;
pub mod order_stats;
pub mod special;

pub use detect::{Detector, PAPER_CONFIDENCES};
pub use dist::{Cdf, Empirical, ExpPlusUniform, Exponential, Sample, Shifted, Uniform};
pub use ks::{ks_distance, median_attenuation};
pub use noise::{compare_with_uniform_noise, NoiseComparison};
pub use order_stats::{median3, median_odd, OrderStat};
