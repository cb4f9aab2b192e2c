//! The paper's closed-form figures: Fig. 1 (why the median of three hides
//! a victim) and Fig. 8 (StopWatch against uniform random noise), for
//! baseline rate λ = 1 and victim rates λ′ = 1/2 and 10/11.
//!
//! Each table prints as CSV on stdout: a `# <title>` line, the header,
//! the rows, then a blank line.
//!
//! Run with: `cargo run --release --example analytic_figures`

use stopwatch_repro::timestats::detect::PAPER_CONFIDENCES;
use stopwatch_repro::timestats::figures;
use stopwatch_repro::timestats::noise::compare_with_uniform_noise;

/// χ² bins of the Fig. 8 detectors (the paper's granularity).
const BINS: usize = 10;

fn fig1(panel: &str, lambda_prime: f64) {
    let f = figures::fig1(lambda_prime);

    println!("# Fig 1a (lambda'={lambda_prime:.4}) — CDFs");
    println!("x,baseline,victim,median_3_baselines,median_2_baselines_1_victim");
    for p in &f.curves {
        println!(
            "{:.2},{:.4},{:.4},{:.4},{:.4}",
            p.x, p.baseline, p.victim, p.median_three_baselines, p.median_with_victim
        );
    }
    println!();

    println!("# Fig 1{panel} (lambda'={lambda_prime:.4}) — observations to detect victim");
    println!("confidence,obs_with_stopwatch,obs_without");
    for p in &f.detection {
        println!(
            "{:.2},{},{}",
            p.confidence, p.with_stopwatch, p.without_stopwatch
        );
    }
    println!();
}

fn fig8(panel: &str, lambda_prime: f64) {
    println!("# Fig 8{panel} (lambda'={lambda_prime:.4}) — StopWatch vs uniform noise");
    println!(
        "confidence,observations,delta_n,noise_bound_b,E[X23+dn],E[X'23+dn],E[X1+XN],E[X'1+XN]"
    );
    for r in compare_with_uniform_noise(1.0, lambda_prime, &PAPER_CONFIDENCES, BINS, 0.9999) {
        println!(
            "{:.2},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}",
            r.confidence,
            r.observations,
            r.delta_n,
            r.noise_bound,
            r.stopwatch_delay_null,
            r.stopwatch_delay_victim,
            r.noise_delay_null,
            r.noise_delay_victim
        );
    }
    println!();
}

fn main() {
    fig1("b", 0.5);
    fig1("c", 10.0 / 11.0);
    fig8("a", 0.5);
    fig8("b", 10.0 / 11.0);
}
