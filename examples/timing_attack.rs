//! The Fig. 4 security experiment as a runnable example: the `attack`
//! preset, where an attacker VM measures inter-packet virtual delivery
//! times while a victim VM shares one of its hosts. Prints the mean
//! deltas of the four cells, how many observations an attacker would
//! need to detect the victim with and without StopWatch (Fig. 4b), and
//! the StopWatch CDF series of Fig. 4a. Tables print as CSV: a
//! `# <title>` line, the header, the rows, then a blank line.
//!
//! Run with: `cargo run --release --example timing_attack`

use stopwatch_repro::harness::prelude::*;
use stopwatch_repro::simkit::metrics::Samples;
use stopwatch_repro::timestats::detect::{Detector, PAPER_CONFIDENCES};

/// The attacker-observed deltas of one cell, merged over its seeds.
fn deltas<'a>(report: &'a SweepReport, defense: &str, victim: bool) -> &'a Samples {
    let cell = format!("cfg.defense={defense},victim={victim}");
    &report
        .cells
        .iter()
        .find(|c| c.cell == cell)
        .unwrap_or_else(|| panic!("cell {cell} missing"))
        .samples
}

fn main() {
    let spec = preset("attack").expect("attack preset").spec(false);
    let scenarios = spec.scenarios().expect("preset expands");
    println!(
        "running {} scenarios of the attack preset ...",
        scenarios.len()
    );
    let outcomes = run_scenarios(&scenarios, &RunnerOptions::default());
    let report = SweepReport::from_outcomes(&spec.name, &outcomes, None);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let (sw_null, sw_victim) = (
        deltas(&report, "stopwatch", false),
        deltas(&report, "stopwatch", true),
    );
    let (bl_null, bl_victim) = (
        deltas(&report, "baseline", false),
        deltas(&report, "baseline", true),
    );

    println!("\nmean inter-packet delta observed by the attacker (ms):");
    for (name, d) in [
        ("baseline  no victim", bl_null),
        ("baseline  w/ victim", bl_victim),
        ("stopwatch no victim", sw_null),
        ("stopwatch w/ victim", sw_victim),
    ] {
        println!("  {name}: n={:5} mean={:8.3}", d.len(), d.mean());
    }
    println!();

    let sw = Detector::from_samples(sw_null.as_slice(), sw_victim.as_slice(), 10);
    let bl = Detector::from_samples(bl_null.as_slice(), bl_victim.as_slice(), 10);
    println!("# Fig 4b — observations to distinguish (empirical)");
    println!("confidence,obs_with_stopwatch,obs_without");
    for c in PAPER_CONFIDENCES {
        println!(
            "{c:.2},{},{}",
            sw.observations_needed(c),
            bl.observations_needed(c)
        );
    }
    println!();

    let mut all = sw_null.as_slice().to_vec();
    all.extend_from_slice(sw_victim.as_slice());
    all.sort_by(f64::total_cmp);
    println!("# Fig 4a — StopWatch attacker-observed delta CDFs");
    println!("delta_ms,cdf_no_victim,cdf_with_victim");
    for &x in all.iter().step_by((all.len() / 60).max(1)) {
        println!("{x:.2},{:.4},{:.4}", sw_null.ecdf(x), sw_victim.ecdf(x));
    }
    println!();
}
