//! Experiment implementations, one per figure of the paper's evaluation.
//! Each returns plain data rows; the `experiments` binary renders them as
//! tables and CSV.
//!
//! Simulated runs are declared as [`harness`] scenarios and executed
//! through its parallel runner, so a figure's grid points run concurrently
//! on all cores and every run shares the one scenario→cloud construction
//! path (no per-figure cloud wiring).

use harness::prelude::*;
use simkit::time::SimDuration;
use stopwatch_core::config::DiskKind;
use timestats::detect::{Detector, PAPER_CONFIDENCES};
use timestats::dist::{Cdf, Exponential};
use timestats::noise::{compare_with_uniform_noise, NoiseComparison, TAIL_QS};
use timestats::order_stats::OrderStat;
use workloads::attack::run_attack_scenario;
use workloads::parsec::PARSEC;

/// Fig. 1a: one point of the analytic median-distribution curves.
#[derive(Debug, Clone, Copy)]
pub struct Fig1CurvePoint {
    /// Evaluation point x.
    pub x: f64,
    /// Baseline Exp(λ) CDF.
    pub baseline: f64,
    /// Victim Exp(λ′) CDF.
    pub victim: f64,
    /// CDF of median of three baselines.
    pub median_three_baselines: f64,
    /// CDF of median of two baselines + one victim.
    pub median_with_victim: f64,
}

/// Fig. 1b/c: observations needed at one confidence.
#[derive(Debug, Clone, Copy)]
pub struct Fig1DetectPoint {
    /// Test confidence.
    pub confidence: f64,
    /// Observations needed with StopWatch (median of three).
    pub with_stopwatch: u64,
    /// Observations needed without StopWatch (raw distributions).
    pub without_stopwatch: u64,
}

/// Full Fig. 1 output.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// λ′ of the victim distribution.
    pub lambda_prime: f64,
    /// The (a) panel curves.
    pub curves: Vec<Fig1CurvePoint>,
    /// The (b)/(c) panel sweep.
    pub detection: Vec<Fig1DetectPoint>,
}

/// Reproduces Fig. 1 analytically for `lambda = 1` and the given `λ′`.
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
    let raw = Detector::from_cdfs_with_tails(&base, &victim, 10, TAIL_QS);
    let med = Detector::from_cdfs_with_tails(&med_null, &med_alt, 10, TAIL_QS);
    let detection = PAPER_CONFIDENCES
        .iter()
        .map(|&confidence| Fig1DetectPoint {
            confidence,
            with_stopwatch: med.observations_needed(confidence),
            without_stopwatch: raw.observations_needed(confidence),
        })
        .collect();
    Fig1 {
        lambda_prime,
        curves,
        detection,
    }
}

/// Fig. 4: attacker-measured inter-packet virtual delivery times from real
/// simulation runs, with and without a coresident victim, plus the
/// χ²-observations sweep on the empirical distributions.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Deltas with no victim coresident ("median of three baselines").
    pub null_deltas_ms: Vec<f64>,
    /// Deltas with the victim coresident with one replica.
    pub victim_deltas_ms: Vec<f64>,
    /// Same pair measured WITHOUT StopWatch (baseline Xen).
    pub baseline_null_ms: Vec<f64>,
    /// Baseline with victim.
    pub baseline_victim_ms: Vec<f64>,
    /// (confidence, with StopWatch, without StopWatch).
    pub detection: Vec<Fig1DetectPoint>,
}

/// Runs the Fig. 4 experiment with `probes` probe packets per scenario.
pub fn fig4(probes: u32, seed: u64) -> Fig4 {
    let sw_null = run_attack_scenario(true, false, probes, seed);
    let sw_victim = run_attack_scenario(true, true, probes, seed);
    let bl_null = run_attack_scenario(false, false, probes, seed);
    let bl_victim = run_attack_scenario(false, true, probes, seed);
    let bins = 10;
    let sw = Detector::from_samples(&sw_null.deltas_ms, &sw_victim.deltas_ms, bins);
    let bl = Detector::from_samples(&bl_null.deltas_ms, &bl_victim.deltas_ms, bins);
    let detection = PAPER_CONFIDENCES
        .iter()
        .map(|&confidence| Fig1DetectPoint {
            confidence,
            with_stopwatch: sw.observations_needed(confidence),
            without_stopwatch: bl.observations_needed(confidence),
        })
        .collect();
    Fig4 {
        null_deltas_ms: sw_null.deltas_ms,
        victim_deltas_ms: sw_victim.deltas_ms,
        baseline_null_ms: bl_null.deltas_ms,
        baseline_victim_ms: bl_victim.deltas_ms,
        detection,
    }
}

/// One Fig. 5 row: mean retrieval latency for one file size.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// File size in bytes.
    pub bytes: u64,
    /// HTTP over unmodified Xen, ms.
    pub http_baseline_ms: f64,
    /// HTTP over StopWatch, ms.
    pub http_stopwatch_ms: f64,
    /// UDP-NAK over unmodified Xen, ms.
    pub udp_baseline_ms: f64,
    /// UDP-NAK over StopWatch, ms.
    pub udp_stopwatch_ms: f64,
}

/// The figures' shared scenario shape: a single protected (or baseline)
/// service VM under the paper's default cloud, measured by one client.
fn figure_scenario(
    workload: &str,
    stopwatch: bool,
    params: &[(&str, &str)],
    overrides: &[(&str, &str)],
    seed: u64,
) -> Scenario {
    let arm = if stopwatch { "stopwatch" } else { "baseline" };
    let mut s = Scenario::new(workload, seed);
    s.label = format!("{workload}:{arm}#{seed}");
    s.duration = SimDuration::from_secs(600);
    s.workload_params = params
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    s.overrides = overrides
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    s.overrides.push(("defense".to_string(), arm.to_string()));
    s
}

/// Runs a figure's scenario list on all cores, asserting success.
fn run_figure(scenarios: &[Scenario]) -> Vec<ScenarioResult> {
    run_scenarios(scenarios, &RunnerOptions::default())
        .into_iter()
        .map(|o| o.result.expect("figure scenario"))
        .collect()
}

fn mean_ms(result: &ScenarioResult) -> f64 {
    assert!(!result.samples_ms.is_empty(), "no operations completed");
    result.samples_ms.iter().sum::<f64>() / result.samples_ms.len() as f64
}

/// Like [`mean_ms`] but NaN when nothing completed — for figures whose
/// overload points may legitimately time out with zero finished ops.
fn mean_ms_or_nan(result: &ScenarioResult) -> f64 {
    if result.samples_ms.is_empty() {
        f64::NAN
    } else {
        mean_ms(result)
    }
}

/// Runs Fig. 5 for the given file sizes, `downloads` repetitions each.
/// All `4 × sizes` grid points execute in parallel.
pub fn fig5(sizes: &[u64], downloads: u32, seed: u64) -> Vec<Fig5Row> {
    let downloads = downloads.to_string();
    let mut scenarios = Vec::new();
    for &bytes in sizes {
        let bytes_s = bytes.to_string();
        let params = [
            ("bytes", bytes_s.as_str()),
            ("downloads", downloads.as_str()),
        ];
        for workload in ["web-http", "web-udp"] {
            for stopwatch in [false, true] {
                scenarios.push(figure_scenario(workload, stopwatch, &params, &[], seed));
            }
        }
    }
    let results = run_figure(&scenarios);
    sizes
        .iter()
        .zip(results.chunks_exact(4))
        .map(|(&bytes, chunk)| Fig5Row {
            bytes,
            http_baseline_ms: mean_ms(&chunk[0]),
            http_stopwatch_ms: mean_ms(&chunk[1]),
            udp_baseline_ms: mean_ms(&chunk[2]),
            udp_stopwatch_ms: mean_ms(&chunk[3]),
        })
        .collect()
}

/// One Fig. 6 row.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Offered load, operations per second.
    pub rate: f64,
    /// Mean latency per op, baseline Xen, ms.
    pub baseline_ms: f64,
    /// Mean latency per op, StopWatch, ms.
    pub stopwatch_ms: f64,
    /// Client→server TCP packets per op (StopWatch run).
    pub client_to_server_per_op: f64,
    /// Server→client TCP packets per op (StopWatch run).
    pub server_to_client_per_op: f64,
}

/// Runs Fig. 6 for the given offered rates, `ops` operations per run.
/// Both defense arms of every rate execute in parallel.
pub fn fig6(rates: &[f64], ops: u64, seed: u64) -> Vec<Fig6Row> {
    let ops = ops.to_string();
    let mut scenarios = Vec::new();
    for &rate in rates {
        let rate_s = rate.to_string();
        let params = [("rate", rate_s.as_str()), ("ops", ops.as_str())];
        for stopwatch in [false, true] {
            scenarios.push(figure_scenario("nfs", stopwatch, &params, &[], seed));
        }
    }
    let results = run_figure(&scenarios);
    rates
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&rate, chunk)| {
            let sw = &chunk[1];
            let done = sw.completed.max(1) as f64;
            Fig6Row {
                rate,
                baseline_ms: mean_ms_or_nan(&chunk[0]),
                stopwatch_ms: mean_ms_or_nan(sw),
                client_to_server_per_op: sw.extra("sent_segments") / done,
                server_to_client_per_op: sw.extra("received_segments") / done,
            }
        })
        .collect()
}

/// One Fig. 7 row.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Application name.
    pub name: &'static str,
    /// Measured baseline runtime, ms.
    pub baseline_ms: f64,
    /// Measured StopWatch runtime, ms.
    pub stopwatch_ms: f64,
    /// Disk interrupts during the run (one replica).
    pub disk_interrupts: u64,
    /// The paper's baseline runtime, ms.
    pub paper_baseline_ms: u64,
    /// The paper's StopWatch runtime, ms.
    pub paper_stopwatch_ms: u64,
    /// The paper's disk-interrupt count.
    pub paper_disk_interrupts: u64,
}

fn parsec_scenario(name: &str, stopwatch: bool, disk: DiskKind, seed: u64) -> Scenario {
    // The Sec. VII-D conjecture: faster media shrink the worst-case access
    // time that sizes Δd. SSD worst case is ~3 ms here. Computation
    // benchmarks ran without background chatter.
    let mut overrides = vec![("broadcast_band", "off")];
    match disk {
        DiskKind::Rotating => overrides.push(("disk", "rotating")),
        DiskKind::Ssd => {
            overrides.push(("disk", "ssd"));
            overrides.push(("delta_d_ms", "3"));
        }
    }
    let mut s = figure_scenario(&format!("parsec:{name}"), stopwatch, &[], &overrides, seed);
    s.duration = SimDuration::from_secs(120);
    s
}

fn parsec_row(baseline: &ScenarioResult, protected: &ScenarioResult) -> (f64, f64, u64) {
    assert_eq!(protected.completed, 1, "app did not complete");
    assert_eq!(baseline.completed, 1, "baseline app did not complete");
    // Replicas are deterministic and identical, so one replica's disk
    // interrupts are the summed counter over the actual replica count.
    let irqs = protected.counter("disk_irq") / protected.replicas.max(1);
    (mean_ms(baseline), mean_ms(protected), irqs)
}

/// Runs Fig. 7 (all five PARSEC apps, baseline and StopWatch, all ten
/// runs in parallel).
pub fn fig7(disk: DiskKind, seed: u64) -> Vec<Fig7Row> {
    let scenarios: Vec<Scenario> = PARSEC
        .iter()
        .flat_map(|p| {
            [
                parsec_scenario(p.name, false, disk, seed),
                parsec_scenario(p.name, true, disk, seed),
            ]
        })
        .collect();
    let results = run_figure(&scenarios);
    PARSEC
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(p, chunk)| {
            let (baseline_ms, stopwatch_ms, disk_interrupts) = parsec_row(&chunk[0], &chunk[1]);
            Fig7Row {
                name: p.name,
                baseline_ms,
                stopwatch_ms,
                disk_interrupts,
                paper_baseline_ms: p.paper_baseline_ms,
                paper_stopwatch_ms: p.paper_stopwatch_ms,
                paper_disk_interrupts: p.disk_interrupts,
            }
        })
        .collect()
}

/// Fig. 8: re-exported from `timestats` (pure analysis).
pub fn fig8(lambda_prime: f64) -> Vec<NoiseComparison> {
    compare_with_uniform_noise(1.0, lambda_prime, &PAPER_CONFIDENCES, 10, 0.9999)
}

/// One Δ-calibration row (Sec. VII-A).
#[derive(Debug, Clone, Copy)]
pub struct CalibrationRow {
    /// The Δ value swept, ms (applies to Δn or Δd per experiment half).
    pub delta_ms: u64,
    /// Synchrony violations observed (Δn sweep).
    pub sync_violations: u64,
    /// Δd violations observed (Δd sweep).
    pub dd_violations: u64,
    /// Mean HTTP retrieval latency at this Δ, ms.
    pub latency_ms: f64,
}

/// Sweeps Δn = Δd over `deltas_ms`, measuring violation counts and
/// latency — reproducing how the paper sized Δn (7–12 ms) and Δd
/// (8–15 ms) for its platform. All grid points run in parallel.
pub fn calibrate(deltas_ms: &[u64], seed: u64) -> Vec<CalibrationRow> {
    let scenarios: Vec<Scenario> = deltas_ms
        .iter()
        .map(|&d| {
            let d_s = d.to_string();
            let mut s = figure_scenario(
                "web-http",
                true,
                &[("bytes", "100000"), ("downloads", "3")],
                &[("delta_n_ms", d_s.as_str()), ("delta_d_ms", d_s.as_str())],
                seed,
            );
            s.duration = SimDuration::from_secs(120);
            s
        })
        .collect();
    let results = run_figure(&scenarios);
    deltas_ms
        .iter()
        .zip(&results)
        .map(|(&delta_ms, r)| CalibrationRow {
            delta_ms,
            sync_violations: r.counter("sync_violations"),
            dd_violations: r.counter("dd_violations"),
            latency_ms: mean_ms_or_nan(r),
        })
        .collect()
}

/// Sec. IX: collaborating-attacker marginalization experiment.
#[derive(Debug, Clone, Copy)]
pub struct CollabRow {
    /// Replica count of the attacker VM.
    pub replicas: usize,
    /// Whether the collaborator load VM ran on the attacker's first host.
    pub load_present: bool,
    /// Mean attacker-observed inter-packet delta, ms.
    pub mean_delta_ms: f64,
    /// Mean absolute shift from the no-load run, ms (0 for the reference).
    pub shift_ms: f64,
}

/// Runs the collaborating-attacker experiment: a load VM tries to
/// marginalize one attacker replica from the median; more replicas make
/// the attack harder (Sec. IX suggests going from 3 to 5). The
/// `(replicas × load)` grid runs in parallel.
pub fn collab(probes: u32, seed: u64) -> Vec<CollabRow> {
    let probes = probes.to_string();
    let grid: Vec<(usize, bool)> = [3usize, 5]
        .iter()
        .flat_map(|&r| [(r, false), (r, true)])
        .collect();
    let scenarios: Vec<Scenario> = grid
        .iter()
        .map(|&(replicas, load)| {
            let replicas_s = replicas.to_string();
            let load_s = load.to_string();
            // The victim always coresides with replica 0 (what the
            // attacker wants to sense); the collaborator loads the same
            // host to push replica 0 out of the median.
            figure_scenario(
                "attack",
                true,
                &[
                    ("probes", probes.as_str()),
                    ("victim", "true"),
                    ("load", load_s.as_str()),
                ],
                &[
                    ("broadcast_band", "off"),
                    ("disk", "ssd"),
                    ("replicas", replicas_s.as_str()),
                    ("client_tick_ms", "2"),
                ],
                seed,
            )
        })
        .collect();
    let results = run_figure(&scenarios);
    let mean = |r: &ScenarioResult| -> f64 {
        r.samples_ms.iter().sum::<f64>() / r.samples_ms.len().max(1) as f64
    };
    grid.iter()
        .zip(&results)
        .map(|(&(replicas, load_present), r)| {
            let reference = results
                .iter()
                .zip(&grid)
                .find(|(_, &(rr, ll))| rr == replicas && !ll)
                .map(|(r, _)| mean(r))
                .expect("reference arm present");
            CollabRow {
                replicas,
                load_present,
                mean_delta_ms: mean(r),
                shift_ms: (mean(r) - reference).abs(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shapes() {
        let f = fig1(0.5);
        assert_eq!(f.curves.len(), 61);
        // Median curves lie between their component CDFs' extremes and the
        // two median curves are closer together than the raw pair.
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

    #[test]
    fn fig8_noise_scales_worse() {
        let rows = fig8(0.5);
        let last = rows.last().unwrap();
        assert!(last.noise_delay_null > last.stopwatch_delay_null);
    }

    #[test]
    fn fig5_small_sweep_shape() {
        let rows = fig5(&[10_000, 100_000], 1, 7);
        for r in &rows {
            assert!(r.http_stopwatch_ms > r.http_baseline_ms, "{r:?}");
            // The paper's crossover: UDP-NAK over StopWatch becomes
            // competitive for files of 100 KB or more (one Δn crossing
            // amortized over the stream), while HTTP keeps paying per ACK.
            if r.bytes >= 100_000 {
                let http_ratio = r.http_stopwatch_ms / r.http_baseline_ms;
                let udp_ratio = r.udp_stopwatch_ms / r.udp_baseline_ms;
                assert!(udp_ratio < http_ratio, "{r:?}");
            }
        }
    }

    #[test]
    fn calibration_violations_fall_with_delta() {
        let rows = calibrate(&[1, 12], 5);
        assert!(
            rows[0].sync_violations + rows[0].dd_violations
                >= rows[1].sync_violations + rows[1].dd_violations,
            "{rows:?}"
        );
        assert_eq!(rows[1].dd_violations, 0, "paper-sized Δd has no violations");
    }
}
