//! Named performance benchmarks with a trajectory-friendly JSON report.
//!
//! The sweep engine's throughput is a deliverable of this reproduction
//! (ROADMAP: "Engine hot-path profiling"), so it gets the same treatment
//! as the paper's figures: named, repeatable benchmarks with a
//! schema-versioned artifact. `swbench perf <name>` runs one — warmup
//! passes first, then timed repeats whose **median** wall time yields the
//! headline events/sec and packets/sec — and writes `BENCH_<name>.json`
//! for trajectory tracking; CI gates on it against a checked-in baseline
//! (see `check_against_baseline`).
//!
//! Simulated *results* are deterministic, so every repeat replays the
//! exact same event trace — the only thing that varies across repeats is
//! host wall time, which is precisely what the median smooths. Each run
//! cross-checks that invariant: repeats disagreeing on total event count
//! are reported as an error, not a slow run.

use crate::json::Json;
use crate::presets;
use crate::runner::{run_scenarios, run_scenarios_profiled, RunOutcome, RunnerOptions};
use crate::scenario::Scenario;
use simkit::time::SimDuration;
use std::time::Instant;

/// Version of the `BENCH_*.json` layout. Bumped whenever the report shape
/// changes; `check_against_baseline` refuses to compare across versions.
/// v2 added the `setup_ms` / `run_ms` phase split (see [`crate::profile`]).
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// A named perf benchmark: a fixed scenario list whose end-to-end
/// execution is timed.
pub struct PerfBench {
    /// Registry key (`swbench perf <name>`).
    pub name: &'static str,
    /// What the benchmark stresses.
    pub about: &'static str,
    build: fn(quick: bool) -> Result<Vec<Scenario>, String>,
}

impl PerfBench {
    /// Materializes the scenario list.
    pub fn scenarios(&self, quick: bool) -> Result<Vec<Scenario>, String> {
        (self.build)(quick)
    }
}

/// Every named perf benchmark.
pub const PERF_BENCHES: &[PerfBench] = &[
    PerfBench {
        name: "delta-n",
        about: "the full 64-cell delta-n sweep (16 quick) — the ROADMAP sweep-throughput benchmark",
        build: |quick| {
            presets::preset("delta-n")
                .expect("delta-n preset exists")
                .spec(quick)
                .scenarios()
        },
    },
    PerfBench {
        name: "packet-storm",
        about: "one cloud, UDP-NAK bulk transfer — a packet-dense microbench of the engine + median-agreement hot paths",
        build: |quick| {
            let mut s = Scenario::new("web-udp", 42);
            s.label = "packet-storm".to_string();
            s.cell = "packet-storm".to_string();
            s.workload_params = vec![
                (
                    "bytes".to_string(),
                    if quick { "200000" } else { "2000000" }.to_string(),
                ),
                ("downloads".to_string(), if quick { "2" } else { "4" }.to_string()),
            ];
            s.overrides = vec![
                ("broadcast_band".to_string(), "off".to_string()),
                ("disk".to_string(), "ssd".to_string()),
            ];
            s.duration = SimDuration::from_secs(600);
            Ok(vec![s])
        },
    },
    PerfBench {
        name: "disk-storm",
        about: "one cloud, dense disk probing on a rotating medium — stresses the disk-completion agreement hot path",
        build: |quick| {
            let mut s = Scenario::new("disk-channel", 42);
            s.label = "disk-storm".to_string();
            s.cell = "disk-storm".to_string();
            s.workload_params = vec![
                ("arms".to_string(), "8".to_string()),
                ("probes_per_arm".to_string(), "2".to_string()),
                ("probe_gap_ticks".to_string(), "8".to_string()),
                (
                    "rounds".to_string(),
                    if quick { "120" } else { "480" }.to_string(),
                ),
                ("victim".to_string(), "true".to_string()),
                ("victim_every".to_string(), "2".to_string()),
            ];
            s.overrides = vec![
                ("broadcast_band".to_string(), "off".to_string()),
                ("disk".to_string(), "rotating".to_string()),
                ("delta_d_ms".to_string(), "25".to_string()),
                ("image_blocks".to_string(), "16000000".to_string()),
            ];
            s.duration = SimDuration::from_secs(600);
            Ok(vec![s])
        },
    },
    PerfBench {
        name: "cache-storm",
        about: "one cloud, dense PRIME+PROBE rounds — stresses the cache-probe proposal/median hot path",
        build: |quick| {
            let mut s = Scenario::new("cache-channel", 42);
            s.label = "cache-storm".to_string();
            s.cell = "cache-storm".to_string();
            s.workload_params = vec![
                ("sets".to_string(), "32".to_string()),
                ("ways".to_string(), "4".to_string()),
                (
                    "rounds".to_string(),
                    if quick { "40" } else { "200" }.to_string(),
                ),
                ("victim".to_string(), "true".to_string()),
            ];
            s.overrides = vec![
                ("broadcast_band".to_string(), "off".to_string()),
                ("disk".to_string(), "ssd".to_string()),
            ];
            s.duration = SimDuration::from_secs(600);
            Ok(vec![s])
        },
    },
    PerfBench {
        name: "timer-storm",
        about: "one cloud, dense virtual-timer arming under contention — stresses the vCPU scheduler + Δt agreement hot path",
        build: |quick| {
            let mut s = Scenario::new("timer-channel", 42);
            s.label = "timer-storm".to_string();
            s.cell = "timer-storm".to_string();
            s.workload_params = vec![
                ("arms".to_string(), "8".to_string()),
                ("window_ms".to_string(), "5".to_string()),
                (
                    "rounds".to_string(),
                    if quick { "400" } else { "1600" }.to_string(),
                ),
                ("secret".to_string(), "5".to_string()),
                ("victim".to_string(), "true".to_string()),
            ];
            s.overrides = vec![
                ("broadcast_band".to_string(), "off".to_string()),
                ("disk".to_string(), "ssd".to_string()),
                // Δt and the timeslice must fit inside the 5 ms probe
                // window or the next arm would already be in the past
                // when the previous fire delivers.
                ("delta_t_ms".to_string(), "2".to_string()),
                ("timeslice_ms".to_string(), "1".to_string()),
            ];
            s.duration = SimDuration::from_secs(600);
            Ok(vec![s])
        },
    },
    PerfBench {
        name: "defense-storm",
        about: "the timer-storm scenario once per registered defense arm — stresses the arm dispatch + release-rule hot paths",
        build: |quick| {
            // One dense timer-channel cloud per arm, so a slow release
            // rule (or a regression in the arm dispatch itself) shows up
            // in the same events/sec headline the other storms use. The
            // epoch and bucket are sized like Δt: they must fit inside
            // the 5 ms probe window (see timer-storm above).
            let scenarios = vmm::defense::arm_names()
                .into_iter()
                .map(|arm| {
                    let mut s = Scenario::new("timer-channel", 42);
                    s.label = format!("defense-storm:{arm}");
                    s.cell = format!("defense-storm:{arm}");
                    s.workload_params = vec![
                        ("arms".to_string(), "8".to_string()),
                        ("window_ms".to_string(), "5".to_string()),
                        (
                            "rounds".to_string(),
                            if quick { "200" } else { "800" }.to_string(),
                        ),
                        ("secret".to_string(), "5".to_string()),
                        ("victim".to_string(), "true".to_string()),
                    ];
                    s.overrides = vec![
                        ("broadcast_band".to_string(), "off".to_string()),
                        ("disk".to_string(), "ssd".to_string()),
                        ("delta_t_ms".to_string(), "2".to_string()),
                        ("timeslice_ms".to_string(), "1".to_string()),
                        ("defense".to_string(), arm.to_string()),
                        ("epoch_ms".to_string(), "2".to_string()),
                        ("bucket_ns".to_string(), "2000000".to_string()),
                    ];
                    s.duration = SimDuration::from_secs(600);
                    s
                })
                .collect();
            Ok(scenarios)
        },
    },
];

/// Looks up a perf benchmark by name.
pub fn perf_bench(name: &str) -> Option<&'static PerfBench> {
    PERF_BENCHES.iter().find(|b| b.name == name)
}

/// Knobs of one perf run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfOptions {
    /// Shrink the scenario list to smoke-test size.
    pub quick: bool,
    /// Untimed passes before measurement (cache/allocator warmup).
    pub warmup: usize,
    /// Timed passes; the reported throughput uses their median wall time.
    pub repeats: usize,
    /// Worker threads (0 = one per core).
    pub threads: usize,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            quick: false,
            warmup: 1,
            repeats: 5,
            threads: 0,
        }
    }
}

/// One finished perf benchmark, ready to render as `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Benchmark name.
    pub bench: String,
    /// Whether the quick (smoke) shape ran.
    pub quick: bool,
    /// Worker threads actually used.
    pub threads: u64,
    /// Scenarios per pass (the benchmark's cell count).
    pub scenarios: u64,
    /// Untimed warmup passes.
    pub warmup: u64,
    /// Timed passes.
    pub repeats: u64,
    /// Wall time of each timed pass, ms, in run order.
    pub wall_ms: Vec<f64>,
    /// Median of `wall_ms` (the headline denominator).
    pub wall_ms_median: f64,
    /// Median per-pass setup wall (config/param resolve + cloud build),
    /// ms — the part of `wall_ms_median` spent before any event executes.
    pub setup_ms: f64,
    /// Median per-pass run wall (event loop + result aggregation), ms.
    pub run_ms: f64,
    /// Summed phase-timer totals over the timed passes (what
    /// `swbench perf --profile` renders; not serialized per-field here).
    pub phases: crate::profile::Phases,
    /// Fastest pass. Every pass executes the identical deterministic
    /// trace, so the minimum is the least-disturbed measurement — the CI
    /// gate compares this, making it robust to background-load spikes
    /// that inflate the median.
    pub wall_ms_min: f64,
    /// Engine events executed per pass (identical across passes —
    /// determinism is cross-checked).
    pub events: u64,
    /// Packets simulated per pass: client ingress + replica net-IRQ
    /// deliveries + client-bound deliveries — every packet that crossed
    /// the Δn median-agreement machinery or the client edge.
    pub packets: u64,
    /// `events / median wall seconds`.
    pub events_per_sec: f64,
    /// `packets / median wall seconds`.
    pub packets_per_sec: f64,
    /// `events / fastest wall seconds` (what the CI gate compares).
    pub events_per_sec_best: f64,
}

impl PerfReport {
    /// Renders the schema-versioned `BENCH_<name>.json` document.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }

    /// The report as a [`Json`] value — embeddable in aggregate documents
    /// (the consolidated `BENCH_trajectory.json`) as well as standalone.
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .with("schema_version", Json::U64(BENCH_SCHEMA_VERSION))
            .with("bench", Json::str(&self.bench))
            .with("mode", Json::str(if self.quick { "quick" } else { "full" }))
            .with("threads", Json::U64(self.threads))
            .with("scenarios", Json::U64(self.scenarios))
            .with("warmup", Json::U64(self.warmup))
            .with("repeats", Json::U64(self.repeats))
            .with(
                "wall_ms",
                Json::Arr(self.wall_ms.iter().map(|&w| Json::F64(w)).collect()),
            )
            .with("wall_ms_median", Json::F64(self.wall_ms_median))
            .with("wall_ms_min", Json::F64(self.wall_ms_min))
            .with("setup_ms", Json::F64(self.setup_ms))
            .with("run_ms", Json::F64(self.run_ms))
            .with("events", Json::U64(self.events))
            .with("packets", Json::U64(self.packets))
            .with("events_per_sec", Json::F64(self.events_per_sec))
            .with("packets_per_sec", Json::F64(self.packets_per_sec))
            .with("events_per_sec_best", Json::F64(self.events_per_sec_best))
    }

    /// One human line for the terminal.
    pub fn summary(&self) -> String {
        format!(
            "{} {} scenarios x {} repeats on {} threads: median {:.1} ms \
             (setup {:.1} + run {:.1}), {:.0} events/s, {:.0} packets/s",
            self.bench,
            self.scenarios,
            self.repeats,
            self.threads,
            self.wall_ms_median,
            self.setup_ms,
            self.run_ms,
            self.events_per_sec,
            self.packets_per_sec,
        )
    }
}

/// Version of the consolidated `BENCH_trajectory.json` layout. Bumped
/// whenever the trajectory shape changes, independently of the per-bench
/// [`BENCH_SCHEMA_VERSION`] each embedded report carries.
pub const TRAJECTORY_SCHEMA_VERSION: u64 = 1;

/// The checked-in baseline file name for one bench inside a baseline
/// directory: `BENCH_<bench>-baseline.json`. One naming rule for every
/// bench, so the consolidated gate can enumerate [`PERF_BENCHES`] and
/// refuse to run with a baseline missing (a new bench must check in a
/// baseline before it can ride the gate — it cannot silently skip it).
pub fn baseline_file_name(bench: &str) -> String {
    format!("BENCH_{bench}-baseline.json")
}

/// One bench's entry in a consolidated `swbench perf --all` pass.
#[derive(Debug, Clone)]
pub struct TrajectoryEntry {
    /// The bench's finished report.
    pub report: PerfReport,
    /// Gate outcome against the bench's checked-in baseline: the human
    /// verdict line (`Ok`) or the regression / unusable-baseline message
    /// (`Err`). `None` when the pass ran without a baseline directory
    /// (report-only, e.g. the nightly job).
    pub verdict: Option<Result<String, String>>,
}

/// The consolidated report of one `swbench perf --all` pass — every
/// registered bench's report plus its gate verdict, in registry order.
/// Rendered as the schema-versioned `BENCH_trajectory.json` artifact that
/// CI uploads per run, giving the repo a per-commit perf trajectory in
/// one document instead of five loose files.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// One entry per bench, in [`PERF_BENCHES`] order.
    pub entries: Vec<TrajectoryEntry>,
}

impl Trajectory {
    /// Renders the `BENCH_trajectory.json` document.
    pub fn to_json(&self) -> String {
        let benches = self
            .entries
            .iter()
            .map(|e| {
                let (gate, verdict) = match &e.verdict {
                    None => ("none", String::new()),
                    Some(Ok(line)) => ("ok", line.clone()),
                    Some(Err(line)) => ("fail", line.clone()),
                };
                Json::obj()
                    .with("gate", Json::str(gate))
                    .with("verdict", Json::str(verdict))
                    .with("report", e.report.to_json_value())
            })
            .collect();
        Json::obj()
            .with("schema_version", Json::U64(TRAJECTORY_SCHEMA_VERSION))
            .with("kind", Json::str("perf-trajectory"))
            .with("benches", Json::Arr(benches))
            .render_pretty()
    }

    /// The benches whose gate failed (empty = the consolidated pass is
    /// green).
    pub fn failures(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|e| matches!(e.verdict, Some(Err(_))))
            .map(|e| e.report.bench.as_str())
            .collect()
    }
}

/// Median of raw repeat timings: middle element for odd counts, mean of
/// the middle two for even counts. Public because the repeat-median math
/// is part of the report contract (and unit-tested as such).
pub fn median_wall_ms(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The packet total of one pass (see [`PerfReport::packets`]).
fn packet_total(outcomes: &[RunOutcome]) -> u64 {
    outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.counter("ingress_packets") + r.counter("net_irq") + r.counter("client_packets"))
        .sum()
}

/// The engine-event total of one pass.
fn event_total(outcomes: &[RunOutcome]) -> u64 {
    outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|r| r.events_executed)
        .sum()
}

/// Runs the named benchmark: warmup passes, timed repeats, median math.
///
/// # Errors
///
/// Reports unknown benchmark names, scenario failures (a perf number over
/// a partially-failed pass would be meaningless), and repeats that
/// disagree on event counts (a determinism violation, not a perf result).
pub fn run_perf(name: &str, opts: &PerfOptions) -> Result<PerfReport, String> {
    let bench = perf_bench(name).ok_or_else(|| {
        let known: Vec<&str> = PERF_BENCHES.iter().map(|b| b.name).collect();
        format!(
            "unknown perf benchmark {name:?} (known: {})",
            known.join(", ")
        )
    })?;
    let scenarios = bench.scenarios(opts.quick)?;
    let runner = RunnerOptions {
        threads: opts.threads,
        progress: false,
    };
    let repeats = opts.repeats.max(1);

    for _ in 0..opts.warmup {
        run_scenarios(&scenarios, &runner);
    }

    let mut wall_ms = Vec::with_capacity(repeats);
    let mut setup_ms = Vec::with_capacity(repeats);
    let mut run_ms = Vec::with_capacity(repeats);
    let mut phases = crate::profile::Phases::default();
    let mut totals: Option<(u64, u64)> = None; // (events, packets)
    for repeat in 0..repeats {
        let started = Instant::now();
        let (outcomes, pass_phases) = run_scenarios_profiled(&scenarios, &runner);
        wall_ms.push(started.elapsed().as_secs_f64() * 1e3);
        setup_ms.push(pass_phases.setup_ns() as f64 / 1e6);
        run_ms.push((pass_phases.run_ns + pass_phases.aggregate_ns) as f64 / 1e6);
        phases.add(&pass_phases);
        if let Some((label, err)) = outcomes.iter().find_map(|o| {
            o.result
                .as_ref()
                .err()
                .map(|e| (o.label.clone(), e.clone()))
        }) {
            return Err(format!("scenario {label:?} failed: {err}"));
        }
        let pass = (event_total(&outcomes), packet_total(&outcomes));
        match totals {
            None => totals = Some(pass),
            Some(first) if first != pass => {
                return Err(format!(
                    "repeat {repeat} executed {pass:?} (events, packets) but repeat 0 \
                     executed {first:?} — determinism violation, not a perf result"
                ));
            }
            Some(_) => {}
        }
    }
    let (events, packets) = totals.expect("at least one repeat ran");
    let wall_ms_median = median_wall_ms(&wall_ms);
    let wall_ms_min = wall_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let secs = (wall_ms_median / 1e3).max(1e-9);
    let best_secs = (wall_ms_min / 1e3).max(1e-9);
    Ok(PerfReport {
        bench: bench.name.to_string(),
        quick: opts.quick,
        threads: runner.effective_threads().min(scenarios.len()).max(1) as u64,
        scenarios: scenarios.len() as u64,
        warmup: opts.warmup as u64,
        repeats: repeats as u64,
        wall_ms,
        wall_ms_median,
        wall_ms_min,
        setup_ms: median_wall_ms(&setup_ms),
        run_ms: median_wall_ms(&run_ms),
        phases,
        events,
        packets,
        events_per_sec: events as f64 / secs,
        packets_per_sec: packets as f64 / secs,
        events_per_sec_best: events as f64 / best_secs,
    })
}

// ---------------------------------------------------------------------
// Baseline gate
// ---------------------------------------------------------------------

/// Scans a `BENCH_*.json` document (this crate's own writer output) for
/// `"key": <number>` and parses the number. Not a general JSON parser —
/// just enough to read back what [`PerfReport::to_json`] wrote.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Scans for `"key": "value"`.
fn json_string(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Gates `report` against a checked-in baseline document: fails when
/// best-pass events/sec (`events_per_sec_best` — see
/// [`PerfReport::wall_ms_min`] for why the gate uses the fastest pass)
/// fell more than `max_regress` (a fraction, e.g. `0.30`) below the
/// baseline's. Refuses to compare mismatched schema versions, benchmark
/// names, or quick-vs-full modes — those are config errors, not
/// regressions. Returns the human verdict line on success.
///
/// # Errors
///
/// The failure message (regression or unusable baseline).
pub fn check_against_baseline(
    report: &PerfReport,
    baseline_json: &str,
    max_regress: f64,
) -> Result<String, String> {
    let version = json_number(baseline_json, "schema_version")
        .ok_or("baseline has no schema_version — not a BENCH_*.json document")?;
    if version != BENCH_SCHEMA_VERSION as f64 {
        return Err(format!(
            "baseline schema_version {version} != current {BENCH_SCHEMA_VERSION}; refresh the baseline"
        ));
    }
    let bench = json_string(baseline_json, "bench").ok_or("baseline has no bench name")?;
    if bench != report.bench {
        return Err(format!(
            "baseline is for bench {bench:?}, this run is {:?}",
            report.bench
        ));
    }
    let mode = json_string(baseline_json, "mode").ok_or("baseline has no mode")?;
    let current_mode = if report.quick { "quick" } else { "full" };
    if mode != current_mode {
        return Err(format!(
            "baseline mode {mode:?} != this run's {current_mode:?}; compare like with like"
        ));
    }
    // Throughput scales with worker threads, so a 4-core run vs a 1-core
    // baseline would hide a large per-thread regression. Pin --threads in
    // the gate invocation (CI uses --threads 1).
    let threads = json_number(baseline_json, "threads").ok_or("baseline has no thread count")?;
    if threads != report.threads as f64 {
        return Err(format!(
            "baseline ran on {threads} thread(s), this run on {}; pin --threads so the \
             comparison is like-for-like",
            report.threads
        ));
    }
    let base_eps = json_number(baseline_json, "events_per_sec_best")
        .ok_or("baseline has no events_per_sec_best")?;
    let floor = base_eps * (1.0 - max_regress);
    let ratio = report.events_per_sec_best / base_eps.max(1e-9);
    if report.events_per_sec_best < floor {
        Err(format!(
            "throughput regression: best pass {:.0} events/s is {:.2}x the baseline's {:.0} \
             (floor {:.0} at {:.0}% tolerance)",
            report.events_per_sec_best,
            ratio,
            base_eps,
            floor,
            max_regress * 100.0
        ))
    } else {
        Ok(format!(
            "perf gate ok: best pass {:.0} events/s vs baseline {:.0} ({:.2}x, floor {:.0})",
            report.events_per_sec_best, base_eps, ratio, floor
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(events_per_sec: f64) -> PerfReport {
        PerfReport {
            bench: "delta-n".to_string(),
            quick: true,
            threads: 4,
            scenarios: 16,
            warmup: 1,
            repeats: 3,
            wall_ms: vec![10.0, 12.0, 11.0],
            wall_ms_median: 11.0,
            wall_ms_min: 10.0,
            setup_ms: 4.0,
            run_ms: 7.0,
            phases: crate::profile::Phases::default(),
            events: 1000,
            packets: 500,
            events_per_sec,
            packets_per_sec: events_per_sec / 2.0,
            events_per_sec_best: events_per_sec * 1.1,
        }
    }

    #[test]
    fn repeat_median_math() {
        assert_eq!(median_wall_ms(&[5.0]), 5.0);
        assert_eq!(median_wall_ms(&[3.0, 1.0, 2.0]), 2.0, "odd: middle");
        assert_eq!(
            median_wall_ms(&[4.0, 1.0, 3.0, 2.0]),
            2.5,
            "even: mean of middles"
        );
        assert_eq!(median_wall_ms(&[7.0, 7.0, 100.0]), 7.0, "outlier-robust");
    }

    #[test]
    fn report_json_shape() {
        let json = fake_report(90_909.0).to_json();
        assert!(json.contains(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}")));
        assert!(json.contains("\"bench\": \"delta-n\""));
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\"scenarios\": 16"));
        assert!(json.contains("\"wall_ms_median\": 11.0"));
        assert!(json.contains("\"wall_ms_min\": 10.0"));
        assert!(json.contains("\"setup_ms\": 4.0"), "v2 phase split");
        assert!(json.contains("\"run_ms\": 7.0"), "v2 phase split");
        assert!(json.contains("\"events_per_sec_best\""));
        assert!(json.contains("\"events_per_sec\": 90909.0"));
        // Round-trips through the gate's mini-parser.
        assert_eq!(
            json_number(&json, "schema_version"),
            Some(BENCH_SCHEMA_VERSION as f64)
        );
        assert_eq!(json_number(&json, "events_per_sec"), Some(90_909.0));
        assert_eq!(json_string(&json, "bench").as_deref(), Some("delta-n"));
        assert_eq!(json_string(&json, "mode").as_deref(), Some("quick"));
    }

    #[test]
    fn quick_vs_full_cell_counts() {
        let quick = perf_bench("delta-n").unwrap().scenarios(true).unwrap();
        let full = perf_bench("delta-n").unwrap().scenarios(false).unwrap();
        assert_eq!(quick.len(), 16, "8 grid points x 2 quick seeds");
        assert_eq!(full.len(), 64, "8 grid points x 8 seeds");
        let storm = perf_bench("packet-storm").unwrap().scenarios(true).unwrap();
        assert_eq!(storm.len(), 1, "single-cloud microbench");
        let cache = perf_bench("cache-storm").unwrap().scenarios(true).unwrap();
        assert_eq!(cache.len(), 1, "single-cloud microbench");
        assert_eq!(cache[0].workload, "cache-channel");
        let timer = perf_bench("timer-storm").unwrap().scenarios(true).unwrap();
        assert_eq!(timer.len(), 1, "single-cloud microbench");
        assert_eq!(timer[0].workload, "timer-channel");
        let defense = perf_bench("defense-storm")
            .unwrap()
            .scenarios(true)
            .unwrap();
        assert_eq!(
            defense.len(),
            vmm::defense::arm_names().len(),
            "one cloud per registered arm"
        );
        for (s, arm) in defense.iter().zip(vmm::defense::arm_names()) {
            assert_eq!(s.workload, "timer-channel");
            assert!(
                s.overrides
                    .contains(&("defense".to_string(), arm.to_string())),
                "scenario {} pins its arm",
                s.label
            );
        }
    }

    #[test]
    fn timer_storm_quick_run_counts_timer_work() {
        let opts = PerfOptions {
            quick: true,
            warmup: 0,
            repeats: 1,
            threads: 1,
        };
        let report = run_perf("timer-storm", &opts).expect("perf run");
        assert!(report.events > 0);
        assert!(
            report.to_json().contains("\"bench\": \"timer-storm\""),
            "report names its bench"
        );
    }

    #[test]
    fn cache_storm_quick_run_counts_probe_work() {
        let opts = PerfOptions {
            quick: true,
            warmup: 0,
            repeats: 1,
            threads: 1,
        };
        let report = run_perf("cache-storm", &opts).expect("perf run");
        assert!(report.events > 0);
        assert!(
            report.to_json().contains("\"bench\": \"cache-storm\""),
            "report names its bench"
        );
    }

    #[test]
    fn unknown_bench_is_a_clear_error() {
        let err = run_perf("no-such", &PerfOptions::default()).unwrap_err();
        assert!(err.contains("unknown perf benchmark"), "{err}");
        assert!(err.contains("delta-n"), "lists known names: {err}");
    }

    #[test]
    fn baseline_gate_passes_within_tolerance_and_fails_below() {
        let baseline = fake_report(100_000.0).to_json();
        // 30% tolerance: 71k/s passes, 69k/s fails.
        let ok = check_against_baseline(&fake_report(71_000.0), &baseline, 0.30);
        assert!(ok.is_ok(), "{ok:?}");
        let err = check_against_baseline(&fake_report(69_000.0), &baseline, 0.30).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        // Faster than baseline always passes.
        assert!(check_against_baseline(&fake_report(250_000.0), &baseline, 0.30).is_ok());
    }

    #[test]
    fn baseline_gate_rejects_mismatched_documents() {
        let baseline = fake_report(100_000.0).to_json();
        let mut other_bench = fake_report(100_000.0);
        other_bench.bench = "packet-storm".to_string();
        let err = check_against_baseline(&other_bench, &baseline, 0.30).unwrap_err();
        assert!(err.contains("bench"), "{err}");

        let mut full_mode = fake_report(100_000.0);
        full_mode.quick = false;
        let err = check_against_baseline(&full_mode, &baseline, 0.30).unwrap_err();
        assert!(err.contains("mode"), "{err}");

        let mut other_threads = fake_report(100_000.0);
        other_threads.threads = 8;
        let err = check_against_baseline(&other_threads, &baseline, 0.30).unwrap_err();
        assert!(err.contains("pin --threads"), "{err}");

        let err = check_against_baseline(&fake_report(1.0), "{}", 0.30).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");

        let stale = baseline.replace(
            &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        let err = check_against_baseline(&fake_report(100_000.0), &stale, 0.30).unwrap_err();
        assert!(err.contains("refresh the baseline"), "{err}");
    }

    #[test]
    fn baseline_file_names_follow_one_rule() {
        for b in PERF_BENCHES {
            let name = baseline_file_name(b.name);
            assert_eq!(name, format!("BENCH_{}-baseline.json", b.name));
        }
    }

    #[test]
    fn trajectory_json_embeds_reports_and_verdicts() {
        let mut t = Trajectory::default();
        t.entries.push(TrajectoryEntry {
            report: fake_report(100_000.0),
            verdict: Some(Ok("perf gate ok: ...".to_string())),
        });
        let mut slow = fake_report(10_000.0);
        slow.bench = "packet-storm".to_string();
        t.entries.push(TrajectoryEntry {
            report: slow,
            verdict: Some(Err("throughput regression: ...".to_string())),
        });
        let mut ungated = fake_report(50_000.0);
        ungated.bench = "disk-storm".to_string();
        t.entries.push(TrajectoryEntry {
            report: ungated,
            verdict: None,
        });
        assert_eq!(t.failures(), vec!["packet-storm"]);
        let json = t.to_json();
        assert!(json.contains(&format!("\"schema_version\": {TRAJECTORY_SCHEMA_VERSION}")));
        assert!(json.contains("\"kind\": \"perf-trajectory\""));
        assert!(json.contains("\"gate\": \"ok\""));
        assert!(json.contains("\"gate\": \"fail\""));
        assert!(json.contains("\"gate\": \"none\""), "report-only entries");
        // The embedded per-bench reports keep their own schema version.
        assert!(json.contains(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}")));
        assert!(json.contains("\"bench\": \"delta-n\""));
        assert!(json.contains("\"bench\": \"packet-storm\""));
    }

    #[test]
    fn quick_perf_run_end_to_end() {
        // The packet-storm microbench, one repeat, no warmup: exercises
        // the full measure → totals → report path in test time.
        let opts = PerfOptions {
            quick: true,
            warmup: 0,
            repeats: 1,
            threads: 1,
        };
        let report = run_perf("packet-storm", &opts).expect("perf run");
        assert_eq!(report.scenarios, 1);
        assert_eq!(report.repeats, 1);
        assert_eq!(report.wall_ms.len(), 1);
        assert!(report.events > 0, "simulated something");
        assert!(report.packets > 0, "packet-dense by construction");
        assert!(report.events_per_sec > 0.0);
        assert!(report.setup_ms > 0.0, "setup phase attributed");
        assert!(report.run_ms > 0.0, "run phase attributed");
        assert!(
            report.phases.total_ns() > 0,
            "phase totals accumulated for --profile"
        );
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"packet-storm\""));
    }
}
