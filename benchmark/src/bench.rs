//! The benchmark loop. Per workload: a reference pass (warm-up, output
//! checks), heap passes with the counting allocator on, then timed passes
//! interleaved across workloads (A B C D A B C D …) until each workload
//! has spent its time budget, so drift in the host's speed is spread over
//! all of them. The loop is closed: each pass starts when the previous
//! one ends, on one worker thread.

use crate::alloc::{self, HeapUsage};
use crate::check::{check_golden, check_invariants, check_same, GOLDEN_SEED};
use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::micro::{self, Micro};
use crate::pass::{run_pass, run_traced_pass, Pass};
use crate::trace::Trace;
use crate::workloads::Workload;
use harness::json::Json;
use simkit::metrics::Samples;
use std::collections::BTreeMap;

/// Traced runs make at least this many untraced + traced pass pairs per
/// workload, whatever the time budget.
const MIN_TRACED_PASSES: u64 = 10;

/// `peak_heap_mb` is the median peak over this many heap passes, at the
/// run's seed and at seeds `HEAP_SEED_STRIDE` apart: a single-cloud
/// workload's peak moves by several percent from seed to seed.
const HEAP_SEEDS: u64 = 5;
const HEAP_SEED_STRIDE: u64 = 1000;

/// Spans whose self time is attributed to a named layer; the rest of a
/// pass (`harness.pass`, `harness.scenario`) is the runner's own time.
const LAYER_SPANS: [&str; 7] = [
    "harness.expand",
    "harness.resolve",
    "harness.build",
    "harness.run",
    "harness.collect",
    "harness.report",
    "harness.json",
];

/// What to run.
#[derive(Clone)]
pub struct Options {
    /// Workloads, in interleaving order.
    pub workloads: Vec<&'static Workload>,
    /// Base of every workload's seed shards.
    pub seed: u64,
    /// Timed wall time per workload.
    pub seconds: f64,
    /// Quick (smoke) sweep shapes.
    pub quick: bool,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One workload's results.
pub struct WorkloadRun {
    /// The workload.
    pub workload: &'static Workload,
    /// Scenarios per pass.
    pub scenarios: u64,
    /// Timed passes (untraced plus traced).
    pub passes: u64,
    /// Scenarios attempted in timed passes.
    pub attempted: u64,
    /// Attempted scenarios that errored, timed out, or ran in a pass
    /// whose report failed a correctness check.
    pub failed: u64,
    /// Correctness failures, first few.
    pub problems: Vec<String>,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Values,
    /// Traced runs: the share of untraced scenarios/s that tracing costs
    /// (negative when the traced passes happened to run faster).
    pub tracing_overhead: Option<f64>,
    /// Traced runs: the smallest share of a traced pass's wall time that
    /// named layer spans cover.
    pub attributed_min: Option<f64>,
    /// Traced runs: median per-pass self time of every span name, ms.
    pub self_ms: Vec<(&'static str, f64)>,
    reference: Pass,
    reference_ok: Result<(), String>,
    heap: HeapUsage,
    walls_ns: Vec<u64>,
    setups_ns: Vec<u64>,
    traced_walls_ns: Vec<u64>,
    spent_ns: u64,
}

impl WorkloadRun {
    fn start(workload: &'static Workload, opts: &Options) -> Result<WorkloadRun, String> {
        let reference = run_pass(workload, opts.seed, opts.quick)?;
        let mut reference_ok = check_invariants(workload.name, opts.quick, &reference.report);
        if opts.seed == GOLDEN_SEED {
            reference_ok = reference_ok
                .and_then(|()| check_golden(workload.name, opts.quick, &reference.json));
        }
        let mut peaks = Vec::new();
        let mut allocations = 0;
        for k in 0..HEAP_SEEDS {
            let seed = opts.seed + k * HEAP_SEED_STRIDE;
            let (pass, usage) = alloc::measure(|| run_pass(workload, seed, opts.quick));
            let pass = pass?;
            if k == 0 {
                reference_ok = reference_ok.and_then(|()| check_same(&reference.json, &pass.json));
                allocations = usage.allocations;
            }
            peaks.push(usage.peak_bytes);
        }
        let heap = HeapUsage {
            peak_bytes: samples(&peaks).median() as u64,
            allocations,
        };
        let problems = reference_ok.clone().err().into_iter().collect();
        Ok(WorkloadRun {
            workload,
            scenarios: reference.scenarios,
            passes: 0,
            attempted: 0,
            failed: 0,
            problems,
            metrics: Vec::new(),
            tracing_overhead: None,
            attributed_min: None,
            self_ms: Vec::new(),
            reference,
            reference_ok,
            heap,
            walls_ns: Vec::new(),
            setups_ns: Vec::new(),
            traced_walls_ns: Vec::new(),
            spent_ns: 0,
        })
    }

    fn record(&mut self, pass: &Pass, traced: bool) {
        let index = self.passes;
        self.passes += 1;
        self.spent_ns += pass.wall_ns;
        self.attempted += pass.scenarios;
        if self.reference_ok.is_err() {
            self.failed += pass.scenarios;
        } else if let Err(e) = check_same(&self.reference.json, &pass.json) {
            self.failed += pass.scenarios;
            self.problem(format!("pass {index}: {e}"));
        } else if pass.failed > 0 {
            self.failed += pass.failed;
            let first = pass.report.failures.first().map_or_else(
                || "a scenario timed out".to_string(),
                |(label, error)| format!("{label}: {error}"),
            );
            self.problem(format!(
                "pass {index}: {} scenarios failed ({first})",
                pass.failed
            ));
        }
        if traced {
            self.traced_walls_ns.push(pass.wall_ns);
        } else {
            self.walls_ns.push(pass.wall_ns);
            self.setups_ns.push(pass.setup_ns);
        }
    }

    /// Median and p90 of the untraced pass wall times, ms.
    /// Every pass repeats identical work, so their spread is the host's,
    /// which is why p90 is reported here and not gated as a metric.
    pub fn pass_ms(&self) -> (f64, f64) {
        let walls = samples(&self.walls_ns);
        (walls.median() / 1e6, walls.quantile(0.9) / 1e6)
    }

    fn problem(&mut self, message: String) {
        if self.problems.len() < 5 {
            self.problems.push(message);
        }
    }

    fn end_to_end(&self) -> Values {
        let walls = samples(&self.walls_ns);
        collect(END_TO_END, |name| match name {
            "scenarios_per_s" => self.scenarios as f64 / (walls.median() / 1e9),
            "setup_s" => samples(&self.setups_ns).median() / 1e9,
            "peak_heap_mb" => self.heap.peak_bytes as f64 / f64::from(1 << 20),
            other => unreachable!("no end-to-end value for {other}"),
        })
    }

    fn per_layer(&mut self, trace: &Trace, micro: &Micro) -> Values {
        let passes = trace.pass_layers(self.workload.name);
        let get = |p: &BTreeMap<&str, u64>, name: &str| p.get(name).copied().unwrap_or(0);
        let median_ms = |f: &dyn Fn(&BTreeMap<&'static str, u64>) -> u64| {
            passes
                .iter()
                .map(|p| f(p) as f64)
                .collect::<Samples>()
                .median()
                / 1e6
        };
        let names: Vec<&'static str> = passes
            .iter()
            .flat_map(|p| p.keys().copied())
            .filter(|&n| n != "pass")
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        self.self_ms = names
            .into_iter()
            .map(|n| (n, median_ms(&|p| get(p, n))))
            .collect();
        self.attributed_min = passes
            .iter()
            .map(|p| {
                let named: u64 = LAYER_SPANS.iter().map(|n| get(p, n)).sum();
                named as f64 / get(p, "pass").max(1) as f64
            })
            .reduce(f64::min);
        self.tracing_overhead =
            Some(1.0 - samples(&self.walls_ns).median() / samples(&self.traced_walls_ns).median());

        let report = &self.reference.report;
        let counter = |name: &str| -> f64 {
            report
                .cells
                .iter()
                .map(|c| c.counters.get(name))
                .sum::<u64>() as f64
        };
        let events = report.cells.iter().map(|c| c.events_executed).sum::<u64>() as f64;
        let run_ms = median_ms(&|p| get(p, "harness.run"));
        let verdict_ms = micro::verdict_ms(report);
        collect(PER_LAYER, |name| match name {
            "harness.expand_ms" => median_ms(&|p| get(p, "harness.expand")),
            "harness.resolve_ms" => median_ms(&|p| get(p, "harness.resolve")),
            "harness.build_ms" => median_ms(&|p| get(p, "harness.build")),
            "harness.run_ms" => run_ms,
            "harness.collect_ms" => median_ms(&|p| get(p, "harness.collect")),
            "harness.report_ms" => median_ms(&|p| get(p, "harness.report")),
            "harness.json_ms" => median_ms(&|p| get(p, "harness.json")),
            "harness.runner_self_ms" => {
                median_ms(&|p| get(p, "harness.pass") + get(p, "harness.scenario"))
            }
            "simkit.events" => events,
            "simkit.ns_per_event" => run_ms * 1e6 / events.max(1.0),
            "simkit.allocs_per_event" => self.heap.allocations as f64 / events.max(1.0),
            "simkit.dispatch_ns" => micro.dispatch_ns,
            "netsim.packets" => {
                counter("ingress_packets") + counter("net_irq") + counter("client_packets")
            }
            "netsim.packet_new_ns" => micro.packet_new_ns,
            "stopwatch_core.egress_forwarded" => counter("egress_forwarded"),
            "stopwatch_core.egress_divergences" => counter("egress_divergences"),
            "stopwatch_core.pgm_naks" => counter("pgm_naks"),
            "vmm.net_irq" => counter("net_irq"),
            "vmm.disk_irq" => counter("disk_irq"),
            "vmm.cache_irq" => counter("cache_irq"),
            "vmm.vtimer_irq" => counter("vtimer_irq"),
            "vmm.cache_probes" => counter("cache_probes"),
            "vmm.cache_hit_ratio" => {
                let hits = counter("cache_hits");
                let looked_up = hits + counter("cache_misses");
                if looked_up > 0.0 {
                    hits / looked_up
                } else {
                    0.0
                }
            }
            "vmm.cache_probe_ns" => micro.cache_probe_ns,
            "vmm.timer_arms" => counter("timer_arms"),
            "vmm.sched_preemptions" => counter("sched_preemptions"),
            "vmm.violations" => {
                counter("sync_violations") + counter("dd_violations") + counter("dt_violations")
            }
            "vmm.stalls" => counter("stalls"),
            "timestats.median_ns" => micro.median_ns,
            "timestats.verdict_ms" => verdict_ms,
            "workloads.completed" => report.cells.iter().map(|c| c.completed).sum::<u64>() as f64,
            "workloads.timeouts" => report.cells.iter().map(|c| c.timeouts).sum::<u64>() as f64,
            other => unreachable!("no per-layer value for {other}"),
        })
    }
}

fn samples(ns: &[u64]) -> Samples {
    ns.iter().map(|&n| n as f64).collect()
}

fn collect(defs: &'static [MetricDef], mut value: impl FnMut(&str) -> f64) -> Values {
    defs.iter().map(|d| (d, value(d.name))).collect()
}

/// Runs the benchmark. Returns every workload's results, plus the spans
/// of a traced run.
///
/// # Errors
///
/// A workload whose sweep does not expand; output mismatches are not
/// errors but failed scenarios (see [`WorkloadRun::failed`]).
pub fn run(opts: &Options) -> Result<(Vec<WorkloadRun>, Option<Trace>), String> {
    let mut runs = opts
        .workloads
        .iter()
        .map(|w| WorkloadRun::start(w, opts))
        .collect::<Result<Vec<_>, _>>()?;
    let mut trace = opts.trace.then(Trace::default);
    let budget_ns = (opts.seconds.max(0.0) * 1e9) as u64;
    let min_rounds = if opts.trace { MIN_TRACED_PASSES } else { 1 };
    for round in 0.. {
        let mut ran = false;
        for r in &mut runs {
            if round >= min_rounds && r.spent_ns >= budget_ns {
                continue;
            }
            ran = true;
            let pass = run_pass(r.workload, opts.seed, opts.quick)?;
            r.record(&pass, false);
            if let Some(trace) = trace.as_mut() {
                let pass = run_traced_pass(r.workload, opts.seed, opts.quick, trace, round)?;
                r.record(&pass, true);
            }
        }
        if !ran {
            break;
        }
    }
    match &trace {
        Some(trace) => {
            let micro = micro::run(opts.seed);
            for r in &mut runs {
                r.metrics = r.per_layer(trace, &micro);
            }
        }
        None => {
            for r in &mut runs {
                r.metrics = r.end_to_end();
            }
        }
    }
    Ok((runs, trace))
}

/// The human-readable result lines: `workload metric value unit`, then
/// the failure accounting and any correctness problems.
pub fn lines(runs: &[WorkloadRun]) -> Vec<String> {
    let mut out = Vec::new();
    for r in runs {
        let name = r.workload.name;
        for (def, value) in &r.metrics {
            out.push(format!("{name} {} {value} {}", def.name, def.unit));
        }
        let (p50, p90) = r.pass_ms();
        out.push(format!(
            "{name} passes {} (untraced pass p50 {p50:.2} ms, p90 {p90:.2} ms) \
             scenarios_per_pass {} attempted {} failed {}",
            r.passes, r.scenarios, r.attempted, r.failed
        ));
        if let (Some(overhead), Some(attributed)) = (r.tracing_overhead, r.attributed_min) {
            out.push(format!(
                "{name} tracing costs {:+.2}% of scenarios/s; named layers cover >= {:.1}% of every traced pass",
                overhead * 100.0,
                attributed * 100.0
            ));
        }
        for p in &r.problems {
            out.push(format!("{name} FAILED {p}"));
        }
    }
    out
}

fn metrics_json(metrics: &Values, prefix: &str) -> Json {
    metrics.iter().fold(Json::obj(), |acc, (def, value)| {
        acc.with(
            &format!("{prefix}{}", def.name),
            Json::obj()
                .with("value", Json::F64(*value))
                .with("unit", Json::str(def.unit)),
        )
    })
}

/// The one-line result object: `correct`, `attempted`, `failed` and the
/// metrics, named plainly for one workload and `<workload>/<metric>` for
/// several.
pub fn summary_line(runs: &[WorkloadRun]) -> String {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let metrics = runs.iter().fold(Json::obj(), |acc, r| {
        let prefix = if runs.len() == 1 {
            String::new()
        } else {
            format!("{}/", r.workload.name)
        };
        match (acc, metrics_json(&r.metrics, &prefix)) {
            (Json::Obj(mut all), Json::Obj(more)) => {
                all.extend(more);
                Json::Obj(all)
            }
            _ => unreachable!("objects"),
        }
    });
    Json::obj()
        .with("correct", Json::Bool(failed == 0 && attempted > 0))
        .with("attempted", Json::U64(attempted))
        .with("failed", Json::U64(failed))
        .with("metrics", metrics)
        .render()
}

/// The `--out` document: every workload's metrics and accounting, the
/// input of `compare`; traced runs add the per-span self times.
pub fn results_json(opts: &Options, runs: &[WorkloadRun]) -> String {
    let workloads = runs
        .iter()
        .map(|r| {
            let mut w = Json::obj()
                .with("name", Json::str(r.workload.name))
                .with("scenarios_per_pass", Json::U64(r.scenarios))
                .with("passes", Json::U64(r.passes))
                .with("pass_p50_ms", Json::F64(r.pass_ms().0))
                .with("pass_p90_ms", Json::F64(r.pass_ms().1))
                .with("attempted", Json::U64(r.attempted))
                .with("failed", Json::U64(r.failed))
                .with(
                    "problems",
                    Json::Arr(r.problems.iter().map(Json::str).collect()),
                )
                .with("metrics", metrics_json(&r.metrics, ""));
            if let (Some(overhead), Some(attributed)) = (r.tracing_overhead, r.attributed_min) {
                w = w
                    .with("tracing_overhead", Json::F64(overhead))
                    .with("attributed_min", Json::F64(attributed))
                    .with(
                        "self_ms",
                        r.self_ms
                            .iter()
                            .fold(Json::obj(), |acc, (n, ms)| acc.with(n, Json::F64(*ms))),
                    );
            }
            w
        })
        .collect();
    Json::obj()
        .with("schema_version", Json::U64(1))
        .with(
            "kind",
            Json::str(if opts.trace {
                "benchmark-layers"
            } else {
                "benchmark-run"
            }),
        )
        .with("seed", Json::U64(opts.seed))
        .with("quick", Json::Bool(opts.quick))
        .with("seconds", Json::F64(opts.seconds))
        .with("workloads", Json::Arr(workloads))
        .render_pretty()
}
