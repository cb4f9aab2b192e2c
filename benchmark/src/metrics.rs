//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` at the repository
//! root lists the same metrics; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, work and failure counts).
    Lower,
    /// Larger is better (throughput, completed work).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Printed name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which carry no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("scenarios_per_s", "scenarios/s", Better::Higher, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_heap_mb", "MiB", Better::Lower, 0.15),
];

/// Per-layer metrics of the traced run, `<crate>.<metric>`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("harness.expand_ms", "ms", Better::Lower),
    layer("harness.resolve_ms", "ms", Better::Lower),
    layer("harness.build_ms", "ms", Better::Lower),
    layer("harness.run_ms", "ms", Better::Lower),
    layer("harness.collect_ms", "ms", Better::Lower),
    layer("harness.report_ms", "ms", Better::Lower),
    layer("harness.json_ms", "ms", Better::Lower),
    layer("harness.runner_self_ms", "ms", Better::Lower),
    layer("simkit.events", "count", Better::Lower),
    layer("simkit.ns_per_event", "ns", Better::Lower),
    layer("simkit.allocs_per_event", "allocs/event", Better::Lower),
    layer("simkit.dispatch_ns", "ns", Better::Lower),
    layer("netsim.packets", "count", Better::Lower),
    layer("netsim.packet_new_ns", "ns", Better::Lower),
    layer("stopwatch_core.egress_forwarded", "count", Better::Higher),
    layer("stopwatch_core.egress_divergences", "count", Better::Lower),
    layer("stopwatch_core.pgm_naks", "count", Better::Lower),
    layer("vmm.net_irq", "count", Better::Lower),
    layer("vmm.disk_irq", "count", Better::Lower),
    layer("vmm.cache_irq", "count", Better::Lower),
    layer("vmm.vtimer_irq", "count", Better::Lower),
    layer("vmm.cache_probes", "count", Better::Lower),
    layer("vmm.cache_hit_ratio", "ratio", Better::Higher),
    layer("vmm.cache_probe_ns", "ns", Better::Lower),
    layer("vmm.timer_arms", "count", Better::Lower),
    layer("vmm.sched_preemptions", "count", Better::Lower),
    layer("vmm.violations", "count", Better::Lower),
    layer("vmm.stalls", "count", Better::Lower),
    layer("timestats.median_ns", "ns", Better::Lower),
    layer("timestats.verdict_ms", "ms", Better::Lower),
    layer("workloads.completed", "count", Better::Higher),
    layer("workloads.timeouts", "count", Better::Lower),
];

/// Looks up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Metric values in catalogue order, as measured.
pub type Values = Vec<(&'static MetricDef, f64)>;
