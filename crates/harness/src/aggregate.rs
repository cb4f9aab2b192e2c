//! Merging scenario results into per-cell summaries and leakage verdicts.
//!
//! Every seed shard of a grid cell contributes its samples to one merged
//! distribution per cell; the report carries exact percentiles of that
//! distribution, the summed counters, and — per cell — a **leakage
//! verdict** against the sweep's baseline cell: the Kolmogorov–Smirnov
//! distance between the two observed timing distributions and the χ²
//! observation count an attacker would need to distinguish them at 95%
//! confidence (the paper's Figs. 1b/4b metric). Cells whose timing an
//! observer cannot tell apart from the baseline's leak nothing through
//! this channel.
//!
//! Aggregation is pure data-folding over the deterministic outcome list,
//! so a report is byte-identical for a given spec regardless of how many
//! runner threads produced the outcomes.

use crate::json::JsonWriter;
use crate::runner::RunOutcome;
use simkit::metrics::{Counters, Percentiles, Samples};
use std::sync::Arc;
use timestats::detect::Detector;
use timestats::dist::Empirical;
use timestats::ks::ks_distance;

/// Version of the JSON report layout. Bumped whenever the report shape
/// changes; consumers should assert it before parsing.
pub const REPORT_SCHEMA_VERSION: u64 = 3;

/// Everything measured about one grid cell, merged over its seed shards.
#[derive(Debug, Clone)]
pub struct CellAggregate {
    /// The cell key (`"k=v,k2=v2"`).
    pub cell: String,
    /// Cell coordinates in axis order.
    pub params: Vec<(String, String)>,
    /// The workload that ran in this cell.
    pub workload: String,
    /// The defense arm of this cell (a `vmm::defense` registry key).
    pub defense: String,
    /// The seeds of the merged shards, in run order.
    pub seeds: Vec<u64>,
    /// The cell's fully-resolved [`CloudConfig`] knobs (`seed` omitted —
    /// see `seeds`). With `resolved_params` this makes every cell
    /// reproducible from the report alone. The listing of the cell's
    /// first shard, shared with its [`ScenarioResult`], not copied.
    ///
    /// [`CloudConfig`]: stopwatch_core::config::CloudConfig
    /// [`ScenarioResult`]: crate::scenario::ScenarioResult
    pub resolved_config: Arc<[(String, String)]>,
    /// The cell's fully-resolved workload parameters, shared likewise.
    pub resolved_params: Arc<[(String, String)]>,
    /// Seed-shard runs merged into this cell.
    pub runs: u64,
    /// Runs whose clients did not finish inside the budget.
    pub timeouts: u64,
    /// Total completed operations.
    pub completed: u64,
    /// Total engine events (determinism fingerprint).
    pub events_executed: u64,
    /// Percentiles of the merged latency samples (ms).
    pub latency_ms: Percentiles,
    /// Summed counters.
    pub counters: Counters,
    /// Summed workload-specific side measurements.
    pub extra: Vec<(String, f64)>,
    /// The merged samples (kept for leakage analysis).
    pub samples: Samples,
    /// Cost of this cell's defense arm against its Baseline sibling —
    /// the cell at the same grid coordinates with `cfg.defense=baseline`.
    /// `None` for baseline cells and for sweeps without a defense axis.
    pub overhead: Option<CellOverhead>,
}

/// What a defense arm costs relative to the undefended run of the same
/// cell: throughput as a ratio and delivery-lag percentile deltas.
#[derive(Debug, Clone)]
pub struct CellOverhead {
    /// The Baseline sibling cell the comparison is against.
    pub vs_cell: String,
    /// Completed operations relative to the sibling (1.0 = no cost).
    pub throughput_ratio: f64,
    /// Median latency shift vs the sibling, ms (positive = slower).
    pub latency_p50_delta_ms: f64,
    /// Tail (p95) latency shift vs the sibling, ms.
    pub latency_p95_delta_ms: f64,
}

impl CellAggregate {
    /// One summed extra by name (0 when the workload never reported it).
    pub fn extra(&self, name: &str) -> f64 {
        self.extra
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Writes this cell's report object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("cell").str(&self.cell);
        w.key("params").str_pairs(&self.params);
        // The cell's fully-resolved construction inputs: workload, arm,
        // seeds, parameters, and every config knob — enough to re-run
        // the cell from the report alone.
        w.key("resolved").begin_obj();
        w.key("workload").str(&self.workload);
        w.key("defense").str(&self.defense);
        w.key("seeds").begin_arr();
        for &seed in &self.seeds {
            w.u64(seed);
        }
        w.end_arr();
        w.key("params").str_pairs(&self.resolved_params);
        w.key("config").str_pairs(&self.resolved_config);
        if let Some(o) = &self.overhead {
            w.key("overhead").begin_obj();
            w.key("vs_cell").str(&o.vs_cell);
            w.key("throughput_ratio").f64(o.throughput_ratio);
            w.key("latency_p50_delta_ms").f64(o.latency_p50_delta_ms);
            w.key("latency_p95_delta_ms").f64(o.latency_p95_delta_ms);
            w.end_obj();
        }
        w.end_obj();
        w.key("runs").u64(self.runs);
        w.key("timeouts").u64(self.timeouts);
        w.key("completed").u64(self.completed);
        w.key("events_executed").u64(self.events_executed);
        let p = &self.latency_ms;
        w.key("latency_ms").begin_obj();
        w.key("count").u64(p.count);
        for (name, x) in [
            ("mean", p.mean),
            ("min", p.min),
            ("p50", p.p50),
            ("p90", p.p90),
            ("p95", p.p95),
            ("p99", p.p99),
            ("max", p.max),
        ] {
            w.key(name).f64(x);
        }
        w.end_obj();
        w.key("counters").begin_obj();
        for (k, v) in self.counters.iter() {
            w.key(k).u64(v);
        }
        w.end_obj();
        w.key("extra").begin_obj();
        for (k, v) in &self.extra {
            w.key(k).f64(*v);
        }
        w.end_obj();
        w.end_obj();
    }
}

/// A cell's distinguishability from the sweep's baseline cell.
#[derive(Debug, Clone)]
pub struct LeakageVerdict {
    /// The analyzed cell.
    pub cell: String,
    /// The baseline cell it is compared against.
    pub baseline: String,
    /// KS distance between the merged sample distributions.
    pub ks_distance: f64,
    /// χ² observations needed to distinguish at 95% confidence
    /// (`u64::MAX` = numerically indistinguishable).
    pub observations_needed_95: u64,
    /// Whether the attacker could have distinguished the two with the
    /// samples this sweep actually collected.
    pub distinguishable_at_95: bool,
}

/// A finished sweep: per-cell aggregates, leakage verdicts, failures.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Sweep name.
    pub name: String,
    /// Scenarios that ran.
    pub scenarios: u64,
    /// Per-cell aggregates, in grid order.
    pub cells: Vec<CellAggregate>,
    /// Per-cell leakage verdicts (cells after the baseline, in grid order).
    pub leakage: Vec<LeakageVerdict>,
    /// `(label, error)` for scenarios that failed to run.
    pub failures: Vec<(String, String)>,
}

impl SweepReport {
    /// Folds runner outcomes into a report. `baseline_cell` names the cell
    /// every leakage verdict compares against. `None` pairs each
    /// `victim=true` cell with its `victim=false` sibling when the grid
    /// has a victim axis, else each defended cell with its
    /// `cfg.defense=baseline` sibling when the grid has a defense axis,
    /// and otherwise compares each cell with the first cell with samples
    /// that ran the same workload (grid order — declare the null arm
    /// first).
    pub fn from_outcomes(
        name: &str,
        outcomes: &[RunOutcome],
        baseline_cell: Option<&str>,
    ) -> SweepReport {
        let mut cells: Vec<CellAggregate> = Vec::new();
        let mut failures = Vec::new();
        for outcome in outcomes {
            let result = match &outcome.result {
                Ok(r) => r,
                Err(e) => {
                    failures.push((outcome.label.clone(), e.clone()));
                    continue;
                }
            };
            let cell = match cells.iter_mut().find(|c| c.cell == result.cell) {
                Some(c) => c,
                None => {
                    cells.push(CellAggregate {
                        cell: result.cell.clone(),
                        params: result.cell_params.clone(),
                        workload: result.workload.clone(),
                        defense: result.defense.clone(),
                        seeds: Vec::new(),
                        resolved_config: Arc::clone(&result.resolved_config),
                        resolved_params: Arc::clone(&result.resolved_params),
                        runs: 0,
                        timeouts: 0,
                        completed: 0,
                        events_executed: 0,
                        latency_ms: Percentiles::default(),
                        counters: Counters::new(),
                        extra: Vec::new(),
                        samples: Samples::new(),
                        overhead: None,
                    });
                    cells.last_mut().expect("just pushed")
                }
            };
            cell.runs += 1;
            cell.seeds.push(result.seed);
            if !result.clients_done {
                cell.timeouts += 1;
            }
            cell.completed += result.completed;
            cell.events_executed += result.events_executed;
            cell.samples.extend(result.samples_ms.iter().copied());
            for (k, v) in &result.counters {
                cell.counters.add(k, *v);
            }
            for (k, v) in &result.extra {
                match cell.extra.iter_mut().find(|(name, _)| name == k) {
                    Some((_, sum)) => *sum += v,
                    None => cell.extra.push((k.clone(), *v)),
                }
            }
        }
        for cell in &mut cells {
            cell.latency_ms = cell.samples.percentiles();
        }
        let overheads: Vec<Option<CellOverhead>> =
            cells.iter().map(|c| cell_overhead(c, &cells)).collect();
        for (cell, overhead) in cells.iter_mut().zip(overheads) {
            cell.overhead = overhead;
        }

        if let Some(wanted) = baseline_cell {
            // A baseline typo must fail loudly, not silently drop the
            // whole leakage section.
            if !cells.iter().any(|c| c.cell == wanted) {
                let known: Vec<&str> = cells.iter().map(|c| c.cell.as_str()).collect();
                failures.push((
                    "baseline".to_string(),
                    format!("baseline cell {wanted:?} matches no cell (cells: {known:?})"),
                ));
            }
        }
        let leakage = leakage_verdicts(&cells, baseline_cell);
        SweepReport {
            name: name.to_string(),
            scenarios: outcomes.len() as u64,
            cells,
            leakage,
            failures,
        }
    }

    /// Renders the machine-readable report (pretty JSON, deterministic),
    /// streamed straight into the output string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_obj();
        w.key("sweep").str(&self.name);
        w.key("schema_version").u64(REPORT_SCHEMA_VERSION);
        w.key("scenarios").u64(self.scenarios);
        w.key("cells").begin_arr();
        for c in &self.cells {
            c.write_json(&mut w);
        }
        w.end_arr();
        w.key("leakage").begin_arr();
        for v in &self.leakage {
            w.begin_obj();
            w.key("cell").str(&v.cell);
            w.key("baseline").str(&v.baseline);
            w.key("ks_distance").f64(v.ks_distance);
            w.key("observations_needed_95");
            if v.observations_needed_95 == u64::MAX {
                w.null();
            } else {
                w.u64(v.observations_needed_95);
            }
            w.key("distinguishable_at_95").bool(v.distinguishable_at_95);
            w.end_obj();
        }
        w.end_arr();
        w.key("failures").begin_arr();
        for (label, error) in &self.failures {
            w.begin_obj();
            w.key("label").str(label);
            w.key("error").str(error);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// A human-readable per-cell table for the console.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>5} {:>8} {:>10} {:>10} {:>10}",
            "cell", "runs", "samples", "p50_ms", "p95_ms", "mean_ms"
        );
        for c in &self.cells {
            let p = &c.latency_ms;
            let _ = writeln!(
                out,
                "{:<44} {:>5} {:>8} {:>10.3} {:>10.3} {:>10.3}",
                c.cell, c.runs, p.count, p.p50, p.p95, p.mean
            );
        }
        for v in &self.leakage {
            let obs = if v.observations_needed_95 == u64::MAX {
                "inf".to_string()
            } else {
                v.observations_needed_95.to_string()
            };
            let _ = writeln!(
                out,
                "leakage {:<36} vs {:<24} ks={:.4} obs95={} distinguishable={}",
                v.cell, v.baseline, v.ks_distance, obs, v.distinguishable_at_95
            );
        }
        for (label, error) in &self.failures {
            let _ = writeln!(out, "FAILED {label}: {error}");
        }
        out
    }
}

/// The cell at `cell`'s grid coordinates but with the first axis that
/// `on_axis(key, value)` accepts set to `value`; `None` when `cell` has
/// no such axis or the grid no such cell.
fn sibling<'a>(
    cell: &CellAggregate,
    cells: &'a [CellAggregate],
    on_axis: fn(&str, &str) -> bool,
    value: &str,
) -> Option<&'a CellAggregate> {
    let axis = cell.params.iter().position(|(k, v)| on_axis(k, v))?;
    let mut wanted = cell.params.clone();
    wanted[axis].1 = value.to_string();
    cells.iter().find(|c| c.params == wanted)
}

/// A `victim=true` cell's clean sibling: its `victim=false` cell.
fn victim_sibling<'a>(
    cell: &CellAggregate,
    cells: &'a [CellAggregate],
) -> Option<&'a CellAggregate> {
    sibling(cell, cells, |k, v| k == "victim" && v == "true", "false")
}

/// A defended cell's Baseline sibling: same grid coordinates, but with
/// the `cfg.defense` axis set to `"baseline"`. Only a sweep that varies
/// the defense axis has one.
fn baseline_sibling<'a>(
    cell: &CellAggregate,
    cells: &'a [CellAggregate],
) -> Option<&'a CellAggregate> {
    if cell.defense == "baseline" {
        return None;
    }
    sibling(
        cell,
        cells,
        |k, _| k == "cfg.defense" || k == "defense",
        "baseline",
    )
}

/// Prices the cell's arm against its Baseline sibling; no sibling, no
/// overhead row.
fn cell_overhead(cell: &CellAggregate, cells: &[CellAggregate]) -> Option<CellOverhead> {
    let base = baseline_sibling(cell, cells)?;
    Some(CellOverhead {
        vs_cell: base.cell.clone(),
        throughput_ratio: if base.completed == 0 {
            // A sibling that completed nothing prices everything at
            // infinity; report 0 instead of NaN for JSON stability.
            0.0
        } else {
            cell.completed as f64 / base.completed as f64
        },
        latency_p50_delta_ms: cell.latency_ms.p50 - base.latency_ms.p50,
        latency_p95_delta_ms: cell.latency_ms.p95 - base.latency_ms.p95,
    })
}

fn leakage_verdicts(cells: &[CellAggregate], baseline_cell: Option<&str>) -> Vec<LeakageVerdict> {
    // With no explicit anchor, each cell is judged against the sibling
    // that differs from it on one axis only, so the verdict measures that
    // axis and not the workload, file size or rate beside it. A grid with
    // a victim axis pairs each victim cell with the clean (victim=false)
    // cell of the *same* arm coordinates. Across defense arms this is the
    // verdict that matters: a clean cell already reads differently per
    // arm by construction (flat Δ releases vs raw timings), so only the
    // within-arm comparison says whether the arm closed the channel.
    // Otherwise a grid with a defense axis pairs each arm with its
    // Baseline sibling.
    if baseline_cell.is_none() {
        for pair in [victim_sibling, baseline_sibling] {
            let paired: Vec<LeakageVerdict> = cells
                .iter()
                .filter_map(|c| verdict_against(pair(c, cells)?, c))
                .collect();
            if !paired.is_empty() {
                return paired;
            }
        }
    }
    // A grid with no such pair judges each cell against the first cell
    // with samples that ran the same workload: a verdict between two
    // workloads measures the workloads, not the defense. That anchor cell
    // gets no verdict of its own.
    let anchor = |c: &CellAggregate| match baseline_cell {
        Some(name) => cells.iter().find(|b| b.cell == name),
        None => cells
            .iter()
            .find(|b| b.workload == c.workload && !b.samples.is_empty()),
    };
    cells
        .iter()
        .filter_map(|c| {
            let base = anchor(c).filter(|b| b.cell != c.cell)?;
            verdict_against(base, c)
        })
        .collect()
}

/// One KS + χ² verdict for `cell` against `base`; `None` when either
/// side has no samples to compare.
fn verdict_against(base: &CellAggregate, cell: &CellAggregate) -> Option<LeakageVerdict> {
    if base.samples.is_empty() || cell.samples.is_empty() {
        return None;
    }
    let base_dist = Empirical::from_samples(base.samples.as_slice().iter().copied());
    let dist = Empirical::from_samples(cell.samples.as_slice().iter().copied());
    let observations = Detector::from_samples(
        base.samples.as_slice(),
        cell.samples.as_slice(),
        10.min(base.samples.len().max(2)),
    )
    .observations_needed(0.95);
    Some(LeakageVerdict {
        cell: cell.cell.clone(),
        baseline: base.cell.clone(),
        ks_distance: ks_distance(&base_dist, &dist),
        observations_needed_95: observations,
        distinguishable_at_95: observations <= cell.samples.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioResult;

    fn outcome(cell: &str, seed: u64, samples: Vec<f64>) -> RunOutcome {
        RunOutcome {
            label: format!("{cell}#{seed}"),
            result: Ok(ScenarioResult {
                label: format!("{cell}#{seed}"),
                cell: cell.to_string(),
                cell_params: vec![("k".to_string(), cell.to_string())],
                workload: "test-workload".to_string(),
                defense: "stopwatch".to_string(),
                resolved_config: Arc::new([("delta_n_ms".to_string(), "10".to_string())]),
                resolved_params: Arc::new([("bytes".to_string(), "100".to_string())]),
                seed,
                completed: samples.len() as u64,
                samples_ms: samples,
                extra: vec![("sent".to_string(), 2.0)],
                clients_done: true,
                finished_ms: 100.0,
                events_executed: 10,
                replicas: 3,
                counters: vec![("net_irq", 3)],
            }),
        }
    }

    #[test]
    fn cells_merge_over_seeds_in_first_seen_order() {
        let outcomes = vec![
            outcome("a", 1, vec![1.0, 2.0]),
            outcome("a", 2, vec![3.0]),
            outcome("b", 1, vec![10.0, 20.0]),
        ];
        let r = SweepReport::from_outcomes("t", &outcomes, None);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.cells[0].cell, "a");
        assert_eq!(r.cells[0].runs, 2);
        assert_eq!(r.cells[0].seeds, vec![1, 2]);
        assert_eq!(r.cells[0].latency_ms.count, 3);
        assert_eq!(r.cells[0].latency_ms.p50, 2.0);
        assert_eq!(r.cells[0].counters.get("net_irq"), 6);
        assert_eq!(r.cells[0].extra("sent"), 4.0);
        assert_eq!(r.cells[0].extra("missing"), 0.0);
        assert_eq!(r.cells[0].events_executed, 20);
        // Leakage: "b" judged against baseline "a".
        assert_eq!(r.leakage.len(), 1);
        assert_eq!(r.leakage[0].cell, "b");
        assert_eq!(r.leakage[0].baseline, "a");
        assert!(r.leakage[0].ks_distance > 0.9, "disjoint distributions");
    }

    /// One seed of the grid cell at `params`, run on `workload` under
    /// `defense`.
    fn grid_outcome(
        workload: &str,
        defense: &str,
        params: &[(&str, &str)],
        samples: Vec<f64>,
    ) -> RunOutcome {
        let cell: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let mut o = outcome(&cell.join(","), 1, samples);
        let r = o.result.as_mut().expect("built Ok");
        r.workload = workload.to_string();
        r.defense = defense.to_string();
        r.cell_params = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        o
    }

    fn verdict_pairs(r: &SweepReport) -> Vec<(&str, &str)> {
        r.leakage
            .iter()
            .map(|v| (v.cell.as_str(), v.baseline.as_str()))
            .collect()
    }

    #[test]
    fn verdicts_without_a_baseline_compare_cells_of_one_workload() {
        // A workload axis and neither a victim nor a defense axis: every
        // verdict's baseline ran its cell's workload, and each workload's
        // first cell anchors the others without a verdict of its own.
        let run = |workload: &str, bytes: &str, samples: Vec<f64>| {
            let params = [("workload", workload), ("bytes", bytes)];
            grid_outcome(workload, "stopwatch", &params, samples)
        };
        let outcomes = vec![
            run("web-http", "1000", vec![1.0, 2.0]),
            run("web-http", "100000", vec![11.0, 12.0]),
            run("web-udp", "1000", vec![3.0, 4.0]),
            run("web-udp", "100000", vec![13.0, 14.0]),
        ];
        let r = SweepReport::from_outcomes("t", &outcomes, None);
        assert_eq!(
            verdict_pairs(&r),
            [
                (
                    "workload=web-http,bytes=100000",
                    "workload=web-http,bytes=1000"
                ),
                (
                    "workload=web-udp,bytes=100000",
                    "workload=web-udp,bytes=1000"
                ),
            ]
        );
        for v in &r.leakage {
            let workload_of = |name: &str| {
                let c = r.cells.iter().find(|c| c.cell == name).expect("cell");
                c.workload.clone()
            };
            assert_eq!(workload_of(&v.cell), workload_of(&v.baseline), "{v:?}");
        }
    }

    #[test]
    fn verdicts_without_a_baseline_pair_each_arm_with_its_baseline_sibling() {
        // The Fig. 5 grid (workload x cfg.defense x bytes), no victim
        // axis: each StopWatch cell is judged against the baseline cell of
        // the same workload and file size, never against another size, and
        // baseline cells get no verdict.
        let mut outcomes = Vec::new();
        for (w, workload) in ["web-http", "web-udp"].into_iter().enumerate() {
            for (d, defense) in ["baseline", "stopwatch"].into_iter().enumerate() {
                for (b, bytes) in ["1000", "100000"].into_iter().enumerate() {
                    let params = [
                        ("workload", workload),
                        ("cfg.defense", defense),
                        ("bytes", bytes),
                    ];
                    let ms = (100 * w + 10 * d + 5 * b) as f64;
                    outcomes.push(grid_outcome(workload, defense, &params, vec![ms, ms + 1.0]));
                }
            }
        }
        let r = SweepReport::from_outcomes("t", &outcomes, None);
        assert_eq!(
            verdict_pairs(&r),
            [
                (
                    "workload=web-http,cfg.defense=stopwatch,bytes=1000",
                    "workload=web-http,cfg.defense=baseline,bytes=1000"
                ),
                (
                    "workload=web-http,cfg.defense=stopwatch,bytes=100000",
                    "workload=web-http,cfg.defense=baseline,bytes=100000"
                ),
                (
                    "workload=web-udp,cfg.defense=stopwatch,bytes=1000",
                    "workload=web-udp,cfg.defense=baseline,bytes=1000"
                ),
                (
                    "workload=web-udp,cfg.defense=stopwatch,bytes=100000",
                    "workload=web-udp,cfg.defense=baseline,bytes=100000"
                ),
            ]
        );
    }

    fn arm_outcome(defense: &str, samples: Vec<f64>) -> RunOutcome {
        let mut o = outcome(&format!("cfg.defense={defense},victim=true"), 1, samples);
        let r = o.result.as_mut().expect("built Ok");
        r.defense = defense.to_string();
        r.cell_params = vec![
            ("cfg.defense".to_string(), defense.to_string()),
            ("victim".to_string(), "true".to_string()),
        ];
        o
    }

    #[test]
    fn defended_cells_are_priced_against_their_baseline_sibling() {
        let outcomes = vec![
            arm_outcome("baseline", vec![1.0, 2.0, 3.0, 4.0]),
            arm_outcome("deterland", vec![6.0, 7.0]),
        ];
        let r = SweepReport::from_outcomes("t", &outcomes, None);
        assert!(r.cells[0].overhead.is_none(), "baseline has no sibling");
        let o = r.cells[1].overhead.as_ref().expect("priced");
        assert_eq!(o.vs_cell, "cfg.defense=baseline,victim=true");
        assert!((o.throughput_ratio - 0.5).abs() < 1e-12);
        assert!((o.latency_p50_delta_ms - 4.0).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.contains("\"overhead\""), "{json}");
        assert!(json.contains("\"throughput_ratio\": 0.5"), "{json}");
    }

    #[test]
    fn sweeps_without_a_defense_axis_price_nothing() {
        let outcomes = vec![outcome("a", 1, vec![1.0]), outcome("b", 1, vec![2.0])];
        let r = SweepReport::from_outcomes("t", &outcomes, None);
        assert!(r.cells.iter().all(|c| c.overhead.is_none()));
    }

    #[test]
    fn identical_cells_are_indistinguishable() {
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        let outcomes = vec![outcome("null", 1, xs.clone()), outcome("same", 1, xs)];
        let r = SweepReport::from_outcomes("t", &outcomes, Some("null"));
        assert_eq!(r.leakage.len(), 1);
        assert!(r.leakage[0].ks_distance < 1e-9);
        assert!(!r.leakage[0].distinguishable_at_95);
    }

    #[test]
    fn unknown_baseline_cell_is_a_failure() {
        let outcomes = vec![outcome("a", 1, vec![1.0]), outcome("b", 1, vec![2.0])];
        let r = SweepReport::from_outcomes("t", &outcomes, Some("z"));
        assert!(r.leakage.is_empty());
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].1.contains("\"z\""), "{:?}", r.failures);
    }

    #[test]
    fn failures_are_reported_not_aggregated() {
        let outcomes = vec![
            outcome("a", 1, vec![1.0]),
            RunOutcome {
                label: "bad#1".to_string(),
                result: Err("boom".to_string()),
            },
        ];
        let r = SweepReport::from_outcomes("t", &outcomes, None);
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.failures, vec![("bad#1".to_string(), "boom".to_string())]);
        let json = r.to_json();
        assert!(json.contains("\"error\": \"boom\""));
    }

    #[test]
    fn json_is_stable_and_complete() {
        let outcomes = vec![outcome("a", 1, vec![1.0, 2.0, 3.0])];
        let r = SweepReport::from_outcomes("t", &outcomes, None);
        let j1 = r.to_json();
        let j2 = SweepReport::from_outcomes("t", &outcomes, None).to_json();
        assert_eq!(j1, j2);
        for needle in [
            "\"sweep\": \"t\"",
            &format!("\"schema_version\": {REPORT_SCHEMA_VERSION}"),
            "\"p50\": 2.0",
            "\"p95\": 3.0",
            "\"counters\"",
            "\"resolved\"",
            "\"workload\": \"test-workload\"",
            "\"defense\": \"stopwatch\"",
            "\"delta_n_ms\": \"10\"",
            "\"bytes\": \"100\"",
        ] {
            assert!(j1.contains(needle), "missing {needle} in {j1}");
        }
        let table = r.to_table();
        assert!(table.contains("cell"));
        assert!(table.contains('a'));
    }
}
