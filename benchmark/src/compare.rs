//! `compare`: judges a change against its parent from alternating runs.
//!
//! Pair *i* is parent run *i* against change run *i*. A metric is
//! **improved** when there are at least ten pairs, the change wins at
//! least nine tenths of them (ties count for neither side), and the
//! medians differ by more than the parent's interquartile range. It is
//! **regressed** when the change's median is worse than the parent's by
//! more than the metric's bound; **unresolved** when the parent's own
//! spread is wider than the bound and not every change run beats every
//! parent run; otherwise **unchanged**.

use crate::json::{self, field, number};
use crate::metrics::{Better, MetricDef, END_TO_END};
use harness::json::Json;
use simkit::metrics::Samples;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the paired rule.
    Improved,
    /// Within the bound, and the spread allows saying so.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The numbers behind a verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The verdict.
    pub verdict: Verdict,
    /// Median of the parent runs.
    pub parent_median: f64,
    /// Median of the change runs.
    pub change_median: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// Parent's third minus first quartile.
    pub parent_iqr: f64,
}

/// Applies the rule to one metric's parent and change runs, in run order.
///
/// # Panics
///
/// Panics on an empty side or a metric without a bound.
pub fn judge(def: &MetricDef, parent: &[f64], change: &[f64]) -> Judgement {
    let bound = def.bound.expect("compare judges end-to-end metrics");
    // Positive `worse` values mean the change is worse.
    let sign = match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let p: Samples = parent.iter().copied().collect();
    let c: Samples = change.iter().copied().collect();
    let (parent_median, change_median) = (p.median(), c.median());
    let parent_iqr = p.quantile(0.75) - p.quantile(0.25);
    let scale = parent_median.abs().max(f64::MIN_POSITIVE);
    let worse = sign * (change_median - parent_median) / scale;
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&pv, &cv)| sign * (cv - pv) < 0.0)
        .count();
    let all_better = parent
        .iter()
        .all(|&pv| change.iter().all(|&cv| sign * (cv - pv) < 0.0));
    let verdict = if pairs >= 10 && wins * 10 >= pairs * 9 && -worse * scale > parent_iqr {
        Verdict::Improved
    } else if worse > bound {
        Verdict::Regressed
    } else if parent_iqr / scale > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        verdict,
        parent_median,
        change_median,
        wins,
        pairs,
        parent_iqr,
    }
}

/// One row of the comparison.
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub metric: &'static MetricDef,
    /// Its judgement.
    pub judgement: Judgement,
}

impl Row {
    /// The printed form.
    pub fn line(&self) -> String {
        let j = &self.judgement;
        format!(
            "{} {} parent {} change {} {} ({:+.2}%, wins {}/{}, parent IQR {}) {}",
            self.workload,
            self.metric.name,
            j.parent_median,
            j.change_median,
            self.metric.unit,
            (j.change_median / j.parent_median - 1.0) * 100.0,
            j.wins,
            j.pairs,
            j.parent_iqr,
            j.verdict.as_str()
        )
    }
}

/// `(workload, metric values)` of one `run --out` file.
type RunFile = Vec<(String, Json)>;

fn load(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if field(&doc, "kind") != Some(&Json::str("benchmark-run")) {
        return Err(format!("{path}: not the --out file of an untraced run"));
    }
    let Some(Json::Arr(workloads)) = field(&doc, "workloads") else {
        return Err(format!("{path}: no workloads"));
    };
    workloads
        .iter()
        .map(|w| match (field(w, "name"), field(w, "metrics")) {
            (Some(Json::Str(name)), Some(metrics)) => Ok((name.clone(), metrics.clone())),
            _ => Err(format!("{path}: malformed workload entry")),
        })
        .collect()
}

fn value(file: &RunFile, path: &str, workload: &str, metric: &str) -> Result<f64, String> {
    file.iter()
        .find(|(w, _)| w == workload)
        .and_then(|(_, m)| field(m, metric))
        .and_then(|m| field(m, "value"))
        .and_then(number)
        .ok_or_else(|| format!("{path}: no {workload} {metric}"))
}

/// Compares `run --out` files: the first half of `paths` are parent runs,
/// the second half change runs, each half in run order.
///
/// # Errors
///
/// An odd or empty file list, unreadable files, or files that lack a
/// workload × metric the first parent file has.
pub fn compare(paths: &[String]) -> Result<Vec<Row>, String> {
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        return Err("compare takes PARENT files then as many CHANGE files".to_string());
    }
    let files = paths
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let half = files.len() / 2;
    let mut rows = Vec::new();
    for (workload, _) in &files[0] {
        for metric in END_TO_END {
            let mut values = Vec::with_capacity(files.len());
            for (file, path) in files.iter().zip(paths) {
                values.push(value(file, path, workload, metric.name)?);
            }
            rows.push(Row {
                workload: workload.clone(),
                metric,
                judgement: judge(metric, &values[..half], &values[half..]),
            });
        }
    }
    Ok(rows)
}
