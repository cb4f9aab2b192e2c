//! Output correctness: golden report digests, pass-to-pass byte identity,
//! and the paper invariants each workload's report must satisfy.
//!
//! The model has no reference measurements to be validated against, so
//! these checks stand in for a simulator-error figure: a change meant only
//! to make the simulator faster must leave every report byte unchanged.

use crate::json::{self, field};
use harness::aggregate::SweepReport;
use harness::json::Json;

/// The seed the golden digests were taken at; other seeds skip only the
/// golden comparison.
pub const GOLDEN_SEED: u64 = 42;

/// Golden digests per workload and mode, refreshed by
/// `benchmark digests > benchmark/golden.json`.
const GOLDEN: &str = include_str!("../golden.json");

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Splits a sweep report into named segments with one digest each: every
/// element of a top-level array (`cells/<cell>`, `leakage/<cell>`,
/// `failures/<label>`) and every other top-level field by its key. A
/// segment's digest covers its compact rendering, so two reports that
/// differ in a value differ in the segment that holds it.
///
/// # Errors
///
/// A report that does not parse as a JSON object.
fn segments(report_json: &str) -> Result<Vec<(String, String)>, String> {
    let Json::Obj(fields) = json::parse(report_json)? else {
        return Err("report is not a JSON object".to_string());
    };
    let mut out = Vec::new();
    for (key, value) in &fields {
        match value {
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    let name = ["cell", "label"]
                        .iter()
                        .find_map(|k| match field(item, k) {
                            Some(Json::Str(s)) => Some(s.clone()),
                            _ => None,
                        })
                        .unwrap_or_else(|| i.to_string());
                    out.push((format!("{key}/{name}"), digest(item.render().as_bytes())));
                }
            }
            other => out.push((key.clone(), digest(other.render().as_bytes()))),
        }
    }
    Ok(out)
}

/// The golden entry of one report: its whole-byte digest plus one digest
/// per segment (see [`segments`]).
///
/// # Errors
///
/// As [`segments`].
pub fn golden_entry(report_json: &str) -> Result<Json, String> {
    let segs = segments(report_json)?
        .into_iter()
        .fold(Json::obj(), |acc, (name, d)| acc.with(&name, Json::Str(d)));
    Ok(Json::obj()
        .with("report", Json::Str(digest(report_json.as_bytes())))
        .with("segments", segs))
}

/// Compares a report against a golden entry. On a mismatch the error
/// names the first segment that differs, or says the difference lies
/// only in formatting.
///
/// # Errors
///
/// The mismatch, or a malformed report or entry.
fn check_against(entry: &Json, report_json: &str) -> Result<(), String> {
    let Some(Json::Str(want)) = field(entry, "report") else {
        return Err("golden entry has no report digest".to_string());
    };
    if *want == digest(report_json.as_bytes()) {
        return Ok(());
    }
    let Some(Json::Obj(golden)) = field(entry, "segments") else {
        return Err("golden entry has no segments".to_string());
    };
    let golden: Vec<(String, String)> = golden
        .iter()
        .map(|(k, v)| match v {
            Json::Str(d) => (k.clone(), d.clone()),
            _ => (k.clone(), String::new()),
        })
        .collect();
    Err(format!(
        "report differs from golden.json {}",
        locate(&golden, &segments(report_json)?)
    ))
}

/// Checks a pass's report against the reference pass's bytes.
///
/// # Errors
///
/// Names the first differing segment.
pub fn check_same(reference: &str, report_json: &str) -> Result<(), String> {
    if reference == report_json {
        return Ok(());
    }
    let want = segments(reference)?;
    let got = segments(report_json).unwrap_or_default();
    Err(format!(
        "report differs from pass 0 {}",
        locate(&want, &got)
    ))
}

/// Where two segment lists first disagree.
fn locate(want: &[(String, String)], got: &[(String, String)]) -> String {
    for i in 0..want.len().max(got.len()) {
        match (want.get(i), got.get(i)) {
            (Some(w), Some(g)) if w == g => continue,
            (Some(w), Some(g)) if w.0 == g.0 => return format!("at {}", w.0),
            (Some(w), Some(g)) => return format!("at {} (expected {})", g.0, w.0),
            (Some(w), None) => return format!("at {} (missing)", w.0),
            (None, Some(g)) => return format!("at {} (unexpected)", g.0),
            (None, None) => unreachable!("index below both lengths"),
        }
    }
    "in formatting only (every segment matches)".to_string()
}

/// Compares a report with `golden.json` for `workload` in the given mode.
///
/// # Errors
///
/// A missing entry or a mismatch (see [`check_against`]).
pub fn check_golden(workload: &str, quick: bool, report_json: &str) -> Result<(), String> {
    let golden = json::parse(GOLDEN).map_err(|e| format!("golden.json: {e}"))?;
    let mode = if quick { "quick" } else { "full" };
    let entry = field(&golden, workload)
        .and_then(|w| field(w, mode))
        .ok_or_else(|| {
            format!("golden.json has no {workload}/{mode} entry; refresh it with `digests`")
        })?;
    check_against(entry, report_json).map_err(|e| format!("{workload}/{mode}: {e}"))
}

/// The paper invariants that hold at every seed for the workload's shape
/// (`quick` selects the smoke shape's expectations).
///
/// # Errors
///
/// The first violated invariant, naming the cell.
pub fn check_invariants(workload: &str, quick: bool, report: &SweepReport) -> Result<(), String> {
    for cell in &report.cells {
        let divergences = cell.counters.get("egress_divergences");
        if divergences > 0 {
            return Err(format!(
                "cell {}: {divergences} egress divergences (replica outputs disagree)",
                cell.cell
            ));
        }
    }
    match workload {
        "delta-n" => delta_n_slope(report, quick),
        "defense-shootout" => shootout_verdicts(report, quick),
        _ => Ok(()),
    }
}

/// Sec. VII-A: web p50 latency rises with Δn, by about 10 ms per ms for
/// the full shape's 100 KB downloads (about 3 for the quick 20 KB ones:
/// fewer Δn-delayed deliveries per download). Across seeds 0-39 the slope
/// stays within 1% of these values.
fn delta_n_slope(report: &SweepReport, quick: bool) -> Result<(), String> {
    let mut points = Vec::new();
    for cell in &report.cells {
        let dn = cell
            .params
            .iter()
            .find(|(k, _)| k == "cfg.delta_n_ms")
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .ok_or_else(|| format!("cell {} has no cfg.delta_n_ms", cell.cell))?;
        points.push((dn, cell.latency_ms.p50, cell.cell.as_str()));
    }
    if points.len() < 2 {
        return Err("delta-n report has fewer than two cells".to_string());
    }
    for pair in points.windows(2) {
        if pair[1].1 <= pair[0].1 {
            return Err(format!(
                "cell {}: p50 {} ms does not rise above {} ms at the smaller delta-n",
                pair[1].2, pair[1].1, pair[0].1
            ));
        }
    }
    let (first, last) = (points[0], points[points.len() - 1]);
    let slope = (last.1 - first.1) / (last.0 - first.0);
    let expected = if quick { 3.0 } else { 10.0 };
    if (slope / expected - 1.0).abs() > 0.2 {
        return Err(format!(
            "cell {}: p50 slope {slope:.2} ms per delta-n ms, expected about {expected}",
            last.2
        ));
    }
    Ok(())
}

/// Every StopWatch victim cell is indistinguishable from its clean cell,
/// and the rotating-disk channel stays LEAKY under every other arm. The
/// quick shape's 6 rounds are too few samples to see the disk leak
/// through the 5 ms epoch and bucket arms, so there only the baseline arm
/// must leak.
fn shootout_verdicts(report: &SweepReport, quick: bool) -> Result<(), String> {
    let mut stopwatch_cells = 0;
    let mut leaky_disk_cells = 0;
    for verdict in &report.leakage {
        let cell = report
            .cells
            .iter()
            .find(|c| c.cell == verdict.cell)
            .ok_or_else(|| format!("verdict for unknown cell {}", verdict.cell))?;
        let param = |key: &str| {
            cell.params
                .iter()
                .find(|(k, _)| k == key)
                .map_or("", |(_, v)| v.as_str())
        };
        if param("cfg.defense") == "stopwatch" {
            stopwatch_cells += 1;
            if verdict.distinguishable_at_95 {
                return Err(format!("cell {}: StopWatch leaks (LEAKY)", cell.cell));
            }
        } else if param("workload") == "disk-channel"
            && (!quick || param("cfg.defense") == "baseline")
        {
            leaky_disk_cells += 1;
            if !verdict.distinguishable_at_95 {
                return Err(format!(
                    "cell {}: the disk channel should stay LEAKY under {}",
                    cell.cell,
                    param("cfg.defense")
                ));
            }
        }
    }
    if stopwatch_cells == 0 || leaky_disk_cells == 0 {
        return Err("defense-shootout report lacks the verdicts the invariants need".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "{\n  \"sweep\": \"t\",\n  \"cells\": [\n    {\"cell\": \"a\", \"x\": 1.5},\n    {\"cell\": \"b\", \"x\": 2}\n  ],\n  \"failures\": []\n}\n";

    #[test]
    fn one_changed_byte_names_its_cell() {
        let entry = golden_entry(REPORT).unwrap();
        assert!(check_against(&entry, REPORT).is_ok());
        let mutated = REPORT.replace("2}", "3}");
        let err = check_against(&entry, &mutated).unwrap_err();
        assert!(err.contains("at cells/b"), "{err}");
        let err = check_same(REPORT, &mutated).unwrap_err();
        assert!(err.contains("at cells/b"), "{err}");
        let spaced = REPORT.replacen("  ", " \t", 1);
        let err = check_against(&entry, &spaced).unwrap_err();
        assert!(err.contains("formatting only"), "{err}");
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
