//! Shared by `golden_reports.rs` and `scalar_parity.rs`: runs a preset or
//! perf bench and compares its report with the digests pinned in
//! `golden_reports.txt` (format and update rule in `golden_reports.rs`).

use harness::prelude::*;

pub const GOLDEN: &str = include_str!("../golden_reports.txt");

/// The key of a report's whole-byte line (no cell label contains spaces
/// or parentheses).
const REPORT_KEY: &str = "(report)";

/// One golden entry: its key in the file, its report name, its
/// scenarios, and the worker threads it runs on.
pub struct Entry {
    pub key: String,
    pub name: String,
    pub scenarios: Vec<Scenario>,
    pub threads: usize,
}

/// The quick-shape entry of preset `name`.
pub fn preset_entry(name: &str) -> Entry {
    let spec = preset(name).expect("preset exists").spec(true);
    Entry {
        key: format!("preset/{name}"),
        scenarios: spec.scenarios().expect("preset expands"),
        name: spec.name,
        threads: 1,
    }
}

/// The quick-shape entry of perf bench `name`.
pub fn bench_entry(name: &str) -> Entry {
    let scenarios = perf_bench(name)
        .expect("perf bench exists")
        .scenarios(true)
        .expect("bench expands");
    Entry {
        key: format!("bench/{name}"),
        name: name.to_string(),
        scenarios,
        threads: 1,
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `entry`'s scenarios into its report.
fn run_report(entry: &Entry) -> SweepReport {
    let opts = RunnerOptions {
        threads: entry.threads,
        progress: false,
    };
    let outcomes = run_scenarios(&entry.scenarios, &opts);
    SweepReport::from_outcomes(&entry.name, &outcomes, None)
}

/// The golden lines of `entry`'s report: the whole report first, then
/// one line per cell in grid order.
fn digest_lines(entry: &str, report: &SweepReport) -> Vec<String> {
    let mut lines = vec![format!(
        "{entry} {REPORT_KEY} {:016x}",
        fnv1a(report.to_json().as_bytes())
    )];
    for cell in &report.cells {
        let alone = SweepReport {
            name: report.name.clone(),
            scenarios: cell.runs,
            cells: vec![cell.clone()],
            leakage: report
                .leakage
                .iter()
                .filter(|v| v.cell == cell.cell)
                .cloned()
                .collect(),
            failures: Vec::new(),
        };
        lines.push(format!(
            "{entry} {} {:016x}",
            cell.cell,
            fnv1a(alone.to_json().as_bytes())
        ));
    }
    lines
}

/// The golden lines of one entry, in file order.
fn golden_lines(entry: &str) -> Vec<&'static str> {
    GOLDEN
        .lines()
        .filter(|l| l.split(' ').next() == Some(entry))
        .collect()
}

/// The cell key of a golden line (its middle field).
fn key(line: &str) -> &str {
    line.split(' ').nth(1).unwrap_or("")
}

/// Compares every entry against the golden file and fails with one
/// message covering all of them: which entries moved, the first differing
/// cell of each, and the replacement lines to paste.
pub fn check(entries: Vec<Entry>) {
    let mut moved = Vec::new();
    let mut replacements = Vec::new();
    for entry in &entries {
        let report = run_report(entry);
        let got = digest_lines(&entry.key, &report);
        let want = golden_lines(&entry.key);
        if got.iter().map(String::as_str).eq(want.iter().copied()) {
            continue;
        }
        // Line 0 is the whole report; the cells follow in grid order.
        let first = (1..got.len().max(want.len()))
            .find(|&i| got.get(i).map(String::as_str) != want.get(i).copied())
            .map(|i| match got.get(i) {
                Some(g) => format!("cell {}", key(g)),
                None => format!("cell {} (no longer produced)", key(want[i])),
            })
            .unwrap_or_else(|| "no cell (the header or the failures)".to_string());
        let failed = match report.failures.first() {
            Some((label, error)) => format!(
                "; {} scenario(s) failed, first {label}: {error}",
                report.failures.len()
            ),
            None => String::new(),
        };
        moved.push(format!("{}: first differing {first}{failed}", entry.key));
        replacements.extend(got);
    }
    assert!(
        moved.is_empty(),
        "golden_reports.txt does not match {} of {} reports:\n{}\n\n\
         If the behaviour change is intended, paste these lines over the \
         entries' old lines in crates/harness/tests/golden_reports.txt:\n{}\n",
        moved.len(),
        entries.len(),
        moved.join("\n"),
        replacements.join("\n")
    );
}
