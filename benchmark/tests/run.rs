//! End-to-end tests of the benchmark on the quick sweep shapes.

use benchmark::bench::{self, Options, WorkloadRun};
use benchmark::check::{check_golden, GOLDEN_SEED};
use benchmark::json::{field, parse};
use benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use benchmark::pass::run_pass;
use benchmark::workloads::{workload, WORKLOADS};
use harness::json::Json;

fn quick(names: &[&str], trace: bool) -> Vec<WorkloadRun> {
    let opts = Options {
        workloads: names
            .iter()
            .map(|n| workload(n).expect("registered"))
            .collect(),
        seed: GOLDEN_SEED,
        seconds: 0.0,
        quick: true,
        trace,
    };
    bench::run(&opts).expect("benchmark runs").0
}

fn all_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

#[test]
fn quick_run_of_every_workload_fails_nothing() {
    let runs = quick(&all_names(), false);
    assert_eq!(runs.len(), 4);
    for r in &runs {
        assert!(r.attempted > 0, "{}", r.workload.name);
        assert_eq!(r.failed, 0, "{}: {:?}", r.workload.name, r.problems);
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        for (def, value) in &r.metrics {
            assert!(*value > 0.0, "{} {} is {value}", r.workload.name, def.name);
        }
    }
    let line = parse(&bench::summary_line(&runs)).expect("summary line is JSON");
    assert_eq!(field(&line, "correct"), Some(&Json::Bool(true)));
    assert_eq!(field(&line, "failed"), Some(&Json::U64(0)));
}

/// The `name`s of one `BENCHMARK.json` list, checking each entry's other
/// keys against the catalogue.
fn listed(doc: &Json, key: &str, catalogue: &[MetricDef]) -> Vec<String> {
    let Some(Json::Arr(items)) = field(doc, key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    assert_eq!(items.len(), catalogue.len(), "{key}");
    items
        .iter()
        .zip(catalogue)
        .map(|(item, def)| {
            let name = def.name;
            assert_eq!(field(item, "name"), Some(&Json::str(name)), "{key}");
            assert_eq!(field(item, "unit"), Some(&Json::str(def.unit)), "{name}");
            assert_eq!(
                field(item, "better"),
                Some(&Json::str(def.better.as_str())),
                "{name}"
            );
            if let Some(bound) = def.bound {
                assert_eq!(field(item, "bound"), Some(&Json::F64(bound)), "{name}");
            }
            name.to_string()
        })
        .collect()
}

fn printed_names(runs: &[WorkloadRun]) -> Vec<String> {
    let line = parse(&bench::summary_line(runs)).expect("summary line is JSON");
    let Some(Json::Obj(metrics)) = field(&line, "metrics") else {
        panic!("no metrics object");
    };
    let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    let human: Vec<String> = bench::lines(runs)
        .iter()
        .take(names.len())
        .map(|l| l.split(' ').nth(1).expect("name column").to_string())
        .collect();
    assert_eq!(
        human, names,
        "result lines and JSON line name the same metrics"
    );
    names
}

#[test]
fn printed_metric_names_are_those_of_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(workloads)) = field(&doc, "workloads") else {
        panic!("no workloads list");
    };
    for (item, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(field(item, "name"), Some(&Json::str(w.name)));
        assert_eq!(field(item, "why"), Some(&Json::str(w.why)));
        assert!(w.why.len() <= 200, "{}", w.name);
    }
    assert_eq!(workloads.len(), WORKLOADS.len());
    let e2e = listed(&doc, "end_to_end", END_TO_END);
    let layers = listed(&doc, "per_layer", PER_LAYER);
    for name in e2e.iter().chain(&layers) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
            "{name:?}"
        );
    }
    assert_eq!(printed_names(&quick(&["cache-storm"], false)), e2e);
    assert_eq!(printed_names(&quick(&["delta-n"], true)), layers);
}

fn deterministic(runs: &[WorkloadRun]) -> Vec<(&'static str, f64)> {
    runs[0]
        .metrics
        .iter()
        .filter(|(def, _)| matches!(def.unit, "count" | "allocs/event" | "ratio" | "MiB"))
        .map(|(def, value)| (def.name, *value))
        .collect()
}

#[test]
fn heap_and_count_metrics_repeat_exactly() {
    for trace in [false, true] {
        let first = deterministic(&quick(&["delta-n"], trace));
        let second = deterministic(&quick(&["delta-n"], trace));
        assert!(!first.is_empty());
        assert_eq!(first, second, "trace {trace}");
    }
}

#[test]
fn one_mutated_report_byte_fails_the_digest_check_and_names_the_cell() {
    let w = workload("delta-n").expect("registered");
    let pass = run_pass(w, GOLDEN_SEED, true).expect("pass runs");
    check_golden(w.name, true, &pass.json).expect("quick delta-n matches golden.json");
    let cell = "\"cell\": \"cfg.delta_n_ms=6\"";
    let at = pass.json.find(cell).expect("cell present");
    let p50 = at + pass.json[at..].find("\"p50\": ").expect("p50 in cell") + 7;
    let mut bytes = pass.json.into_bytes();
    bytes[p50] = if bytes[p50] == b'9' { b'8' } else { b'9' };
    let mutated = String::from_utf8(bytes).expect("digit for digit");
    let err = check_golden(w.name, true, &mutated).unwrap_err();
    assert!(err.contains("at cells/cfg.delta_n_ms=6"), "{err}");
}
