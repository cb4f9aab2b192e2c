//! Command line of the benchmark; see `USAGE` and `README.md`.

use benchmark::bench::{self, Options};
use benchmark::check::{golden_entry, GOLDEN_SEED};
use benchmark::pass::run_pass;
use benchmark::workloads::{workload, WORKLOADS};
use harness::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
      interleaved timed passes of every workload (or of W); prints
      `workload metric value unit` lines, then one JSON result line
  benchmark trace [same options]      run --trace 1: spans, per-layer metrics
  benchmark compare PARENT.json... CHANGE.json...
      judge alternating run --out files of a parent and a change
  benchmark digests                   print golden.json for the current code";

/// Timed seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], false),
        Some("trace") => run(&args[1..], true),
        Some("compare") => compare(&args[1..]),
        Some("digests") => digests(),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

fn run(args: &[String], mut trace: bool) -> Result<ExitCode, String> {
    let mut opts = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: GOLDEN_SEED,
        seconds: DEFAULT_SECONDS,
        quick: false,
        trace,
    };
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workload(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?;
                opts.workloads = vec![w];
            }
            "--seed" => {
                let v = value()?;
                // Seed shards count up from the seed, so leave room above it.
                opts.seed = v
                    .parse::<u64>()
                    .ok()
                    .filter(|s| s.checked_add(1 << 16).is_some())
                    .ok_or_else(|| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                };
                opts.trace = trace;
            }
            "--quick" => opts.quick = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    let out = out.unwrap_or_else(|| {
        let file = if trace { "layers.json" } else { "run.json" };
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(file)
    });

    let (runs, spans) = bench::run(&opts)?;
    for line in bench::lines(&runs) {
        println!("{line}");
    }
    let dir = out.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    write(&out, &bench::results_json(&opts, &runs))?;
    if let Some(spans) = spans {
        let path = dir.map_or_else(|| PathBuf::from("trace.json"), |d| d.join("trace.json"));
        write(&path, &spans.to_json().render())?;
    }
    println!("{}", bench::summary_line(&runs));
    let failed = runs.iter().any(|r| r.failed > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let rows = benchmark::compare::compare(paths)?;
    for row in &rows {
        println!("{}", row.line());
    }
    let regressed = rows
        .iter()
        .any(|r| r.judgement.verdict == benchmark::compare::Verdict::Regressed);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn digests() -> Result<ExitCode, String> {
    let mut golden = Json::obj().with("seed", Json::U64(GOLDEN_SEED));
    for w in WORKLOADS {
        let mut modes = Json::obj();
        for (mode, quick) in [("full", false), ("quick", true)] {
            let pass = run_pass(w, GOLDEN_SEED, quick)?;
            modes.push(mode, golden_entry(&pass.json)?);
        }
        golden.push(w.name, modes);
    }
    print!("{}", golden.render_pretty());
    Ok(ExitCode::SUCCESS)
}
