//! `swbench` — the sweep driver of the StopWatch reproduction.
//!
//! ```text
//! swbench list
//!     Print the named sweep presets.
//!
//! swbench run <preset> [--quick] [--threads N] [--out FILE] [--baseline CELL]
//!     Run a named sweep on all cores, print the cell table, write the
//!     JSON aggregate (default: results/sweep_<preset>.json).
//!
//! swbench sweep --workload NAME [--axis KEY=V1,V2,...]... [options]
//!     Run a free-form cartesian sweep.
//!     Axis keys: cfg.<key> (CloudConfig override), workload, anything
//!     else is a workload parameter. The defense arm is the `defense`
//!     config knob: sweep it with `--axis cfg.defense=...` or pin it
//!     with `--set defense=NAME`.
//!     Options:
//!       --seeds N          seed shards per cell, N >= 1 (default 4)
//!       --seed-base B      first seed (default 42); the last seed,
//!                          B + N - 1, must fit in a u64
//!       --param K=V        base workload parameter
//!       --set K=V          base CloudConfig override
//!       --duration-s N     simulated-time budget per scenario (default 60)
//!       --threads N        worker threads (default: all cores)
//!       --baseline CELL    leakage baseline cell (default: first cell)
//!       --out FILE         JSON output path
//!
//! swbench workloads
//!     Print the workload registry keys.
//!
//! swbench describe [workload]
//!     Print the full typed knob/parameter catalogue: every CloudConfig
//!     knob (key, type, default, doc), every registered defense arm with
//!     the knobs it reads, and every registered workload with its typed
//!     parameters — or just one workload's schema.
//!
//! swbench help | --help | -h
//!     Print the command summary, including the flag fine print (e.g.
//!     `--threads 0` is rejected — omit the flag to use all cores).
//! ```

use harness::prelude::*;
use simkit::time::SimDuration;
use std::path::PathBuf;
use std::process::ExitCode;
use stopwatch_core::config::CloudConfig;
use workloads::registry::{self, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for p in PRESETS {
                println!("{:<10} {}", p.name, p.about);
            }
            ExitCode::SUCCESS
        }
        Some("workloads") => {
            for w in registry::workloads() {
                println!("{}", w.name());
            }
            ExitCode::SUCCESS
        }
        Some("describe") => match describe(args.get(1).map(String::as_str)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("run") => match parse_run(&args[1..]).and_then(run_spec) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("sweep") => match parse_sweep(&args[1..]).and_then(run_spec) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("help") | Some("--help") | Some("-h") => {
            print!("{}", help_text());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: swbench list | workloads | describe [workload] | \
                 run <preset> [opts] | sweep --workload NAME [opts] | help"
            );
            ExitCode::FAILURE
        }
    }
}

/// The `swbench help` text: one block per command plus the flag fine
/// print that doesn't fit a usage one-liner.
fn help_text() -> String {
    "\
swbench — sweep driver of the StopWatch reproduction

  swbench list                     named sweep presets
  swbench workloads                workload registry keys
  swbench describe [workload]      typed knob/parameter catalogue
  swbench run <preset> [opts]      run a named sweep, write its JSON aggregate
  swbench sweep --workload NAME [--axis K=V1,V2]... [opts]
                                   free-form cartesian sweep

common options
  --threads N     worker threads. N must be >= 1: an explicit --threads 0
                  is rejected with an error (it is not \"all cores\" — omit
                  the flag entirely to use one worker per available core).
  --quick         smoke-test scenario shapes instead of the full grids
  --out FILE      output path for the JSON artifact
"
    .to_string()
}

/// Prints the typed knob/parameter catalogue (everything, or one
/// workload's schema).
fn describe(which: Option<&str>) -> Result<(), String> {
    match which {
        Some(name) => {
            let w = registry::require(name)?;
            print_workload(w);
        }
        None => {
            println!("CloudConfig knobs (sweep axis `cfg.<key>`, `--set KEY=VALUE`):");
            for knob in CloudConfig::knobs() {
                println!(
                    "  {:<16} {:<14} {:>12}  {}",
                    knob.key,
                    knob.ty.to_string(),
                    knob.default_value(),
                    knob.doc
                );
            }
            println!();
            println!("Defense arms (`cfg.defense` axis, `--set defense=NAME`):");
            // Alphabetical for the same reason as the workloads below.
            let mut arms = vmm::defense::ARMS.to_vec();
            arms.sort_by_key(|a| a.name());
            for arm in arms {
                println!("{:<18} {}", arm.name(), arm.about());
                let knobs = arm.knobs();
                println!(
                    "  knobs: {}",
                    if knobs.is_empty() {
                        "(none)".to_string()
                    } else {
                        knobs.join(", ")
                    }
                );
            }
            println!();
            println!(
                "Workloads (`--workload NAME`, `workload` axis; parameters are axes/--param):"
            );
            // Alphabetical, not table order: the catalogue stays stable
            // when a workload row is added or moved.
            let mut listed = registry::workloads().to_vec();
            listed.sort_by(|a, b| a.name().cmp(b.name()));
            for w in listed {
                print_workload(w);
            }
        }
    }
    Ok(())
}

fn print_workload(w: &dyn Workload) {
    println!("{:<18} {}", w.name(), w.about());
    // Which of the VMM's timing channels (replica-median agreement paths)
    // this workload's guests exercise.
    let channels: Vec<&str> = w.channels().iter().map(|k| k.name()).collect();
    println!(
        "  channels: {}",
        if channels.is_empty() {
            "(none)".to_string()
        } else {
            channels.join(", ")
        }
    );
    if w.params().is_empty() {
        println!("  (no parameters)");
    }
    for p in w.params() {
        println!(
            "  {:<16} {:<14} {:>12}  {}",
            p.key,
            p.ty.to_string(),
            p.default,
            p.doc
        );
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("swbench: {message}");
    ExitCode::FAILURE
}

/// Everything a sweep invocation needs.
struct Invocation {
    spec: SweepSpec,
    threads: usize,
    baseline: Option<String>,
    out: Option<PathBuf>,
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses a `--threads` value. `0` used to reach the work-stealing runner
/// and is rejected here with the fix spelled out instead of a panic or a
/// silent reinterpretation.
fn parse_threads(v: &str) -> Result<usize, String> {
    let n: usize = v
        .parse()
        .map_err(|_| format!("bad --threads value {v:?}"))?;
    if n == 0 {
        return Err(
            "--threads 0 is not a thread count; pass --threads N with N >= 1, \
             or omit the flag to use all cores"
                .to_string(),
        );
    }
    Ok(n)
}

/// Splits `KEY=VALUE` on the **first** `=` only, so values containing
/// `=` survive intact.
fn parse_kv(raw: &str, flag: &str) -> Result<(String, String), String> {
    raw.split_once('=')
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .ok_or_else(|| format!("{flag} wants KEY=VALUE, got {raw:?}"))
}

/// Flags shared by `run` and `sweep`.
struct CommonFlags {
    threads: usize,
    baseline: Option<String>,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse_common(args: &[String], i: &mut usize, flags: &mut CommonFlags) -> Result<bool, String> {
    match args[*i].as_str() {
        "--threads" => {
            let v = take_value(args, i, "--threads")?;
            flags.threads = parse_threads(&v)?;
        }
        "--baseline" => flags.baseline = Some(take_value(args, i, "--baseline")?),
        "--out" => flags.out = Some(PathBuf::from(take_value(args, i, "--out")?)),
        "--quick" => flags.quick = true,
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_run(args: &[String]) -> Result<Invocation, String> {
    let mut name = None;
    let mut flags = CommonFlags {
        threads: 0,
        baseline: None,
        out: None,
        quick: false,
    };
    let mut i = 0;
    while i < args.len() {
        if parse_common(args, &mut i, &mut flags)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            preset_name if name.is_none() => name = Some(preset_name.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
        i += 1;
    }
    let name = name.ok_or_else(|| "run needs a preset name (see `swbench list`)".to_string())?;
    let preset =
        preset(&name).ok_or_else(|| format!("unknown preset {name:?} (see `swbench list`)"))?;
    Ok(Invocation {
        spec: preset.spec(flags.quick),
        threads: flags.threads,
        baseline: flags.baseline,
        out: flags.out,
    })
}

fn parse_sweep(args: &[String]) -> Result<Invocation, String> {
    let mut workload = None;
    let mut axes: Vec<Axis> = Vec::new();
    let mut params = Vec::new();
    let mut overrides = Vec::new();
    let mut seeds = 4usize;
    let mut seed_base = 42u64;
    let mut duration_s = 60u64;
    let mut flags = CommonFlags {
        threads: 0,
        baseline: None,
        out: None,
        quick: false,
    };
    let mut i = 0;
    while i < args.len() {
        if parse_common(args, &mut i, &mut flags)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--workload" => workload = Some(take_value(args, &mut i, "--workload")?),
            "--axis" => {
                let (key, values) = parse_kv(&take_value(args, &mut i, "--axis")?, "--axis")?;
                if axes.iter().any(|a| a.key == key) {
                    return Err(format!("duplicate --axis key {key:?}"));
                }
                axes.push(Axis {
                    key,
                    values: values.split(',').map(str::to_string).collect(),
                });
            }
            "--param" => params.push(parse_kv(&take_value(args, &mut i, "--param")?, "--param")?),
            "--set" => overrides.push(parse_kv(&take_value(args, &mut i, "--set")?, "--set")?),
            "--seeds" => {
                let v = take_value(args, &mut i, "--seeds")?;
                seeds = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("bad --seeds value {v:?}: wants a count >= 1"))?;
            }
            "--seed-base" => {
                let v = take_value(args, &mut i, "--seed-base")?;
                seed_base = v
                    .parse()
                    .map_err(|_| format!("bad --seed-base value {v:?}"))?;
            }
            "--duration-s" => {
                let v = take_value(args, &mut i, "--duration-s")?;
                duration_s = v
                    .parse()
                    .map_err(|_| format!("bad --duration-s value {v:?}"))?;
            }
            flag => return Err(format!("unknown flag {flag:?}")),
        }
        i += 1;
    }
    let workload = workload.ok_or_else(|| "sweep needs --workload".to_string())?;
    // The shards are seed_base, seed_base + 1, ..., so the last must fit.
    let last_seed = u64::try_from(seeds - 1)
        .ok()
        .and_then(|n| seed_base.checked_add(n));
    if last_seed.is_none() {
        return Err(format!(
            "--seed-base {seed_base} with --seeds {seeds} runs past the largest seed, {}",
            u64::MAX
        ));
    }
    let mut spec = SweepSpec::new("custom", &workload).seed_shards(seed_base, seeds);
    spec.axes = axes;
    spec.base_params = params;
    spec.base_overrides = overrides;
    spec.duration = SimDuration::from_secs(duration_s);
    Ok(Invocation {
        spec,
        threads: flags.threads,
        baseline: flags.baseline,
        out: flags.out,
    })
}

fn run_spec(inv: Invocation) -> Result<(), String> {
    let scenarios = inv.spec.scenarios()?;
    let opts = RunnerOptions {
        threads: inv.threads,
        progress: true,
    };
    eprintln!(
        "sweep {:?}: {} scenarios on {} threads",
        inv.spec.name,
        scenarios.len(),
        opts.effective_threads().min(scenarios.len()).max(1)
    );
    let started = std::time::Instant::now();
    let outcomes = run_scenarios(&scenarios, &opts);
    let wall = started.elapsed();
    let report = SweepReport::from_outcomes(&inv.spec.name, &outcomes, inv.baseline.as_deref());
    print!("{}", report.to_table());
    eprintln!(
        "{} scenarios in {:.2}s wall ({:.2} scenarios/s)",
        scenarios.len(),
        wall.as_secs_f64(),
        scenarios.len() as f64 / wall.as_secs_f64().max(1e-9)
    );
    let out = inv
        .out
        .unwrap_or_else(|| PathBuf::from(format!("results/sweep_{}.json", inv.spec.name)));
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("creating {parent:?}: {e}"))?;
    }
    std::fs::write(&out, report.to_json()).map_err(|e| format!("writing {out:?}: {e}"))?;
    println!("JSON aggregate: {}", out.display());
    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} scenario(s) failed", report.failures.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn kv_splits_on_first_equals_only() {
        let (k, v) = parse_kv("pacing=1:2", "--set").unwrap();
        assert_eq!((k.as_str(), v.as_str()), ("pacing", "1:2"));
        let (k, v) = parse_kv("note=a=b=c", "--param").unwrap();
        assert_eq!((k.as_str(), v.as_str()), ("note", "a=b=c"));
        assert!(parse_kv("no-equals", "--axis").is_err());
    }

    #[test]
    fn duplicate_axis_keys_are_rejected_at_parse_time() {
        let err = parse_sweep(&argv(&[
            "--workload",
            "web-http",
            "--axis",
            "bytes=1,2",
            "--axis",
            "bytes=3",
        ]))
        .err()
        .expect("duplicate axis");
        assert!(err.contains("duplicate --axis"), "{err}");
        assert!(err.contains("\"bytes\""), "{err}");
    }

    #[test]
    fn axis_values_containing_equals_survive() {
        let inv = parse_sweep(&argv(&[
            "--workload",
            "web-http",
            "--axis",
            "bytes=1000,2000",
            "--param",
            "downloads=2",
        ]))
        .unwrap();
        assert_eq!(inv.spec.axes.len(), 1);
        assert_eq!(inv.spec.axes[0].values, vec!["1000", "2000"]);
        assert_eq!(
            inv.spec.base_params,
            vec![("downloads".to_string(), "2".to_string())]
        );
    }

    #[test]
    fn threads_zero_is_rejected_with_the_fix_spelled_out() {
        for parse in [
            parse_run(&argv(&["delta-n", "--threads", "0"])).err(),
            parse_sweep(&argv(&["--workload", "web-http", "--threads", "0"])).err(),
        ] {
            let err = parse.expect("--threads 0 must be rejected");
            assert!(err.contains("--threads 0"), "{err}");
            assert!(err.contains("omit the flag"), "{err}");
        }
        assert!(parse_run(&argv(&["delta-n", "--threads", "2"])).is_ok());
    }

    #[test]
    fn describe_covers_known_names_and_rejects_typos() {
        assert!(describe(None).is_ok());
        assert!(describe(Some("web-http")).is_ok());
        let err = describe(Some("web-htp")).expect_err("unknown workload");
        assert!(err.contains("did you mean \"web-http\""), "{err}");
    }
}
