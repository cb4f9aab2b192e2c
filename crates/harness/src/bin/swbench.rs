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
//!       --seeds N          seed shards per cell (default 4, base seed 42)
//!       --seed-base N      first seed (default 42)
//!       --param K=V        base workload parameter
//!       --set K=V          base CloudConfig override
//!       --duration-s N     simulated-time budget per scenario (default 60)
//!       --threads N        worker threads (default: all cores)
//!       --baseline CELL    leakage baseline cell (default: first cell)
//!       --out FILE         JSON output path
//!
//! swbench perf [<bench>|--all] [--quick] [--repeats N]
//!              [--warmup N] [--threads N] [--out FILE]
//!              [--baseline FILE | --baseline-dir DIR]
//!              [--max-regress FRAC]
//!     Run a named throughput benchmark (no name: list them): warmup
//!     passes, then timed repeats whose median wall time yields
//!     events/sec and packets/sec. Writes a schema-versioned
//!     BENCH_<bench>.json (default: BENCH_<bench>.json in the working
//!     directory). With --baseline, exits nonzero when events/sec fell
//!     more than --max-regress (default 0.30) below the baseline file's —
//!     the CI perf gate.
//!     --all runs every registered bench in one pass and writes the
//!     consolidated BENCH_trajectory.json (--out overrides its path); with
//!     --baseline-dir every bench is gated against the directory's
//!     BENCH_<bench>-baseline.json and a missing baseline is an error, so
//!     a newly added bench cannot silently skip the gate.
//!
//! swbench profile [<bench>] [--quick] [--threads N] [--out FILE]
//!     Run a named perf bench once with the phase timers on and write the
//!     schema-versioned PROFILE_*.json breakdown (setup/run/aggregate wall
//!     per pass). Without a bench name, profiles every registered bench
//!     into one consolidated document (default: PROFILE_benches.json).
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
            for name in registry::workload_names() {
                println!("{name}");
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
        Some("perf") => match parse_perf(&args[1..]).and_then(run_perf_bench) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("profile") => match parse_profile(&args[1..]).and_then(run_profile_cmd) {
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
                 run <preset> [opts] | sweep --workload NAME [opts] | \
                 perf [bench] [opts] | profile [bench] [opts] | help"
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
  swbench perf [bench|--all] [--quick] [--repeats N] [--warmup N]
               [--profile] [--baseline FILE | --baseline-dir DIR]
               [--max-regress FRAC] [opts]
                                   named throughput benchmarks + CI gate;
                                   --profile also writes the PROFILE_*.json
                                   phase breakdown of the timed passes
  swbench profile [bench] [--quick] [opts]
                                   phase-timer breakdown (setup/run/aggregate)
                                   of one bench, or of every registered bench

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
            print_workload(w.as_ref());
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
            // Alphabetical, not registration order: the catalogue stays
            // stable no matter what order workloads were linked in.
            let mut listed = registry::workloads();
            listed.sort_by(|a, b| a.name().cmp(b.name()));
            for w in listed {
                print_workload(w.as_ref());
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
                seeds = v.parse().map_err(|_| format!("bad --seeds value {v:?}"))?;
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
    let mut spec = SweepSpec::new("custom", &workload).seed_shards(seed_base, seeds.max(1));
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

/// Everything a `swbench perf` invocation needs.
#[derive(Debug)]
struct PerfInvocation {
    bench: Option<String>,
    all: bool,
    quick: bool,
    warmup: Option<usize>,
    repeats: Option<usize>,
    threads: usize,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    baseline_dir: Option<PathBuf>,
    max_regress: f64,
    profile: bool,
}

fn parse_perf(args: &[String]) -> Result<PerfInvocation, String> {
    let mut inv = PerfInvocation {
        bench: None,
        all: false,
        quick: false,
        warmup: None,
        repeats: None,
        threads: 0,
        out: None,
        baseline: None,
        baseline_dir: None,
        max_regress: 0.30,
        profile: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => inv.all = true,
            "--quick" => inv.quick = true,
            "--profile" => inv.profile = true,
            "--warmup" => {
                let v = take_value(args, &mut i, "--warmup")?;
                inv.warmup = Some(v.parse().map_err(|_| format!("bad --warmup value {v:?}"))?);
            }
            "--repeats" => {
                let v = take_value(args, &mut i, "--repeats")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --repeats value {v:?}"))?;
                if n == 0 {
                    return Err("--repeats must be >= 1 (the median needs a sample)".to_string());
                }
                inv.repeats = Some(n);
            }
            "--threads" => inv.threads = parse_threads(&take_value(args, &mut i, "--threads")?)?,
            "--out" => inv.out = Some(PathBuf::from(take_value(args, &mut i, "--out")?)),
            "--baseline" => {
                inv.baseline = Some(PathBuf::from(take_value(args, &mut i, "--baseline")?))
            }
            "--baseline-dir" => {
                inv.baseline_dir = Some(PathBuf::from(take_value(args, &mut i, "--baseline-dir")?))
            }
            "--max-regress" => {
                let v = take_value(args, &mut i, "--max-regress")?;
                let f: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --max-regress value {v:?}"))?;
                if !(0.0..1.0).contains(&f) {
                    return Err(format!("--max-regress wants a fraction in [0, 1), got {v}"));
                }
                inv.max_regress = f;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            name if inv.bench.is_none() => inv.bench = Some(name.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
        i += 1;
    }
    if inv.all && inv.bench.is_some() {
        return Err("--all runs every bench; drop the bench name".to_string());
    }
    if inv.all && inv.baseline.is_some() {
        return Err("--all gates via --baseline-dir, not a single --baseline file".to_string());
    }
    if inv.baseline_dir.is_some() && !inv.all {
        return Err(
            "--baseline-dir only applies to --all (use --baseline for one bench)".to_string(),
        );
    }
    Ok(inv)
}

fn run_perf_bench(inv: PerfInvocation) -> Result<(), String> {
    if inv.all {
        return run_perf_all(inv);
    }
    let Some(bench) = inv.bench else {
        for b in PERF_BENCHES {
            println!("{:<14} {}", b.name, b.about);
        }
        return Ok(());
    };
    let opts = PerfOptions {
        quick: inv.quick,
        warmup: inv.warmup.unwrap_or(1),
        repeats: inv.repeats.unwrap_or(if inv.quick { 3 } else { 5 }),
        threads: inv.threads,
    };
    eprintln!(
        "perf {bench:?}: {} mode, {} warmup + {} timed passes",
        if opts.quick { "quick" } else { "full" },
        opts.warmup,
        opts.repeats
    );
    let report = run_perf(&bench, &opts)?;
    println!("{}", report.summary());
    let out = inv
        .out
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{bench}.json")));
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("creating {parent:?}: {e}"))?;
    }
    std::fs::write(&out, report.to_json()).map_err(|e| format!("writing {out:?}: {e}"))?;
    println!("perf report: {}", out.display());
    if inv.profile {
        let path = out.with_file_name(format!("PROFILE_{bench}.json"));
        let profile = ProfileReport::from_perf(&report);
        println!("{}", profile.summary());
        std::fs::write(&path, profile.to_json()).map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("phase profile: {}", path.display());
    }
    if let Some(baseline_path) = inv.baseline {
        let baseline = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("reading baseline {baseline_path:?}: {e}"))?;
        let verdict = check_against_baseline(&report, &baseline, inv.max_regress)?;
        println!("{verdict}");
    }
    Ok(())
}

/// The consolidated perf pass: every registered bench in one invocation,
/// each gated against `<baseline-dir>/BENCH_<bench>-baseline.json`, with
/// one schema-versioned `BENCH_trajectory.json` artifact at the end. All
/// benches run (and write their reports) even when an early one regresses
/// — the combined verdict decides the exit code, so one artifact always
/// shows the whole trajectory.
fn run_perf_all(inv: PerfInvocation) -> Result<(), String> {
    let opts = PerfOptions {
        quick: inv.quick,
        warmup: inv.warmup.unwrap_or(1),
        repeats: inv.repeats.unwrap_or(if inv.quick { 3 } else { 5 }),
        threads: inv.threads,
    };
    // Baselines are resolved up front: with a baseline dir, every
    // registered bench must have one checked in — a bench added without a
    // baseline fails the gate loudly instead of silently skipping it.
    let mut baselines: Vec<Option<String>> = Vec::new();
    for b in PERF_BENCHES {
        match &inv.baseline_dir {
            None => baselines.push(None),
            Some(dir) => {
                let path = dir.join(baseline_file_name(b.name));
                let doc = std::fs::read_to_string(&path).map_err(|e| {
                    format!(
                        "bench {:?} has no usable baseline at {path:?}: {e} — every \
                         registered bench must check one in before the consolidated \
                         gate can run (refresh with `swbench perf {} --quick \
                         --threads 1 --out {path:?}`)",
                        b.name, b.name
                    )
                })?;
                baselines.push(Some(doc));
            }
        }
    }
    let mut trajectory = Trajectory::default();
    let mut profiles = ProfileSet::default();
    for (b, baseline) in PERF_BENCHES.iter().zip(baselines) {
        eprintln!(
            "perf {:?}: {} mode, {} warmup + {} timed passes",
            b.name,
            if opts.quick { "quick" } else { "full" },
            opts.warmup,
            opts.repeats
        );
        let report = run_perf(b.name, &opts)?;
        println!("{}", report.summary());
        let out = PathBuf::from(format!("BENCH_{}.json", b.name));
        std::fs::write(&out, report.to_json()).map_err(|e| format!("writing {out:?}: {e}"))?;
        let verdict = baseline
            .as_deref()
            .map(|doc| check_against_baseline(&report, doc, inv.max_regress));
        match &verdict {
            Some(Ok(line)) => println!("{line}"),
            Some(Err(line)) => println!("FAIL {line}"),
            None => {}
        }
        if inv.profile {
            profiles.entries.push(ProfileReport::from_perf(&report));
        }
        trajectory.entries.push(TrajectoryEntry { report, verdict });
    }
    if inv.profile {
        let path = PathBuf::from("PROFILE_benches.json");
        std::fs::write(&path, profiles.to_json()).map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("phase profiles: {}", path.display());
    }
    let out = inv
        .out
        .unwrap_or_else(|| PathBuf::from("BENCH_trajectory.json"));
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("creating {parent:?}: {e}"))?;
    }
    std::fs::write(&out, trajectory.to_json()).map_err(|e| format!("writing {out:?}: {e}"))?;
    println!("trajectory report: {}", out.display());
    let failures = trajectory.failures();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "perf gate failed for {} bench(es): {}",
            failures.len(),
            failures.join(", ")
        ))
    }
}

/// Everything a `swbench profile` invocation needs.
#[derive(Debug)]
struct ProfileInvocation {
    bench: Option<String>,
    quick: bool,
    threads: usize,
    out: Option<PathBuf>,
}

fn parse_profile(args: &[String]) -> Result<ProfileInvocation, String> {
    let mut inv = ProfileInvocation {
        bench: None,
        quick: false,
        threads: 0,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => inv.quick = true,
            "--threads" => inv.threads = parse_threads(&take_value(args, &mut i, "--threads")?)?,
            "--out" => inv.out = Some(PathBuf::from(take_value(args, &mut i, "--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            name if inv.bench.is_none() => inv.bench = Some(name.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
        i += 1;
    }
    Ok(inv)
}

/// `swbench profile`: one phase-attributed pass per bench. With a bench
/// name, writes that bench's `PROFILE_<bench>.json`; without one, covers
/// every registered bench in one consolidated document.
fn run_profile_cmd(inv: ProfileInvocation) -> Result<(), String> {
    let opts = ProfileOptions {
        quick: inv.quick,
        threads: inv.threads,
    };
    let (doc, default_out) = match &inv.bench {
        Some(bench) => {
            let report = run_profile(bench, &opts)?;
            println!("{}", report.summary());
            (report.to_json(), format!("PROFILE_{bench}.json"))
        }
        None => {
            let mut set = ProfileSet::default();
            for b in PERF_BENCHES {
                let report = run_profile(b.name, &opts)?;
                println!("{}", report.summary());
                set.entries.push(report);
            }
            (set.to_json(), "PROFILE_benches.json".to_string())
        }
    };
    let out = inv.out.unwrap_or_else(|| PathBuf::from(default_out));
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("creating {parent:?}: {e}"))?;
    }
    std::fs::write(&out, doc).map_err(|e| format!("writing {out:?}: {e}"))?;
    println!("phase profile: {}", out.display());
    Ok(())
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
            parse_perf(&argv(&["delta-n", "--threads", "0"])).err(),
        ] {
            let err = parse.expect("--threads 0 must be rejected");
            assert!(err.contains("--threads 0"), "{err}");
            assert!(err.contains("omit the flag"), "{err}");
        }
        assert!(parse_run(&argv(&["delta-n", "--threads", "2"])).is_ok());
    }

    #[test]
    fn perf_flags_parse_with_defaults() {
        let inv = parse_perf(&argv(&["delta-n", "--quick"])).unwrap();
        assert_eq!(inv.bench.as_deref(), Some("delta-n"));
        assert!(inv.quick);
        assert_eq!(inv.threads, 0, "default: all cores");
        assert_eq!(inv.max_regress, 0.30, "CI gate tolerance default");
        assert!(inv.warmup.is_none() && inv.repeats.is_none());

        let inv = parse_perf(&argv(&[
            "packet-storm",
            "--repeats",
            "7",
            "--warmup",
            "2",
            "--baseline",
            "BENCH_delta-n-baseline.json",
            "--max-regress",
            "0.5",
        ]))
        .unwrap();
        assert_eq!(inv.repeats, Some(7));
        assert_eq!(inv.warmup, Some(2));
        assert_eq!(inv.max_regress, 0.5);
        assert!(inv.baseline.is_some());

        assert!(parse_perf(&argv(&["x", "--repeats", "0"])).is_err());
        assert!(parse_perf(&argv(&["x", "--max-regress", "1.5"])).is_err());
        assert!(parse_perf(&argv(&["x", "--bogus"])).is_err());
    }

    #[test]
    fn perf_all_parses_and_rejects_conflicts() {
        let inv = parse_perf(&argv(&["--all", "--quick", "--baseline-dir", "."])).unwrap();
        assert!(inv.all && inv.bench.is_none());
        assert_eq!(inv.baseline_dir.as_deref(), Some(std::path::Path::new(".")));

        // Report-only (no gate) is the nightly shape.
        let inv = parse_perf(&argv(&["--all"])).unwrap();
        assert!(inv.all && inv.baseline_dir.is_none());

        let err = parse_perf(&argv(&["delta-n", "--all"])).unwrap_err();
        assert!(err.contains("drop the bench name"), "{err}");
        let err = parse_perf(&argv(&["--all", "--baseline", "B.json"])).unwrap_err();
        assert!(err.contains("--baseline-dir"), "{err}");
        let err = parse_perf(&argv(&["delta-n", "--baseline-dir", "."])).unwrap_err();
        assert!(err.contains("only applies to --all"), "{err}");
    }

    #[test]
    fn describe_covers_known_names_and_rejects_typos() {
        assert!(describe(None).is_ok());
        assert!(describe(Some("web-http")).is_ok());
        let err = describe(Some("web-htp")).err().expect("unknown workload");
        assert!(err.contains("did you mean \"web-http\""), "{err}");
    }
}
