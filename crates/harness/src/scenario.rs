//! The declarative unit of work: one isolated, deterministic cloud run.
//!
//! A [`Scenario`] names a workload, a defense arm, [`CloudConfig`]
//! overrides, a seed, and a duration. [`Scenario::run`] builds a fresh
//! [`CloudSim`](stopwatch_core::cloud::CloudSim) of `cfg.replicas` hosts
//! from it, with the workload's VM replicated on hosts `0..replicas`,
//! drives the event loop to completion, and extracts a
//! [`ScenarioResult`] — plain data, safe to aggregate across threads.
//! Two runs of the same scenario produce identical results on any
//! machine; that is the property every layer above this one leans on.

use crate::profile::Phases;
use simkit::time::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;
use stopwatch_core::cloud::CloudBuilder;
use stopwatch_core::config::CloudConfig;
use workloads::registry::{self, Workload, WorkloadParams};

/// One declarative cloud run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Unique label within a sweep (cell key plus seed).
    pub label: String,
    /// The grid cell this scenario belongs to (same for all seed shards).
    pub cell: String,
    /// Cell coordinates, in axis order, for report grouping.
    pub cell_params: Vec<(String, String)>,
    /// Workload registry key (`"web-http"`, `"parsec:ferret"`, ...).
    pub workload: String,
    /// Workload parameters handed to the registry.
    pub workload_params: Vec<(String, String)>,
    /// Master seed for this run.
    pub seed: u64,
    /// Simulated-time budget; the run stops here even if clients are not
    /// done (reported via [`ScenarioResult::clients_done`]).
    pub duration: SimDuration,
    /// Extra simulated time after clients finish, letting in-flight output
    /// (e.g. attacker-side deliveries) drain before collection.
    pub drain: SimDuration,
    /// `CloudConfig` overrides applied over the default configuration.
    pub overrides: Vec<(String, String)>,
}

impl Scenario {
    /// A minimal scenario: `workload` under the default defense arm
    /// (StopWatch) at `seed`, default config, 60 simulated seconds. The
    /// arm is a config knob — add a `("defense", ...)` override to run
    /// another one.
    pub fn new(workload: &str, seed: u64) -> Self {
        Scenario {
            label: format!("{workload}#{seed}"),
            cell: workload.to_string(),
            cell_params: Vec::new(),
            workload: workload.to_string(),
            workload_params: Vec::new(),
            seed,
            duration: SimDuration::from_secs(60),
            drain: SimDuration::from_millis(500),
            overrides: Vec::new(),
        }
    }

    /// Runs the scenario to completion and extracts its measurements.
    ///
    /// # Errors
    ///
    /// Reports build failures; a run that merely times out is **not** an
    /// error (it returns with `clients_done == false`).
    pub fn run(&self) -> Result<ScenarioResult, String> {
        self.run_phased_in(&mut ScenarioArena::new(), &mut Phases::default())
    }

    /// [`Scenario::run`] against a worker-owned [`ScenarioArena`], with
    /// the wall time of each phase — resolve, build, run, aggregate —
    /// added into `phases`. The scenario's config shape is resolved
    /// through the arena, so the second and later scenarios sharing a
    /// shape (every shard of a sweep cell, every pass of a benchmark
    /// workload) reuse the parsed config, the workload lookup, and the
    /// validated parameter set instead of re-deriving them. The arena
    /// caches only resolution, never simulation state, and the timers
    /// read the monotonic host clock around simulated work; nothing
    /// inside the simulation observes either, so results stay
    /// deterministic.
    ///
    /// # Errors
    ///
    /// As [`Scenario::run`].
    pub fn run_phased_in(
        &self,
        arena: &mut ScenarioArena,
        phases: &mut Phases,
    ) -> Result<ScenarioResult, String> {
        let mut mark = Instant::now();
        let mut lap = |slot: &mut u64| {
            let now = Instant::now();
            *slot += now.duration_since(mark).as_nanos() as u64;
            mark = now;
        };
        let entry = arena.prepare(self)?;
        let mut cfg = entry.cfg.clone();
        if !entry.seed_overridden {
            // The shard seed applies first, so an explicit `seed`
            // override (baked into the cached config) wins over it.
            cfg.seed = self.seed;
        }
        lap(&mut phases.resolve_ns);
        // Workload-side randomness follows the post-override cloud seed.
        let replica_hosts: Vec<usize> = (0..cfg.replicas).collect();
        let mut b = CloudBuilder::new(cfg, replica_hosts.len());
        let wl = (entry.workload.install)(&mut b, &replica_hosts, &entry.params)?;
        let mut sim = b.build();
        lap(&mut phases.build_ns);
        let deadline = SimTime::ZERO + self.duration;
        let finished_at = sim.run_until_clients_done(deadline);
        let clients_done = sim.cloud.clients_done();
        if self.drain > SimDuration::ZERO {
            sim.run_until(finished_at + self.drain);
        }
        lap(&mut phases.run_ns);
        if let Some(err) = sim.error() {
            // A structured slot failure (malformed scenario, driver bug)
            // fails this cell; the rest of the sweep keeps running.
            return Err(format!("slot failure: {err}"));
        }
        let replicas = sim.cloud.vm_replicas(wl.vm).len() as u64;
        let outcome = (wl.collect)(&mut sim);
        let slot_totals = sim.cloud.slot_totals();
        let counters = sim.cloud.counts().chain(slot_totals.iter()).collect();
        let result = ScenarioResult {
            label: self.label.clone(),
            cell: self.cell.clone(),
            cell_params: self.cell_params.clone(),
            workload: self.workload.clone(),
            defense: entry.cfg.defense.clone(),
            resolved_config: Arc::clone(&entry.resolved_config),
            resolved_params: Arc::clone(&entry.resolved_params),
            seed: self.seed,
            samples_ms: outcome.samples_ms,
            completed: outcome.completed,
            extra: outcome.extra,
            clients_done,
            finished_ms: finished_at.duration_since(SimTime::ZERO).as_millis_f64(),
            events_executed: sim.events_executed(),
            replicas,
            counters,
        };
        lap(&mut phases.aggregate_ns);
        Ok(result)
    }
}

/// A worker-owned cache of resolved scenario shapes.
///
/// A sweep shards each grid cell across seeds and the benchmark replays
/// the same scenario list pass after pass, so most scenarios a worker
/// sees differ from the previous one only in `seed` and `label`. The
/// arena keys on everything else — workload, parameters and overrides —
/// and caches the expensive-to-derive parts of setup: the
/// parsed [`CloudConfig`], the workload lookup, the validated parameter
/// set, and both resolved key/value listings. A hit replaces all of that
/// with a config clone and a seed patch, and its result shares the
/// shape's resolved listings instead of copying them.
///
/// The arena never caches simulation state; only resolution. One arena
/// per worker thread — it is deliberately not shared.
#[derive(Default)]
pub struct ScenarioArena {
    entries: Vec<(ArenaKey, ArenaEntry)>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, PartialEq, Eq)]
struct ArenaKey {
    workload: String,
    workload_params: Vec<(String, String)>,
    overrides: Vec<(String, String)>,
}

struct ArenaEntry {
    /// Post-override config; `seed` holds whatever scenario populated the
    /// entry and is re-patched per run unless `seed_overridden`.
    cfg: CloudConfig,
    /// Whether the overrides pin `seed` explicitly (then it must *not* be
    /// re-patched — an explicit override wins over sharding).
    seed_overridden: bool,
    resolved_config: Arc<[(String, String)]>,
    resolved_params: Arc<[(String, String)]>,
    params: WorkloadParams,
    workload: &'static Workload,
}

impl ScenarioArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scenarios served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Scenarios resolved from scratch (distinct shapes seen).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resolves `s` through the cache: its effective config, workload
    /// and parameters. The only resolver a scenario has.
    fn prepare(&mut self, s: &Scenario) -> Result<&ArenaEntry, String> {
        let hit = self.entries.iter().position(|(k, _)| {
            // Linear scan: a worker sees a handful of shapes, and the
            // common case (benchmark passes) has exactly one.
            k.workload == s.workload
                && k.workload_params == s.workload_params
                && k.overrides == s.overrides
        });
        if let Some(i) = hit {
            self.hits += 1;
            return Ok(&self.entries[i].1);
        }
        // The shard seed first, then overrides — so an explicit `seed`
        // override (e.g. a `cfg.seed` sweep axis) wins over sharding.
        let mut cfg = CloudConfig {
            seed: s.seed,
            ..CloudConfig::default()
        };
        cfg.apply_all(s.overrides.iter().map(|(k, v)| (k.as_str(), v.as_str())))?;
        let workload = registry::require(&s.workload)?;
        let params = WorkloadParams::from_pairs(
            s.workload_params
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str())),
        );
        params.validate(workload)?;
        let resolved_params = params.resolved(workload.params).into();
        let resolved_config = cfg
            .resolved()
            .into_iter()
            .filter(|(key, _)| key != "seed")
            .collect();
        let key = ArenaKey {
            workload: s.workload.clone(),
            workload_params: s.workload_params.clone(),
            overrides: s.overrides.clone(),
        };
        let entry = ArenaEntry {
            cfg,
            seed_overridden: s.overrides.iter().any(|(k, _)| k == "seed"),
            resolved_config,
            resolved_params,
            params,
            workload,
        };
        self.misses += 1;
        self.entries.push((key, entry));
        Ok(&self.entries.last().expect("just pushed").1)
    }
}

/// What one scenario measured — plain data, deterministic per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario's label.
    pub label: String,
    /// The grid cell (aggregation key).
    pub cell: String,
    /// Cell coordinates.
    pub cell_params: Vec<(String, String)>,
    /// The workload that ran.
    pub workload: String,
    /// The defense arm it ran under (a `vmm::defense` registry key).
    pub defense: String,
    /// Every [`CloudConfig`] knob with its effective value (schema order,
    /// `seed` omitted — see [`ScenarioResult::seed`]). With
    /// `resolved_params` this makes the run reproducible from its report
    /// alone. Rendered once per config shape: every run of the shape
    /// through one [`ScenarioArena`] shares it.
    pub resolved_config: Arc<[(String, String)]>,
    /// Every declared workload parameter with its effective value
    /// (schema order), shared like `resolved_config`.
    pub resolved_params: Arc<[(String, String)]>,
    /// The seed that produced this run.
    pub seed: u64,
    /// The workload's latency-like samples, ms.
    pub samples_ms: Vec<f64>,
    /// Completed operations.
    pub completed: u64,
    /// Workload-specific side measurements (summed during aggregation).
    pub extra: Vec<(String, f64)>,
    /// Whether every client finished inside the time budget.
    pub clients_done: bool,
    /// Simulated time at which clients finished (or the budget ran out).
    pub finished_ms: f64,
    /// Events the engine executed (a determinism fingerprint).
    pub events_executed: u64,
    /// Replica count of the workload VM (1 for single-host arms).
    pub replicas: u64,
    /// The nonzero cloud counters, then every slot counter summed over
    /// all replicas, zero or not.
    pub counters: Vec<(&'static str, u64)>,
}

impl ScenarioResult {
    /// One counter by name (0 if never recorded). Slot counters are sums
    /// over all replicas; divide by [`ScenarioResult::replicas`] for a
    /// per-replica figure.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|&&(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scenario(seed: u64) -> Scenario {
        let mut s = Scenario::new("web-http", seed);
        s.workload_params = vec![
            ("bytes".into(), "20000".into()),
            ("downloads".into(), "2".into()),
        ];
        s.overrides = vec![
            ("broadcast_band".into(), "off".into()),
            ("disk".into(), "ssd".into()),
        ];
        s
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let a = quick_scenario(3).run().unwrap();
        let b = quick_scenario(3).run().unwrap();
        let c = quick_scenario(4).run().unwrap();
        assert_eq!(a, b, "same seed, same result");
        assert!(a.clients_done);
        assert_eq!(a.completed, 2);
        assert_ne!(
            a.samples_ms, c.samples_ms,
            "different seed should perturb measured latencies"
        );
        assert!(a.counter("net_irq") > 0);
    }

    #[test]
    fn bad_override_and_workload_surface_as_errors() {
        let mut s = Scenario::new("web-http", 1);
        s.overrides = vec![("no_such_key".into(), "1".into())];
        assert!(s.run().is_err());
        let s2 = Scenario::new("no-such-workload", 1);
        assert!(s2.run().is_err());
    }

    #[test]
    fn results_embed_resolved_config_and_params() {
        let r = quick_scenario(3).run().unwrap();
        assert_eq!(r.workload, "web-http");
        assert_eq!(r.defense, "stopwatch");
        let cfg: std::collections::BTreeMap<&str, &str> = r
            .resolved_config
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(cfg.get("disk"), Some(&"ssd"), "override recorded");
        assert_eq!(cfg.get("broadcast_band"), Some(&"off"));
        assert_eq!(cfg.get("delta_n_ms"), Some(&"10"), "default recorded");
        assert!(!cfg.contains_key("seed"), "seed reported per shard instead");
        assert_eq!(
            r.resolved_params.to_vec(),
            vec![
                ("bytes".to_string(), "20000".to_string()),
                ("downloads".to_string(), "2".to_string()),
                ("file_id".to_string(), "1".to_string()),
            ],
            "explicit values overlaid on schema defaults, schema order"
        );
    }

    #[test]
    fn explicit_seed_override_beats_shard_seed() {
        let mut a = quick_scenario(3);
        a.overrides.push(("seed".into(), "99".into()));
        let mut b = quick_scenario(4); // different shard seed...
        b.overrides.push(("seed".into(), "99".into())); // ...same override
        let ra = a.run().unwrap();
        let rb = b.run().unwrap();
        assert_eq!(
            ra.samples_ms, rb.samples_ms,
            "seed override must win over sharding"
        );
    }

    #[test]
    fn arena_runs_are_bit_identical_to_fresh_runs() {
        let mut arena = ScenarioArena::new();
        let mut phases = Phases::default();
        let a3 = quick_scenario(3)
            .run_phased_in(&mut arena, &mut phases)
            .unwrap();
        let a4 = quick_scenario(4)
            .run_phased_in(&mut arena, &mut phases)
            .unwrap();
        assert_eq!(arena.misses(), 1, "one shape resolved once");
        assert_eq!(arena.hits(), 1, "second seed shard served from cache");
        assert_eq!(a3, quick_scenario(3).run().unwrap());
        assert_eq!(a4, quick_scenario(4).run().unwrap());
    }

    #[test]
    fn arena_respects_an_explicit_seed_override() {
        let mut arena = ScenarioArena::new();
        let mut phases = Phases::default();
        let mut a = quick_scenario(3);
        a.overrides.push(("seed".into(), "99".into()));
        let mut b = quick_scenario(4); // different shard seed...
        b.overrides.push(("seed".into(), "99".into())); // ...same override
        let ra = a.run_phased_in(&mut arena, &mut phases).unwrap();
        let rb = b.run_phased_in(&mut arena, &mut phases).unwrap();
        assert_eq!(arena.hits(), 1, "shapes match despite differing shards");
        assert_eq!(
            ra.samples_ms, rb.samples_ms,
            "cached seed override must still win over sharding"
        );
    }

    #[test]
    fn arena_keeps_distinct_shapes_apart() {
        let mut arena = ScenarioArena::new();
        let mut phases = Phases::default();
        let plain = quick_scenario(3);
        let mut rotated = quick_scenario(3);
        rotated.overrides.retain(|(k, _)| k != "disk");
        let r_plain = plain.run_phased_in(&mut arena, &mut phases).unwrap();
        let r_rot = rotated.run_phased_in(&mut arena, &mut phases).unwrap();
        assert_eq!(arena.misses(), 2, "different overrides, different entries");
        assert_ne!(r_plain.resolved_config, r_rot.resolved_config);
        // A bad shape still fails cleanly through the arena.
        let mut bad = quick_scenario(3);
        bad.overrides.push(("no_such_key".into(), "1".into()));
        assert!(bad.run_phased_in(&mut arena, &mut phases).is_err());
    }

    #[test]
    fn disk_request_past_the_image_fails_the_cell() {
        for workload in ["web-http", "web-udp", "nfs", "parsec:ferret"] {
            let mut s = Scenario::new(workload, 1);
            s.overrides = vec![
                ("image_blocks".into(), "1".into()),
                ("broadcast_band".into(), "off".into()),
            ];
            let err = s.run().expect_err("the guest's files lie past block 1");
            assert!(err.starts_with("slot failure: host "), "{workload}: {err}");
            assert!(err.contains("past the 1-block image"), "{workload}: {err}");
        }
    }

    #[test]
    fn replicas_override_widens_default_placement() {
        let mut s = Scenario::new("idle", 1);
        s.overrides = vec![("replicas".into(), "5".into())];
        s.duration = SimDuration::from_millis(50);
        assert_eq!(s.run().unwrap().replicas, 5);
    }
}
