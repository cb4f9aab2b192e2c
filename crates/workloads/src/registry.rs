//! The typed workload API: one [`Workload`] row per workload in one
//! static table, [`workloads`].
//!
//! This is the joint between the declarative sweep layer (`harness`) and
//! the concrete guests/clients of this crate: a scenario names a workload
//! (`"web-http"`, `"parsec:ferret"`, ...) and its row does the wiring.
//! Each workload declares its parameters as [`ParamSpec`] rows — key,
//! type, default, doc — so the sweep layer can enumerate and type-check
//! every parameter *before* a scenario runs, and `swbench describe`
//! prints the catalogue. Adding a workload (a cache-channel guest pair, a
//! trace replayer, ...) is one const [`Workload`] row plus its install
//! fn, and one entry in the table; no central dispatch changes.
//!
//! Every workload reports its results the same way — a vector of
//! latency-like samples in milliseconds plus a completion count
//! ([`WorkloadOutcome`]) — which is what sweep aggregation consumes.

use std::collections::BTreeMap;
use stopwatch_core::cloud::{CloudBuilder, CloudSim, VmHandle};
use stopwatch_core::config::CloudConfig;
use stopwatch_core::schema::{self, ValueType};
use vmm::channel::ChannelKind;
use vmm::guest::IdleGuest;

/// One declared workload parameter: key, type, default, doc. The default
/// is the string form the parameter's type parses.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// The parameter key (also its sweep-axis name).
    pub key: &'static str,
    /// Declared value type.
    pub ty: ValueType,
    /// Default value, rendered.
    pub default: &'static str,
    /// One-line description for `swbench describe`.
    pub doc: &'static str,
}

/// String-keyed workload parameters (grid-cell coordinates land here).
///
/// Keys and values are validated against the owning workload's
/// [`ParamSpec`] schema at install time (and by sweep harnesses before
/// anything runs), so a typo fails loudly with a did-you-mean suggestion
/// instead of silently running defaults.
#[derive(Debug, Clone, Default)]
pub struct WorkloadParams {
    map: BTreeMap<String, String>,
}

impl WorkloadParams {
    /// An empty parameter set (workload defaults apply).
    pub fn new() -> Self {
        WorkloadParams::default()
    }

    /// Builds from `(key, value)` pairs; later pairs win.
    pub fn from_pairs<'a, I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut p = WorkloadParams::new();
        for (k, v) in pairs {
            p.set(k, v);
        }
        p
    }

    /// Sets one parameter.
    pub fn set(&mut self, key: &str, value: &str) {
        self.map.insert(key.to_string(), value.to_string());
    }

    /// Checks every pair with [`Workload::check_param`].
    ///
    /// # Errors
    ///
    /// The first failing pair's message.
    pub fn validate(&self, workload: &Workload) -> Result<(), String> {
        self.map
            .iter()
            .try_for_each(|(key, value)| workload.check_param(key, value))
    }

    /// The fully-resolved parameter set: every declared parameter with its
    /// explicit or default value, in schema order — what sweep reports
    /// embed per cell.
    pub fn resolved(&self, specs: &[ParamSpec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| {
                let value = self
                    .map
                    .get(s.key)
                    .cloned()
                    .unwrap_or_else(|| s.default.to_string());
                (s.key.to_string(), value)
            })
            .collect()
    }

    /// Typed lookup: the explicit value for `key`, or its schema default.
    /// Panics if `key` has no [`ParamSpec`] in `specs` — a programming
    /// error in the calling workload, not a data error.
    ///
    /// # Errors
    ///
    /// Reports unparsable values (explicit or default) by key.
    pub fn get<T: std::str::FromStr>(&self, specs: &[ParamSpec], key: &str) -> Result<T, String> {
        let spec = specs
            .iter()
            .find(|s| s.key == key)
            .unwrap_or_else(|| panic!("no ParamSpec for parameter {key:?}"));
        let raw = self
            .map
            .get(key)
            .map(String::as_str)
            .unwrap_or(spec.default);
        raw.parse::<T>()
            .map_err(|_| format!("bad value {raw:?} for workload parameter {key:?}"))
    }
}

/// What a workload measured, in registry-neutral form.
#[derive(Debug, Clone, Default)]
pub struct WorkloadOutcome {
    /// Per-operation latency-like samples in milliseconds. For the attack
    /// workload these are the attacker-observed inter-packet deltas — the
    /// quantity whose distribution leaks (or, under StopWatch, does not).
    pub samples_ms: Vec<f64>,
    /// Completed operations (downloads, NFS ops, finished apps, probes).
    pub completed: u64,
    /// Workload-specific side measurements (e.g. `sent_segments` /
    /// `received_segments` for the TCP workloads — Fig. 6b's
    /// packets-per-op accounting).
    pub extra: Vec<(String, f64)>,
}

impl WorkloadOutcome {
    /// One completed operation per sample.
    pub(crate) fn per_sample(samples_ms: Vec<f64>, extra: Vec<(String, f64)>) -> Self {
        WorkloadOutcome {
            completed: samples_ms.len() as u64,
            samples_ms,
            extra,
        }
    }
}

/// A workload wired into a cloud.
pub struct Installed {
    /// The workload's protected VM.
    pub vm: VmHandle,
    /// Extracts the measurements from the finished simulation.
    pub collect: Box<dyn FnOnce(&mut CloudSim) -> WorkloadOutcome>,
}

/// One registered workload: a row of [`workloads`]. It plugs into every
/// sweep layer — `swbench` grids and presets — with no central dispatch.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The registry key (`"web-http"`, `"parsec:ferret"`, ...).
    pub name: &'static str,
    /// One-line description for `swbench describe`.
    pub about: &'static str,
    /// The declared parameter schema.
    pub params: &'static [ParamSpec],
    /// The timing channels this workload's guests drive — which of the
    /// VMM's agreement paths it exercises (`swbench describe` prints
    /// them). Every client-measured workload crosses the network channel.
    pub channels: &'static [ChannelKind],
    /// Wires the workload into the builder: its VM under the builder's
    /// defense arm (`cfg.defense`) on the replica hosts — single-host
    /// arms use the first — plus its measuring client. Client-side
    /// randomness derives from the builder's `seed`. The caller has
    /// validated the parameters and checked that there is a host.
    ///
    /// The `Err` is a wiring failure, as a message.
    pub install: fn(&mut CloudBuilder, &[usize], &WorkloadParams) -> Result<Installed, String>,
}

impl Workload {
    /// Checks one parameter key/value against this workload's schema. An
    /// unknown key that names a [`CloudConfig`] knob gets a cross-layer
    /// hint (`cfg.<key>`); other unknown keys get the nearest-parameter
    /// suggestion.
    ///
    /// # Errors
    ///
    /// A message naming the workload, the offending key, and — for
    /// plausible typos — the nearest valid key.
    pub fn check_param(&self, key: &str, value: &str) -> Result<(), String> {
        let name = self.name;
        match self.params.iter().find(|s| s.key == key) {
            Some(spec) => spec
                .ty
                .check(value)
                .map_err(|e| format!("workload {name:?} parameter {key:?}: {e}")),
            None if CloudConfig::knob(key).is_some() => Err(format!(
                "workload {name:?} has no parameter {key:?}; \
                 did you mean the config knob \"cfg.{key}\"?"
            )),
            None => {
                let keys: Vec<&str> = self.params.iter().map(|s| s.key).collect();
                Err(schema::unknown_key(
                    &format!("parameter of workload {name:?}"),
                    key,
                    &keys,
                ))
            }
        }
    }
}

/// The "idle" workload: one protected VM running no guest program and no
/// client — the minimal cloud (overhead floors, placement tests).
const IDLE: Workload = Workload {
    name: "idle",
    about: "idle guest, no client (overhead floor / placement scaffolding)",
    params: &[],
    channels: &[],
    install: |b, hosts, _| {
        Ok(Installed {
            vm: b.add_defended_vm(hosts, || Box::new(IdleGuest)),
            collect: Box::new(|_| WorkloadOutcome::default()),
        })
    },
};

/// Every workload, in presentation order (`swbench workloads`).
static WORKLOADS: &[Workload] = &[
    IDLE,
    crate::web::WEB_HTTP,
    crate::web::WEB_UDP,
    crate::nfs::NFS,
    crate::attack::ATTACK,
    crate::cache::CACHE_CHANNEL,
    crate::disk::DISK_CHANNEL,
    crate::timer::TIMER_CHANNEL,
    crate::parsec::WORKLOADS[0],
    crate::parsec::WORKLOADS[1],
    crate::parsec::WORKLOADS[2],
    crate::parsec::WORKLOADS[3],
    crate::parsec::WORKLOADS[4],
];

/// Every workload, in presentation order.
pub fn workloads() -> &'static [Workload] {
    WORKLOADS
}

/// Looks up a workload by name.
///
/// # Errors
///
/// Names the unknown workload, the nearest workload name (for plausible
/// typos), and the full table.
pub fn require(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let keys: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        schema::unknown_key("workload", name, &keys)
    })
}

/// Wires workload `name` into the builder: its VM under the builder's
/// configured defense arm (`cfg.defense`) on `replica_hosts`, plus its
/// measuring client. Parameters are validated against the workload's
/// schema first.
///
/// # Errors
///
/// Unknown workload names and unknown/ill-typed parameters are reported
/// with nearest-key suggestions; empty `replica_hosts` is reported as a
/// message.
pub fn install(
    name: &str,
    b: &mut CloudBuilder,
    replica_hosts: &[usize],
    params: &WorkloadParams,
) -> Result<Installed, String> {
    if replica_hosts.is_empty() {
        return Err("workload needs at least one replica host".to_string());
    }
    let workload = require(name)?;
    params.validate(workload)?;
    (workload.install)(b, replica_hosts, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsec::PARSEC;
    use simkit::time::{SimDuration, SimTime};
    use stopwatch_core::config::CloudConfig;

    fn run(name: &str, stopwatch: bool, params: WorkloadParams) -> WorkloadOutcome {
        let mut cfg = CloudConfig::fast_test();
        cfg.defense = if stopwatch { "stopwatch" } else { "baseline" }.to_string();
        let mut b = CloudBuilder::new(cfg, 3);
        let wl = install(name, &mut b, &[0, 1, 2], &params).expect("install");
        let mut sim = b.build();
        sim.run_until_clients_done(SimTime::from_secs(120));
        let drain = sim.now() + SimDuration::from_millis(500);
        sim.run_until(drain);
        (wl.collect)(&mut sim)
    }

    #[test]
    fn names_cover_parsec_apps() {
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        for builtin in [
            "idle",
            "web-http",
            "web-udp",
            "nfs",
            "attack",
            "cache-channel",
            "disk-channel",
            "timer-channel",
        ] {
            assert!(names.contains(&builtin), "missing {builtin}");
        }
        for p in PARSEC {
            let name = format!("parsec:{}", p.name);
            assert!(names.contains(&name.as_str()), "missing {name}");
        }
        assert_eq!(names.len(), 13);
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate workload name");
    }

    #[test]
    fn every_registered_workload_has_a_valid_schema() {
        for w in workloads() {
            assert!(!w.name.is_empty());
            assert!(!w.about.is_empty(), "{:?} lacks an about", w.name);
            for p in w.params {
                assert!(!p.doc.is_empty(), "{}.{} lacks a doc", w.name, p.key);
                p.ty.check(p.default).unwrap_or_else(|e| {
                    panic!("{}.{} default fails its own type: {e}", w.name, p.key)
                });
            }
        }
    }

    #[test]
    fn unknown_workload_and_params_error() {
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        assert!(install("no-such", &mut b, &[0, 1, 2], &WorkloadParams::new()).is_err());
        let bad = WorkloadParams::from_pairs([("byts", "10")]);
        assert!(install("web-http", &mut b, &[0, 1, 2], &bad).is_err());
        let unparsable = WorkloadParams::from_pairs([("bytes", "many")]);
        assert!(install("web-http", &mut b, &[0, 1, 2], &unparsable).is_err());
        assert!(install("parsec:quake", &mut b, &[0, 1, 2], &WorkloadParams::new()).is_err());
        assert!(install("idle", &mut b, &[], &WorkloadParams::new()).is_err());
    }

    #[test]
    fn errors_carry_nearest_key_suggestions() {
        let err = require("web-htp").expect_err("unknown workload");
        assert!(err.contains("did you mean \"web-http\""), "{err}");
        let err = require("parsec:feret").expect_err("unknown workload");
        assert!(err.contains("did you mean \"parsec:ferret\""), "{err}");
        let typo = WorkloadParams::from_pairs([("byts", "10")]);
        let err = typo.validate(require("web-http").unwrap()).unwrap_err();
        assert!(err.contains("did you mean \"bytes\""), "{err}");
        assert!(err.contains("web-http"), "{err}");
        let ill_typed = WorkloadParams::from_pairs([("bytes", "many")]);
        let err = ill_typed
            .validate(require("web-http").unwrap())
            .unwrap_err();
        assert!(err.contains("\"bytes\""), "{err}");
        assert!(err.contains("many"), "{err}");
    }

    #[test]
    fn resolved_overlays_explicit_values_on_defaults() {
        let specs = require("web-http").unwrap().params;
        let params = WorkloadParams::from_pairs([("bytes", "777")]);
        let resolved = params.resolved(specs);
        assert_eq!(resolved.len(), specs.len());
        assert!(resolved.contains(&("bytes".to_string(), "777".to_string())));
        assert!(resolved.contains(&("downloads".to_string(), "3".to_string())));
    }

    #[test]
    fn web_http_roundtrip_collects_samples() {
        let params = WorkloadParams::from_pairs([("bytes", "20000"), ("downloads", "2")]);
        let out = run("web-http", true, params);
        assert_eq!(out.completed, 2);
        assert_eq!(out.samples_ms.len(), 2);
        assert!(out.samples_ms.iter().all(|&ms| ms > 0.0));
    }

    #[test]
    fn web_udp_baseline_collects_samples() {
        let params = WorkloadParams::from_pairs([("bytes", "20000"), ("downloads", "1")]);
        let out = run("web-udp", false, params);
        assert_eq!(out.completed, 1);
    }

    #[test]
    fn nfs_collects_op_latencies() {
        let params = WorkloadParams::from_pairs([("rate", "200"), ("ops", "40")]);
        let out = run("nfs", true, params);
        assert_eq!(out.completed, 40);
        assert_eq!(out.samples_ms.len(), 40);
    }

    #[test]
    fn attack_collects_probe_deltas() {
        let params = WorkloadParams::from_pairs([("probes", "30"), ("victim", "true")]);
        let out = run("attack", true, params);
        assert!(out.completed >= 20, "deltas {}", out.completed);
    }

    #[test]
    fn idle_collects_nothing() {
        let out = run("idle", true, WorkloadParams::new());
        assert_eq!(out.completed, 0);
        assert!(out.samples_ms.is_empty());
    }
}
