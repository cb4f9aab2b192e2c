//! Declarative parameter sweeps: a [`SweepSpec`] is a cartesian grid of
//! axes over a base scenario, sharded over seeds, expanding to a flat,
//! deterministically ordered scenario list.
//!
//! Axis keys are routed by namespace:
//!
//! * `cfg.<key>` — a [`CloudConfig`] override (see
//!   [`CloudConfig::knobs`] for the schema; the defense arm is the
//!   `cfg.defense` knob, backed by the `vmm::defense` registry);
//! * `workload` — the workload registry key itself;
//! * anything else — a workload parameter (`bytes`, `rate`, `victim`, ...).
//!
//! Every key and value is validated against the merged knob/parameter
//! schema by [`SweepSpec::validate`] **before** any scenario runs: a typo
//! fails with an error naming the layer, the offending key, and the
//! nearest valid key.
//!
//! Expansion order is row-major (first axis slowest), seeds innermost, so
//! the cell order of every report is the order axes were declared in —
//! stable under any runner thread count.

use crate::scenario::Scenario;
use simkit::time::SimDuration;
use stopwatch_core::config::CloudConfig;
use workloads::registry::{self, Workload};

/// One swept dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Routed key (see module docs).
    pub key: String,
    /// The values the axis takes, in declaration order.
    pub values: Vec<String>,
}

impl Axis {
    /// An axis from anything stringly-typed.
    pub fn new<K: Into<String>, V: ToString>(key: K, values: &[V]) -> Axis {
        Axis {
            key: key.into(),
            values: values.iter().map(ToString::to_string).collect(),
        }
    }
}

/// A full sweep: base scenario × axes × seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Report name.
    pub name: String,
    /// Base workload (an axis named `workload` overrides per cell).
    pub workload: String,
    /// Host count (0 = sized from the placement).
    pub hosts: usize,
    /// Replica placement (empty = hosts `0..replicas`).
    pub replica_hosts: Vec<usize>,
    /// Overrides applied to every cell (axes win on conflicts).
    pub base_overrides: Vec<(String, String)>,
    /// Workload parameters applied to every cell (axes win on conflicts).
    pub base_params: Vec<(String, String)>,
    /// The swept axes.
    pub axes: Vec<Axis>,
    /// Seed shards; every cell runs once per seed.
    pub seeds: Vec<u64>,
    /// Simulated-time budget per scenario.
    pub duration: SimDuration,
    /// Post-completion drain per scenario.
    pub drain: SimDuration,
}

impl SweepSpec {
    /// A sweep of `workload` with no axes and one seed — the base other
    /// fields are edited onto.
    pub fn new(name: &str, workload: &str) -> Self {
        SweepSpec {
            name: name.to_string(),
            workload: workload.to_string(),
            hosts: 0,
            replica_hosts: Vec::new(),
            base_overrides: Vec::new(),
            base_params: Vec::new(),
            axes: Vec::new(),
            seeds: vec![42],
            duration: SimDuration::from_secs(60),
            drain: SimDuration::from_millis(500),
        }
    }

    /// Adds an axis (builder style).
    pub fn axis<K: Into<String>, V: ToString>(mut self, key: K, values: &[V]) -> Self {
        self.axes.push(Axis::new(key, values));
        self
    }

    /// Shards over `count` seeds derived from `base` (base, base+1, ...).
    pub fn seed_shards(mut self, base: u64, count: usize) -> Self {
        self.seeds = (0..count as u64).map(|i| base + i).collect();
        self
    }

    /// Number of scenarios this spec expands to.
    pub fn scenario_count(&self) -> usize {
        self.axes
            .iter()
            .map(|a| a.values.len().max(1))
            .product::<usize>()
            * self.seeds.len()
    }

    /// Validates the whole spec against the merged knob/parameter schema
    /// without expanding it: no axis key, and no value within one axis,
    /// may repeat; every workload in play must be registered,
    /// every `cfg.*` key must be a [`CloudConfig`] knob whose values
    /// parse (`cfg.defense` values resolve against the defense-arm
    /// registry), and every other key must be a declared parameter of
    /// **every** workload in play (with values of the declared type).
    /// [`SweepSpec::scenarios`] calls this, so a typo anywhere in a spec
    /// fails before anything runs.
    ///
    /// # Errors
    ///
    /// A message naming the sweep, the layer, the offending key, and —
    /// for plausible typos — the nearest valid key.
    pub fn validate(&self) -> Result<(), String> {
        let ctx = |what: &str| format!("sweep {:?} {what}", self.name);
        for (i, axis) in self.axes.iter().enumerate() {
            if self.axes[..i].iter().any(|a| a.key == axis.key) {
                return Err(format!("{}: duplicate axis {:?}", ctx("axes"), axis.key));
            }
            // A repeated value would run identical scenarios into one
            // cell and count every sample twice.
            for (j, value) in axis.values.iter().enumerate() {
                if axis.values[..j].contains(value) {
                    return Err(format!(
                        "{}: duplicate value {value:?} in axis {:?}",
                        ctx("axes"),
                        axis.key
                    ));
                }
            }
        }
        // Which workloads can appear in a cell (a `workload` axis swaps
        // the base one out per cell).
        let workload_values: Vec<String> = match self.axes.iter().find(|a| a.key == "workload") {
            Some(axis) => axis.values.clone(),
            None => vec![self.workload.clone()],
        };
        let mut in_play: Vec<&dyn Workload> = Vec::new();
        for name in &workload_values {
            let w = registry::require(name).map_err(|e| format!("{}: {e}", ctx("workload")))?;
            in_play.push(w);
        }
        let mut scratch = CloudConfig::default();
        for (key, value) in &self.base_overrides {
            scratch
                .apply(key, value)
                .map_err(|e| format!("{}: {e}", ctx("base override")))?;
        }
        for (key, value) in &self.base_params {
            for w in &in_play {
                check_param(&ctx("base parameter"), *w, key, value)?;
            }
        }
        for axis in &self.axes {
            let what = ctx(&format!("axis {:?}", axis.key));
            if axis.key == "workload" {
                continue; // validated above
            } else if axis.key == "stopwatch" {
                // The pre-defense-registry arm toggle: point migrating
                // specs at the knob that replaced it.
                let ty = CloudConfig::knob("defense")
                    .expect("defense is a schema knob")
                    .ty;
                return Err(format!(
                    "{what}: the boolean stopwatch axis was replaced by the \
                     \"cfg.defense\" knob ({ty})"
                ));
            } else if let Some(cfg_key) = axis.key.strip_prefix("cfg.") {
                for value in &axis.values {
                    scratch
                        .apply(cfg_key, value)
                        .map_err(|e| format!("{what}: {e}"))?;
                }
            } else {
                for w in &in_play {
                    for value in &axis.values {
                        check_param(&what, *w, &axis.key, value)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Expands the grid to the flat scenario list, row-major over axes,
    /// seeds innermost.
    ///
    /// # Errors
    ///
    /// Reports empty axes and empty seed lists, and — via
    /// [`SweepSpec::validate`] — any key or value the merged
    /// knob/parameter schema rejects, all before anything runs.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, String> {
        if self.seeds.is_empty() {
            return Err(format!("sweep {:?} has no seeds", self.name));
        }
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(format!(
                    "axis {:?} of sweep {:?} has no values",
                    axis.key, self.name
                ));
            }
        }
        self.validate()?;
        let cells = self.axes.iter().map(|a| a.values.len()).product::<usize>();
        let mut out = Vec::with_capacity(cells * self.seeds.len());
        // Row-major odometer over the axes.
        let mut idx = vec![0usize; self.axes.len()];
        loop {
            let coords: Vec<(&str, &str)> = self
                .axes
                .iter()
                .zip(&idx)
                .map(|(a, &i)| (a.key.as_str(), a.values[i].as_str()))
                .collect();
            let cell = if coords.is_empty() {
                self.workload.clone()
            } else {
                coords
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            for &seed in &self.seeds {
                out.push(self.materialize(&cell, &coords, seed)?);
            }
            // Advance the odometer; last axis fastest.
            let mut done = true;
            for pos in (0..idx.len()).rev() {
                idx[pos] += 1;
                if idx[pos] < self.axes[pos].values.len() {
                    done = false;
                    break;
                }
                idx[pos] = 0;
            }
            if done {
                break;
            }
        }
        Ok(out)
    }

    fn materialize(
        &self,
        cell: &str,
        coords: &[(&str, &str)],
        seed: u64,
    ) -> Result<Scenario, String> {
        let mut workload = self.workload.clone();
        let mut overrides = self.base_overrides.clone();
        let mut params = self.base_params.clone();
        for &(key, value) in coords {
            if key == "workload" {
                workload = value.to_string();
            } else if let Some(cfg_key) = key.strip_prefix("cfg.") {
                overrides.push((cfg_key.to_string(), value.to_string()));
            } else {
                params.push((key.to_string(), value.to_string()));
            }
        }
        Ok(Scenario {
            label: format!("{cell}#{seed}"),
            cell: cell.to_string(),
            cell_params: coords
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            workload,
            workload_params: params,
            hosts: self.hosts,
            replica_hosts: self.replica_hosts.clone(),
            seed,
            duration: self.duration,
            drain: self.drain,
            overrides,
        })
    }
}

/// Checks one workload-parameter key/value against `workload`'s schema.
/// An unknown key that names a [`CloudConfig`] knob gets a cross-layer
/// hint (`cfg.<key>`); other unknown keys get the nearest-parameter
/// suggestion.
fn check_param(
    context: &str,
    workload: &dyn Workload,
    key: &str,
    value: &str,
) -> Result<(), String> {
    let specs = workload.params();
    match specs.iter().find(|s| s.key == key) {
        Some(spec) => spec.ty.check(value).map_err(|e| {
            format!(
                "{context}: workload {:?} parameter {key:?}: {e}",
                workload.name()
            )
        }),
        None => {
            if CloudConfig::knob(key).is_some() {
                return Err(format!(
                    "{context}: workload {:?} has no parameter {key:?}; \
                     did you mean the config knob \"cfg.{key}\"?",
                    workload.name()
                ));
            }
            let keys: Vec<&str> = specs.iter().map(|s| s.key).collect();
            Err(format!(
                "{context}: {}",
                stopwatch_core::schema::unknown_key(
                    &format!("parameter of workload {:?}", workload.name()),
                    key,
                    &keys,
                )
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_row_major_with_seeds_innermost() {
        let spec = SweepSpec::new("t", "web-http")
            .axis("cfg.delta_n_ms", &[2, 8])
            .axis("cfg.defense", &["baseline", "stopwatch"])
            .seed_shards(10, 2);
        assert_eq!(spec.scenario_count(), 8);
        let scenarios = spec.scenarios().unwrap();
        assert_eq!(scenarios.len(), 8);
        let labels: Vec<&str> = scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "cfg.delta_n_ms=2,cfg.defense=baseline#10",
                "cfg.delta_n_ms=2,cfg.defense=baseline#11",
                "cfg.delta_n_ms=2,cfg.defense=stopwatch#10",
                "cfg.delta_n_ms=2,cfg.defense=stopwatch#11",
                "cfg.delta_n_ms=8,cfg.defense=baseline#10",
                "cfg.delta_n_ms=8,cfg.defense=baseline#11",
                "cfg.delta_n_ms=8,cfg.defense=stopwatch#10",
                "cfg.delta_n_ms=8,cfg.defense=stopwatch#11",
            ]
        );
        assert_eq!(
            scenarios[4].overrides,
            vec![
                ("delta_n_ms".to_string(), "8".to_string()),
                ("defense".to_string(), "baseline".to_string()),
            ]
        );
    }

    #[test]
    fn axis_routing_covers_all_namespaces() {
        let spec = SweepSpec::new("t", "web-http")
            .axis("workload", &["web-udp"])
            .axis("bytes", &[1000]);
        let scenarios = spec.scenarios().unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].workload, "web-udp");
        assert_eq!(
            scenarios[0].workload_params,
            vec![("bytes".to_string(), "1000".to_string())]
        );
    }

    #[test]
    fn empty_axes_and_seeds_error() {
        let mut spec = SweepSpec::new("t", "idle");
        spec.seeds.clear();
        assert!(spec.scenarios().is_err());
        let spec2 = SweepSpec::new("t", "idle").axis::<_, u64>("bytes", &[]);
        assert!(spec2.scenarios().is_err());
        let spec3 = SweepSpec::new("t", "idle").axis("cfg.defense", &["maybe"]);
        assert!(spec3.scenarios().is_err());
    }

    #[test]
    fn retired_stopwatch_axis_points_at_the_defense_knob() {
        let spec = SweepSpec::new("t", "idle").axis("stopwatch", &["false", "true"]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("cfg.defense"), "{err}");
        assert!(
            err.contains("baseline|bucketed|deterland|stopwatch"),
            "{err}"
        );
    }

    #[test]
    fn unknown_defense_axis_value_suggests_nearest_arm() {
        let spec = SweepSpec::new("t", "idle").axis("cfg.defense", &["determand"]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("axis \"cfg.defense\""), "{err}");
        assert!(err.contains("did you mean \"deterland\""), "{err}");
    }

    #[test]
    fn no_axes_single_cell_named_after_workload() {
        let spec = SweepSpec::new("t", "nfs").seed_shards(1, 3);
        let scenarios = spec.scenarios().unwrap();
        assert_eq!(scenarios.len(), 3);
        assert!(scenarios.iter().all(|s| s.cell == "nfs"));
    }

    #[test]
    fn unknown_knob_axis_fails_before_expansion_with_suggestion() {
        let spec = SweepSpec::new("t", "web-http").axis("cfg.delta_q_ms", &[1u64, 2]);
        let err = spec.scenarios().unwrap_err();
        assert!(err.contains("axis \"cfg.delta_q_ms\""), "{err}");
        assert!(err.contains("did you mean \"delta_n_ms\""), "{err}");
    }

    #[test]
    fn ill_typed_knob_value_fails_before_expansion() {
        let spec = SweepSpec::new("t", "web-http").axis("cfg.replicas", &["three"]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("replicas"), "{err}");
        assert!(err.contains("three"), "{err}");
    }

    #[test]
    fn unknown_workload_param_axis_suggests_nearest() {
        let spec = SweepSpec::new("t", "web-http").axis("byts", &[100u64]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("web-http"), "{err}");
        assert!(err.contains("did you mean \"bytes\""), "{err}");
    }

    #[test]
    fn bare_knob_key_gets_cross_layer_hint() {
        let spec = SweepSpec::new("t", "web-http").axis("delta_n_ms", &[4u64]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("cfg.delta_n_ms"), "{err}");
    }

    #[test]
    fn ill_typed_param_value_fails_before_expansion() {
        let spec = SweepSpec::new("t", "web-http").axis("bytes", &["many"]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("\"bytes\""), "{err}");
        assert!(err.contains("many"), "{err}");
        // Width-exact: `downloads` installs as u32, so an over-u32 value
        // must already fail here, not at install time inside the sweep.
        let spec = SweepSpec::new("t", "web-http").axis("downloads", &["5000000000"]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("\"downloads\""), "{err}");
    }

    #[test]
    fn unknown_workload_axis_value_suggests_nearest() {
        let spec = SweepSpec::new("t", "web-http").axis("workload", &["web-http", "web-udpp"]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("did you mean \"web-udp\""), "{err}");
    }

    #[test]
    fn params_must_fit_every_workload_in_play() {
        // `bytes` fits both web workloads but not `idle`.
        let ok = SweepSpec::new("t", "web-http")
            .axis("workload", &["web-http", "web-udp"])
            .axis("bytes", &[1000u64]);
        assert!(ok.validate().is_ok());
        let bad = SweepSpec::new("t", "web-http")
            .axis("workload", &["web-http", "idle"])
            .axis("bytes", &[1000u64]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn duplicate_axis_keys_are_rejected() {
        let spec = SweepSpec::new("t", "web-http")
            .axis("bytes", &[1u64])
            .axis("bytes", &[2u64]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("duplicate axis"), "{err}");
        assert!(err.contains("\"bytes\""), "{err}");
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        let spec = SweepSpec::new("t", "web-http").axis("bytes", &[1u64, 2, 1]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("duplicate value \"1\""), "{err}");
        assert!(err.contains("\"bytes\""), "{err}");
        assert!(spec.scenarios().is_err(), "expansion validates first");
    }

    #[test]
    fn base_overrides_and_params_are_validated_too() {
        let mut spec = SweepSpec::new("t", "web-http");
        spec.base_overrides = vec![("delta_q_ms".into(), "1".into())];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("base override"), "{err}");
        let mut spec = SweepSpec::new("t", "web-http");
        spec.base_params = vec![("byts".into(), "1".into())];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("base parameter"), "{err}");
    }
}
