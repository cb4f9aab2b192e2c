//! Cloud-wide configuration: the paper's platform constants with the knobs
//! its evaluation varies.
//!
//! Every tunable knob is declared once in the [`KnobSpec`] schema
//! ([`CloudConfig::knobs`]): key, value type, default, doc string, and the
//! getter/setter pair. [`CloudConfig::apply`] is a thin walk over that
//! schema, so the knob surface is enumerable (sweep harnesses validate
//! axis keys against it before anything runs, `swbench describe` prints
//! it) and a new knob is one table row, not a new `match` arm.

use crate::schema::{self, ValueType};
use netsim::link::LinkModel;
use simkit::time::{SimDuration, VirtOffset};
use vmm::defense::{DefenseKnobs, DefenseMode, DefensePolicy};
use vmm::devices::PlatformClocks;

/// The registered defense-arm names, alphabetical — the `defense` knob's
/// enum options. Kept in lockstep with `vmm::defense::ARMS` by the
/// `defense_knob_matches_the_registry` test (the list must be `'static`
/// for [`ValueType::Enum`], so it cannot be built from the registry at
/// runtime).
static DEFENSE_ARMS: &[&str] = &["baseline", "bucketed", "deterland", "stopwatch"];

/// Which disk medium backs the hosts (Sec. VII-D conjectures SSDs would
/// shrink Δd).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskKind {
    /// The testbed's 70 GB rotating drive.
    Rotating,
    /// A SATA-era SSD.
    Ssd,
}

/// Fastest-replica pacing (Sec. V-A: the virtual-time gap between the two
/// fastest replicas is bounded by slowing the fastest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacingConfig {
    /// How often VMMs compare replica progress.
    pub heartbeat: SimDuration,
    /// Maximum allowed virtual-time lead of the fastest replica over the
    /// second-fastest.
    pub max_gap_ns: u64,
}

impl Default for PacingConfig {
    fn default() -> Self {
        PacingConfig {
            heartbeat: SimDuration::from_millis(2),
            max_gap_ns: 4_000_000, // 4 ms
        }
    }
}

/// Full cloud configuration.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Master seed; everything stochastic derives from it.
    pub seed: u64,
    /// Which defense arm guards the timing channels (a `vmm::defense`
    /// registry key; see `swbench describe`).
    pub defense: String,
    /// Replicas per StopWatch guest (odd, >= 3).
    pub replicas: usize,
    /// Δn: virtual-time offset for network-interrupt proposals. The paper
    /// found values translating to ~7–12 ms real time sufficed on its
    /// platform.
    pub delta_n: VirtOffset,
    /// Δd: virtual-time offset for disk/DMA completions (paper: ~8–15 ms,
    /// sized from worst-case disk access times).
    pub delta_d: VirtOffset,
    /// Δt: virtual-time offset for guest virtual-timer fires, measured
    /// from the *programmed* deadline (not the jittery dispatch instant),
    /// sized to cover the worst-case vCPU run-queue wait.
    pub delta_t: VirtOffset,
    /// Deterland arm: deterministic release-epoch length.
    pub epoch: VirtOffset,
    /// Bucketed arm: quantization level width.
    pub bucket: VirtOffset,
    /// Bucketed arm: number of distinguishable levels before the cap.
    pub buckets: u64,
    /// vCPU scheduler timeslice — the quantum each busy co-resident runs
    /// before a newly-woken vCPU is dispatched.
    pub timeslice: VirtOffset,
    /// Branches between guest-caused VM exits.
    pub exit_every: u64,
    /// Host base speed, branches per second.
    pub base_ips: f64,
    /// Host speed jitter fraction (uniform, per 10 ms epoch).
    pub ips_jitter: f64,
    /// Speed-jitter epoch length.
    pub speed_epoch: SimDuration,
    /// Virtual nanoseconds per branch (initial clock slope; the paper sets
    /// it from the machines' tick rate).
    pub slope: f64,
    /// Emulated platform clock devices.
    pub platform_clocks: PlatformClocks,
    /// Fastest-replica pacing; `None` disables it.
    pub pacing: Option<PacingConfig>,
    /// Cloud-internal links (host↔host, ingress/egress↔host).
    pub lan: LinkModel,
    /// External client links.
    pub client_link: LinkModel,
    /// Disk medium.
    pub disk: DiskKind,
    /// Background broadcast band in packets/second (the paper's /24 subnet
    /// saw 50–100); `None` disables it.
    pub broadcast_band: Option<(f64, f64)>,
    /// Client protocol-timer period (RTO / NAK checks).
    pub client_tick: SimDuration,
    /// Guest disk image size in blocks.
    pub image_blocks: u64,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            seed: 42,
            defense: "stopwatch".to_string(),
            replicas: 3,
            delta_n: VirtOffset::from_millis(10),
            delta_d: VirtOffset::from_millis(12),
            delta_t: VirtOffset::from_millis(10),
            epoch: VirtOffset::from_millis(5),
            bucket: VirtOffset::from_millis(5),
            buckets: 4,
            timeslice: VirtOffset::from_millis(2),
            exit_every: 50_000,
            base_ips: 1.0e9,
            ips_jitter: 0.02,
            speed_epoch: SimDuration::from_millis(10),
            slope: 1.0,
            platform_clocks: PlatformClocks::default(),
            pacing: Some(PacingConfig::default()),
            lan: LinkModel::lan(),
            client_link: LinkModel::wireless_client(),
            disk: DiskKind::Rotating,
            broadcast_band: Some((50.0, 100.0)),
            client_tick: SimDuration::from_millis(20),
            image_blocks: 1 << 22, // 16 GiB at 4 KiB blocks, like the testbed guests
        }
    }
}

impl CloudConfig {
    /// A configuration tuned for fast unit/integration tests: no broadcast
    /// chatter, SSD disks, paper-faithful Δ offsets.
    pub fn fast_test() -> Self {
        CloudConfig {
            broadcast_band: None,
            disk: DiskKind::Ssd,
            ..CloudConfig::default()
        }
    }

    /// The full knob schema: every `apply`-able key with its type,
    /// default, and doc string, in declaration order.
    pub fn knobs() -> &'static [KnobSpec] {
        KNOBS
    }

    /// Looks up one knob by key.
    pub fn knob(key: &str) -> Option<&'static KnobSpec> {
        KNOBS.iter().find(|s| s.key == key)
    }

    /// Every knob's current value as `(key, value)` strings, in schema
    /// order — the fully-resolved configuration sweep reports embed so a
    /// run is reproducible from its report alone. Values round-trip
    /// through [`CloudConfig::apply`].
    pub fn resolved(&self) -> Vec<(String, String)> {
        KNOBS
            .iter()
            .map(|s| (s.key.to_string(), s.value_of(self)))
            .collect()
    }

    /// Applies one string-keyed override — the entry point sweep harnesses
    /// use to build a cloud from a declarative scenario. The key is
    /// resolved against the [`CloudConfig::knobs`] schema; run
    /// `swbench describe` for the rendered key/type/default/doc table.
    ///
    /// # Errors
    ///
    /// Returns a message naming the key (and the nearest valid key, for
    /// plausible typos) on unknown keys or unparsable values, so sweep
    /// specs fail loudly instead of silently running the default
    /// configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use stopwatch_core::config::CloudConfig;
    /// let mut cfg = CloudConfig::fast_test();
    /// cfg.apply("delta_n_ms", "4").unwrap();
    /// assert_eq!(cfg.delta_n.as_millis_f64(), 4.0);
    /// let err = cfg.apply("delta_q_ms", "1").unwrap_err();
    /// assert!(err.contains("did you mean \"delta_n_ms\""));
    /// ```
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        let Some(spec) = Self::knob(key) else {
            let keys: Vec<&str> = KNOBS.iter().map(|s| s.key).collect();
            return Err(schema::unknown_key("config knob", key, &keys));
        };
        spec.apply_to(self, value)
    }

    /// Applies a list of `(key, value)` overrides in order.
    ///
    /// # Errors
    ///
    /// Stops at and reports the first failing pair.
    pub fn apply_all<'a, I>(&mut self, overrides: I) -> Result<(), String>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        for (key, value) in overrides {
            self.apply(key, value)?;
        }
        Ok(())
    }

    /// The configured defense arm, resolved through the `vmm::defense`
    /// registry.
    ///
    /// # Panics
    ///
    /// On an arm name the registry does not know — unreachable through
    /// [`CloudConfig::apply`], which validates the `defense` knob, but
    /// possible when the field is assigned directly.
    pub fn defense_arm(&self) -> &'static dyn DefensePolicy {
        vmm::defense::arm(&self.defense).unwrap_or_else(|| {
            panic!(
                "{}",
                schema::unknown_key("defense arm", &self.defense, DEFENSE_ARMS)
            )
        })
    }

    /// The knob bundle defense arms lower from — every field mirrors one
    /// `apply` key.
    pub fn defense_knobs(&self) -> DefenseKnobs {
        DefenseKnobs {
            delta_n: self.delta_n,
            delta_d: self.delta_d,
            delta_t: self.delta_t,
            replicas: self.replicas,
            epoch: self.epoch,
            bucket: self.bucket,
            buckets: self.buckets,
        }
    }

    /// The configured arm lowered to the slot's hot-path
    /// [`DefenseMode`].
    pub fn defense_mode(&self) -> DefenseMode {
        self.defense_arm().mode(&self.defense_knobs())
    }
}

/// One row of the knob schema: a self-describing, introspectable
/// [`CloudConfig`] tunable. The getter renders the current value in the
/// exact form the setter parses, so `resolved()` output round-trips.
pub struct KnobSpec {
    /// The `apply` key (and `cfg.<key>` sweep-axis name).
    pub key: &'static str,
    /// Declared value type (what [`ValueType::check`] validates).
    pub ty: ValueType,
    /// One-line description for `swbench describe`.
    pub doc: &'static str,
    get: fn(&CloudConfig) -> String,
    set: fn(&mut CloudConfig, &str) -> Result<(), String>,
}

impl KnobSpec {
    /// This knob's value under [`CloudConfig::default`], rendered.
    pub fn default_value(&self) -> String {
        (self.get)(&CloudConfig::default())
    }

    /// This knob's current value in `cfg`, rendered.
    pub fn value_of(&self, cfg: &CloudConfig) -> String {
        (self.get)(cfg)
    }

    /// Parses `value` and stores it in `cfg`.
    ///
    /// # Errors
    ///
    /// A message naming the knob on unparsable values.
    pub fn apply_to(&self, cfg: &mut CloudConfig, value: &str) -> Result<(), String> {
        (self.set)(cfg, value)
    }
}

impl std::fmt::Debug for KnobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnobSpec")
            .field("key", &self.key)
            .field("ty", &self.ty)
            .field("doc", &self.doc)
            .finish()
    }
}

fn parse_knob<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("bad value {value:?} for config knob {key:?}"))
}

/// Passes `parsed` through when `ok` holds for it; otherwise names the
/// knob, its domain and the rejected value. Knobs whose constructors
/// assert on a value (replica count, timeslice, speed and clock
/// parameters) check it here, so a bad value fails sweep validation
/// instead of panicking a scenario.
fn in_domain<T>(
    key: &str,
    value: &str,
    domain: &str,
    parsed: T,
    ok: fn(&T) -> bool,
) -> Result<T, String> {
    if ok(&parsed) {
        Ok(parsed)
    } else {
        Err(format!(
            "config knob {key:?} must be {domain}, got {value:?}"
        ))
    }
}

fn parse_knob_pair(key: &str, value: &str) -> Result<(f64, f64), String> {
    let (a, b) = value
        .split_once(':')
        .ok_or_else(|| format!("config knob {key:?} wants \"lo:hi\" or \"off\", got {value:?}"))?;
    Ok((parse_knob::<f64>(key, a)?, parse_knob::<f64>(key, b)?))
}

/// Renders nanoseconds as milliseconds, integral where exact.
fn fmt_ns_as_ms(ns: u64) -> String {
    if ns.is_multiple_of(1_000_000) {
        (ns / 1_000_000).to_string()
    } else {
        format!("{}", ns as f64 / 1.0e6)
    }
}

/// The knob schema. `CloudConfig::apply` walks this table; adding a knob
/// is adding a row (the `schema_walk_is_complete` test keeps the table
/// honest against the struct).
static KNOBS: &[KnobSpec] = &[
    KnobSpec {
        key: "seed",
        ty: ValueType::Int,
        doc: "master seed; everything stochastic derives from it",
        get: |c| c.seed.to_string(),
        set: |c, v| {
            c.seed = parse_knob("seed", v)?;
            Ok(())
        },
    },
    KnobSpec {
        key: "defense",
        ty: ValueType::Enum(DEFENSE_ARMS),
        doc: "defense arm guarding the timing channels (see the describe defenses section)",
        get: |c| c.defense.clone(),
        set: |c, v| {
            if vmm::defense::arm(v).is_none() {
                return Err(schema::unknown_key("defense arm", v, DEFENSE_ARMS));
            }
            c.defense = v.to_string();
            Ok(())
        },
    },
    KnobSpec {
        key: "replicas",
        ty: ValueType::Int,
        doc: "replicas per StopWatch guest (odd, >= 3)",
        get: |c| c.replicas.to_string(),
        set: |c, v| {
            let n: usize = parse_knob("replicas", v)?;
            c.replicas = in_domain("replicas", v, "odd and >= 3", n, |&n| n >= 3 && n % 2 == 1)?;
            Ok(())
        },
    },
    KnobSpec {
        key: "delta_n_ms",
        ty: ValueType::OffsetMs,
        doc: "Δn: virtual-time offset for network-interrupt proposals, ms",
        get: |c| fmt_ns_as_ms(c.delta_n.as_nanos()),
        set: |c, v| {
            c.delta_n = VirtOffset::from_millis(parse_knob("delta_n_ms", v)?);
            Ok(())
        },
    },
    KnobSpec {
        key: "delta_d_ms",
        ty: ValueType::OffsetMs,
        doc: "Δd: virtual-time offset for disk/DMA completions, ms",
        get: |c| fmt_ns_as_ms(c.delta_d.as_nanos()),
        set: |c, v| {
            c.delta_d = VirtOffset::from_millis(parse_knob("delta_d_ms", v)?);
            Ok(())
        },
    },
    KnobSpec {
        key: "delta_t_ms",
        ty: ValueType::OffsetMs,
        doc: "Δt: virtual-time offset for guest virtual-timer fires, ms",
        get: |c| fmt_ns_as_ms(c.delta_t.as_nanos()),
        set: |c, v| {
            c.delta_t = VirtOffset::from_millis(parse_knob("delta_t_ms", v)?);
            Ok(())
        },
    },
    KnobSpec {
        key: "epoch_ms",
        ty: ValueType::OffsetMs,
        doc: "deterland arm: deterministic release-epoch length, ms",
        get: |c| fmt_ns_as_ms(c.epoch.as_nanos()),
        set: |c, v| {
            c.epoch = VirtOffset::from_millis(parse_knob("epoch_ms", v)?);
            Ok(())
        },
    },
    KnobSpec {
        key: "bucket_ns",
        ty: ValueType::Int,
        doc: "bucketed arm: quantization level width, virtual ns",
        get: |c| c.bucket.as_nanos().to_string(),
        set: |c, v| {
            c.bucket = VirtOffset::from_nanos(parse_knob("bucket_ns", v)?);
            Ok(())
        },
    },
    KnobSpec {
        key: "buckets",
        ty: ValueType::Int,
        doc: "bucketed arm: distinguishable levels before the lag cap",
        get: |c| c.buckets.to_string(),
        set: |c, v| {
            c.buckets = parse_knob("buckets", v)?;
            Ok(())
        },
    },
    KnobSpec {
        key: "timeslice_ms",
        ty: ValueType::OffsetMs,
        doc: "vCPU scheduler timeslice (run-queue quantum), ms",
        get: |c| fmt_ns_as_ms(c.timeslice.as_nanos()),
        set: |c, v| {
            let ms: u64 = parse_knob("timeslice_ms", v)?;
            c.timeslice =
                VirtOffset::from_millis(in_domain("timeslice_ms", v, "> 0", ms, |&ms| ms > 0)?);
            Ok(())
        },
    },
    KnobSpec {
        key: "exit_every",
        ty: ValueType::Int,
        doc: "branches between guest-caused VM exits",
        get: |c| c.exit_every.to_string(),
        set: |c, v| {
            let n: u64 = parse_knob("exit_every", v)?;
            c.exit_every = in_domain("exit_every", v, "> 0", n, |&n| n > 0)?;
            Ok(())
        },
    },
    KnobSpec {
        key: "base_ips",
        ty: ValueType::Float,
        doc: "host base speed, branches per second",
        get: |c| format!("{}", c.base_ips),
        set: |c, v| {
            let ips: f64 = parse_knob("base_ips", v)?;
            c.base_ips = in_domain("base_ips", v, "> 0", ips, |&ips| ips > 0.0)?;
            Ok(())
        },
    },
    KnobSpec {
        key: "ips_jitter",
        ty: ValueType::Float,
        doc: "host speed jitter fraction (uniform, per speed epoch)",
        get: |c| format!("{}", c.ips_jitter),
        set: |c, v| {
            let f: f64 = parse_knob("ips_jitter", v)?;
            c.ips_jitter = in_domain("ips_jitter", v, "in [0, 1)", f, |f| (0.0..1.0).contains(f))?;
            Ok(())
        },
    },
    KnobSpec {
        key: "speed_epoch_ms",
        ty: ValueType::DurationMs,
        doc: "speed-jitter epoch length, ms",
        get: |c| fmt_ns_as_ms(c.speed_epoch.as_nanos()),
        set: |c, v| {
            let ms: u64 = parse_knob("speed_epoch_ms", v)?;
            c.speed_epoch =
                SimDuration::from_millis(in_domain("speed_epoch_ms", v, "> 0", ms, |&ms| ms > 0)?);
            Ok(())
        },
    },
    KnobSpec {
        key: "slope",
        ty: ValueType::Float,
        doc: "virtual nanoseconds per branch (initial clock slope)",
        get: |c| format!("{}", c.slope),
        set: |c, v| {
            let slope: f64 = parse_knob("slope", v)?;
            let ok = |&s: &f64| s > 0.0 && s.is_finite();
            c.slope = in_domain("slope", v, "> 0 and finite", slope, ok)?;
            Ok(())
        },
    },
    KnobSpec {
        key: "disk",
        ty: ValueType::Enum(&["rotating", "ssd"]),
        doc: "disk medium backing the hosts",
        get: |c| {
            match c.disk {
                DiskKind::Rotating => "rotating",
                DiskKind::Ssd => "ssd",
            }
            .to_string()
        },
        set: |c, v| {
            c.disk = match v {
                "rotating" => DiskKind::Rotating,
                "ssd" => DiskKind::Ssd,
                other => return Err(format!("unknown disk kind {other:?} (have: rotating, ssd)")),
            };
            Ok(())
        },
    },
    KnobSpec {
        key: "pacing",
        ty: ValueType::PairOrOff,
        doc: "fastest-replica pacing, \"heartbeat_ms:max_gap_ms\" or \"off\"",
        get: |c| match &c.pacing {
            None => "off".to_string(),
            Some(p) => format!(
                "{}:{}",
                p.heartbeat.as_nanos() as f64 / 1.0e6,
                p.max_gap_ns as f64 / 1.0e6
            ),
        },
        set: |c, v| {
            c.pacing = if v == "off" {
                None
            } else {
                let (hb, gap) = parse_knob_pair("pacing", v)?;
                Some(PacingConfig {
                    heartbeat: SimDuration::from_millis_f64(hb),
                    max_gap_ns: (gap * 1e6) as u64,
                })
            };
            Ok(())
        },
    },
    KnobSpec {
        key: "broadcast_band",
        ty: ValueType::PairOrOff,
        doc: "background broadcast band, \"lo:hi\" packets/second or \"off\"",
        get: |c| match c.broadcast_band {
            None => "off".to_string(),
            Some((lo, hi)) => format!("{lo}:{hi}"),
        },
        set: |c, v| {
            c.broadcast_band = if v == "off" {
                None
            } else {
                let band = parse_knob_pair("broadcast_band", v)?;
                let domain = "\"off\" or lo:hi with 0 < lo <= hi";
                let ok = |&(lo, hi): &(f64, f64)| 0.0 < lo && lo <= hi;
                Some(in_domain("broadcast_band", v, domain, band, ok)?)
            };
            Ok(())
        },
    },
    KnobSpec {
        key: "client_tick_ms",
        ty: ValueType::DurationMs,
        doc: "client protocol-timer period (RTO / NAK checks), ms",
        get: |c| fmt_ns_as_ms(c.client_tick.as_nanos()),
        set: |c, v| {
            c.client_tick = SimDuration::from_millis(parse_knob("client_tick_ms", v)?);
            Ok(())
        },
    },
    KnobSpec {
        key: "image_blocks",
        ty: ValueType::Int,
        doc: "guest disk image size in blocks",
        get: |c| c.image_blocks.to_string(),
        set: |c, v| {
            c.image_blocks = parse_knob("image_blocks", v)?;
            Ok(())
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = CloudConfig::default();
        assert_eq!(c.defense, "stopwatch");
        assert_eq!(c.replicas, 3);
        assert_eq!(c.platform_clocks.pit_hz, 250);
        // Δn in the paper translated to ~7–12 ms; Δd to ~8–15 ms.
        let dn = c.delta_n.as_millis_f64();
        let dd = c.delta_d.as_millis_f64();
        assert!((7.0..=12.0).contains(&dn), "Δn = {dn}");
        assert!((8.0..=15.0).contains(&dd), "Δd = {dd}");
        assert!(c.broadcast_band.is_some());
    }

    #[test]
    fn fast_test_disables_noise() {
        let c = CloudConfig::fast_test();
        assert!(c.broadcast_band.is_none());
        assert_eq!(c.disk, DiskKind::Ssd);
    }

    #[test]
    fn apply_overrides_every_documented_key() {
        let mut c = CloudConfig::default();
        c.apply_all([
            ("seed", "9"),
            ("defense", "deterland"),
            ("replicas", "5"),
            ("delta_n_ms", "4"),
            ("delta_d_ms", "6"),
            ("delta_t_ms", "8"),
            ("epoch_ms", "3"),
            ("bucket_ns", "250000"),
            ("buckets", "8"),
            ("timeslice_ms", "1"),
            ("exit_every", "10000"),
            ("base_ips", "2e9"),
            ("ips_jitter", "0.05"),
            ("speed_epoch_ms", "5"),
            ("slope", "1.5"),
            ("disk", "ssd"),
            ("pacing", "1:2"),
            ("broadcast_band", "10:20"),
            ("client_tick_ms", "7"),
            ("image_blocks", "1024"),
        ])
        .unwrap();
        assert_eq!(c.seed, 9);
        assert_eq!(c.defense, "deterland");
        assert_eq!(c.replicas, 5);
        assert_eq!(c.delta_n.as_millis_f64(), 4.0);
        assert_eq!(c.delta_d.as_millis_f64(), 6.0);
        assert_eq!(c.delta_t.as_millis_f64(), 8.0);
        assert_eq!(c.epoch.as_millis_f64(), 3.0);
        assert_eq!(c.bucket.as_nanos(), 250_000);
        assert_eq!(c.buckets, 8);
        assert_eq!(c.timeslice.as_millis_f64(), 1.0);
        assert_eq!(c.exit_every, 10_000);
        assert_eq!(c.base_ips, 2e9);
        assert_eq!(c.ips_jitter, 0.05);
        assert_eq!(c.speed_epoch, SimDuration::from_millis(5));
        assert_eq!(c.slope, 1.5);
        assert_eq!(c.disk, DiskKind::Ssd);
        let pacing = c.pacing.unwrap();
        assert_eq!(pacing.heartbeat, SimDuration::from_millis(1));
        assert_eq!(pacing.max_gap_ns, 2_000_000);
        assert_eq!(c.broadcast_band, Some((10.0, 20.0)));
        assert_eq!(c.client_tick, SimDuration::from_millis(7));
        assert_eq!(c.image_blocks, 1024);
    }

    #[test]
    fn apply_off_values_and_errors() {
        let mut c = CloudConfig::default();
        c.apply("pacing", "off").unwrap();
        assert!(c.pacing.is_none());
        c.apply("broadcast_band", "off").unwrap();
        assert!(c.broadcast_band.is_none());
        assert!(c.apply("unknown", "1").is_err());
        assert!(c.apply("seed", "not-a-number").is_err());
        assert!(c.apply("disk", "floppy").is_err());
        assert!(c.apply("broadcast_band", "10").is_err());
        assert!(c.apply("defense", "qubes").is_err());
    }

    #[test]
    fn knob_domains_reject_what_the_constructors_assert_on() {
        // (knob, out-of-domain value, in-domain neighbour). Each bad value
        // would trip an assert in `GuestSlot`, `VcpuScheduler`,
        // `SpeedProfile`, `VirtualClock` or `BroadcastSource` if it
        // reached a cloud.
        for (key, bad, good) in [
            ("replicas", "2", "3"),
            ("replicas", "4", "5"),
            ("exit_every", "0", "1"),
            ("timeslice_ms", "0", "1"),
            ("base_ips", "0", "1"),
            ("ips_jitter", "5", "0.99"),
            ("ips_jitter", "-1", "0"),
            ("speed_epoch_ms", "0", "1"),
            ("slope", "0", "0.5"),
            ("slope", "-1", "1"),
            ("broadcast_band", "0:0", "1:1"),
            ("broadcast_band", "5:1", "1:5"),
        ] {
            let mut c = CloudConfig::default();
            let err = c.apply(key, bad).expect_err(bad);
            assert!(err.contains(key) && err.contains("must be"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            c.apply(key, good)
                .unwrap_or_else(|e| panic!("{key}={good} is in domain: {e}"));
        }
    }

    #[test]
    fn defense_knob_matches_the_registry() {
        // The static enum list the knob schema exposes must track the
        // vmm::defense registry exactly.
        assert_eq!(DEFENSE_ARMS, vmm::defense::arm_names().as_slice());
        // Every arm's declared knob keys exist in the config schema, so
        // `swbench describe` can cross-link them.
        for a in vmm::defense::ARMS {
            for key in a.knobs() {
                assert!(
                    CloudConfig::knob(key).is_some(),
                    "arm {:?} reads unknown knob {key:?}",
                    a.name()
                );
            }
        }
    }

    #[test]
    fn unknown_defense_arm_gets_a_did_you_mean() {
        let mut c = CloudConfig::default();
        let err = c.apply("defense", "bucketd").unwrap_err();
        assert!(err.contains("defense arm"), "{err}");
        assert!(err.contains("did you mean \"bucketed\""), "{err}");
    }

    #[test]
    fn defense_mode_lowers_through_the_registry() {
        use vmm::defense::ReleaseRule;
        use vmm::slot::DefenseMode;

        let mut c = CloudConfig::default();
        assert_eq!(c.defense_arm().name(), "stopwatch");
        assert!(c.defense_arm().replicated());
        assert_eq!(
            c.defense_mode(),
            DefenseMode::stop_watch(c.delta_n, c.delta_d, c.delta_t, c.replicas)
        );
        c.apply("defense", "baseline").unwrap();
        assert_eq!(c.defense_mode(), DefenseMode::baseline());
        c.apply_all([("defense", "deterland"), ("epoch_ms", "7")])
            .unwrap();
        assert_eq!(
            c.defense_mode(),
            DefenseMode::Local {
                release: ReleaseRule::EpochBoundary {
                    epoch: VirtOffset::from_millis(7)
                }
            }
        );
        c.apply_all([
            ("defense", "bucketed"),
            ("bucket_ns", "1000"),
            ("buckets", "6"),
        ])
        .unwrap();
        assert_eq!(
            c.defense_mode(),
            DefenseMode::Local {
                release: ReleaseRule::Quantize {
                    bucket: VirtOffset::from_nanos(1000),
                    buckets: 6
                }
            }
        );
    }

    #[test]
    fn unknown_knob_suggests_nearest_key() {
        let mut c = CloudConfig::default();
        let err = c.apply("delta_q_ms", "1").unwrap_err();
        assert!(err.contains("config knob"), "{err}");
        assert!(err.contains("\"delta_q_ms\""), "{err}");
        assert!(err.contains("did you mean \"delta_n_ms\""), "{err}");
        let err = c.apply("replcas", "3").unwrap_err();
        assert!(err.contains("did you mean \"replicas\""), "{err}");
    }

    #[test]
    fn schema_defaults_render_and_round_trip() {
        // Every knob's rendered default, applied back to a default config,
        // must be a no-op — the schema's getters and setters agree.
        let reference = CloudConfig::default().resolved();
        for spec in CloudConfig::knobs() {
            let mut c = CloudConfig::default();
            let default = spec.default_value();
            spec.ty
                .check(&default)
                .unwrap_or_else(|e| panic!("default of {:?} fails its own type: {e}", spec.key));
            c.apply(spec.key, &default)
                .unwrap_or_else(|e| panic!("default of {:?} does not re-apply: {e}", spec.key));
            assert_eq!(c.resolved(), reference, "knob {:?} round-trip", spec.key);
            assert!(
                !spec.doc.is_empty(),
                "knob {:?} lacks a doc string",
                spec.key
            );
        }
    }

    #[test]
    fn resolved_covers_every_knob_and_tracks_overrides() {
        let mut c = CloudConfig::default();
        c.apply_all([("delta_n_ms", "4"), ("disk", "ssd"), ("pacing", "off")])
            .unwrap();
        let resolved = c.resolved();
        assert_eq!(resolved.len(), CloudConfig::knobs().len());
        let get = |k: &str| {
            resolved
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("delta_n_ms"), "4");
        assert_eq!(get("disk"), "ssd");
        assert_eq!(get("pacing"), "off");
        assert_eq!(get("broadcast_band"), "50:100");
    }
}
