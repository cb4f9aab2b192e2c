//! Pluggable defense arms: StopWatch as *one mitigation among several*.
//!
//! Every timing defense this platform evaluates answers the same
//! question — **when is a pending channel event's delivery timestamp
//! fixed?** — over the same machinery: the unified pending table and
//! injection path of [`crate::slot::GuestSlot`]. The arms differ only in
//! the release schedule:
//!
//! * **stopwatch** — the paper's replica-median agreement: 3 (or 5)
//!   replicas exchange per-channel Δ-offset proposals over PGM and every
//!   replica adopts the median ([`DefenseMode::StopWatch`]).
//! * **baseline** — unmodified Xen: events deliver at the locally
//!   observed time ([`ReleaseRule::Identity`]).
//! * **deterland** — Deterland-style deterministic time-slicing (Wu &
//!   Ford): a single host releases every event at the *next* virtual
//!   epoch boundary, so observable timing carries `epoch`-granular
//!   information only ([`ReleaseRule::EpochBoundary`]).
//! * **bucketed** — Tizpaz-Niari-style quantitative mitigation: the lag
//!   between an event's reference instant (issue time, programmed
//!   deadline) and its local completion is quantized up into one of
//!   `buckets` fixed levels of width `bucket`
//!   ([`ReleaseRule::Quantize`]).
//!
//! The non-StopWatch arms are **single-host** defenses: they transform
//! the local delivery time instead of replicating the guest, so their
//! mitigation (or leak) is attributable to the release schedule itself,
//! never to an accidental median over replicas.
//!
//! # Registering a new arm
//!
//! Add a [`DefenseArm`] row to [`ARMS`] (alphabetical): its name, a
//! one-line description, the `CloudConfig` knob keys it reads, and the
//! lowering to a [`DefenseMode`]. The lowered mode is the only record of
//! what an arm does: a `StopWatch` mode replicates the guest, a `Local`
//! one runs it on one host. The config layer (`cfg.defense`) and the
//! sweep validator resolve arm names through [`arm`]/[`arm_names`], so a
//! registered arm is immediately sweepable and shows up in `swbench
//! describe`.

use crate::channel::ChannelKind;
use simkit::time::{VirtNanos, VirtOffset};

/// Defense configuration of one guest slot — the hot-path form every
/// [`DefenseArm`] lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseMode {
    /// StopWatch: replica-median agreement on every timing channel, each
    /// replica proposing its channel's offset past the event's anchor
    /// (see [`DefenseMode::offset`]); guest outputs tunneled to the
    /// egress.
    StopWatch {
        /// Network delivery offset Δn.
        delta_n: VirtOffset,
        /// Disk release offset Δd.
        delta_d: VirtOffset,
        /// Timer release offset Δt (from the programmed deadline).
        delta_t: VirtOffset,
        /// Number of replicas (3 in the paper; 5 discussed in Sec. IX).
        replicas: usize,
    },
    /// A single-host arm: events deliver at a locally decided time,
    /// transformed by the arm's [`ReleaseRule`] (identity for baseline).
    Local {
        /// How the locally observed delivery time is reshaped.
        release: ReleaseRule,
    },
}

impl DefenseMode {
    /// Unmodified Xen: interrupts delivered at the earliest exit, outputs
    /// sent directly.
    pub fn baseline() -> Self {
        DefenseMode::Local {
            release: ReleaseRule::Identity,
        }
    }

    /// The StopWatch proposal offset of `kind`'s events: Δn, Δd or Δt,
    /// and zero for cache probes, whose proposal *is* the locally
    /// measured completion time. `None` under a local arm, which proposes
    /// nothing.
    pub fn offset(&self, kind: ChannelKind) -> Option<VirtOffset> {
        let DefenseMode::StopWatch {
            delta_n,
            delta_d,
            delta_t,
            ..
        } = *self
        else {
            return None;
        };
        Some(match kind {
            ChannelKind::Net => delta_n,
            ChannelKind::Cache => VirtOffset::ZERO,
            ChannelKind::Disk => delta_d,
            ChannelKind::Timer => delta_t,
        })
    }
}

/// How a single-host arm reshapes a pending event's locally observed
/// delivery time. `local` is the time the event would deliver at under
/// baseline; `reference` is the event's replica-identical anchor where
/// one exists (a cache probe's issue instant, a disk op's issue instant,
/// a timer's programmed deadline — `None` for externally arriving
/// network packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseRule {
    /// Baseline: deliver at the locally observed time.
    Identity,
    /// Deterland: deliver at the *strictly next* multiple of `epoch`.
    /// Strictly-next matters: reference instants routinely sit exactly on
    /// the virtual grid (timer deadlines, exit-aligned issues), and an
    /// at-or-after rounding would release on-time events at lag 0 while
    /// delayed ones slip a full epoch — re-opening the channel the epoch
    /// exists to close.
    EpochBoundary {
        /// The deterministic slice length.
        epoch: VirtOffset,
    },
    /// Tizpaz-Niari: quantize the lag past `reference` up to one of
    /// `buckets` levels of width `bucket` (minimum one level — a
    /// completion is never instantaneous); without a reference, round
    /// the absolute time up to the bucket grid.
    Quantize {
        /// Width of one quantization level.
        bucket: VirtOffset,
        /// Number of distinguishable levels before the cap.
        buckets: u64,
    },
}

impl ReleaseRule {
    /// The transformed delivery time.
    pub fn apply(self, local: VirtNanos, reference: Option<VirtNanos>) -> VirtNanos {
        match self {
            ReleaseRule::Identity => local,
            ReleaseRule::EpochBoundary { epoch } => {
                let e = epoch.as_nanos().max(1);
                let t = local.as_nanos();
                VirtNanos::from_nanos((t / e + 1).saturating_mul(e))
            }
            ReleaseRule::Quantize { bucket, buckets } => {
                let b = bucket.as_nanos().max(1);
                match reference {
                    Some(r) => {
                        let lag = local.as_nanos().saturating_sub(r.as_nanos());
                        let level = lag.div_ceil(b).clamp(1, buckets.max(1));
                        VirtNanos::from_nanos(r.as_nanos().saturating_add(level * b))
                    }
                    None => {
                        let t = local.as_nanos().max(1);
                        VirtNanos::from_nanos(t.div_ceil(b).saturating_mul(b))
                    }
                }
            }
        }
    }
}

/// The knob values a [`DefenseArm`] may read when lowering to a
/// [`DefenseMode`]. Built by the config layer from `CloudConfig` (this
/// crate cannot see that type); every field maps 1:1 to a config knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseKnobs {
    /// Network delivery offset Δn (`delta_n_ms`).
    pub delta_n: VirtOffset,
    /// Disk release offset Δd (`delta_d_ms`).
    pub delta_d: VirtOffset,
    /// Timer release offset Δt (`delta_t_ms`).
    pub delta_t: VirtOffset,
    /// Replica count for replicated arms (`replicas`).
    pub replicas: usize,
    /// Deterland slice length (`epoch_ms`).
    pub epoch: VirtOffset,
    /// Quantization level width (`bucket_ns`).
    pub bucket: VirtOffset,
    /// Quantization level count (`buckets`).
    pub buckets: u64,
}

/// One pluggable defense arm: a name the config layer keys on, the
/// subset of knobs it reads, and the lowering to the slot's hot-path
/// [`DefenseMode`].
#[derive(Debug)]
pub struct DefenseArm {
    /// The registry key (`cfg.defense` value).
    pub name: &'static str,
    /// One-line description for `swbench describe`.
    pub about: &'static str,
    /// The `CloudConfig` knob keys this arm reads (documented there).
    pub knobs: &'static [&'static str],
    lower: fn(&DefenseKnobs) -> DefenseMode,
}

impl DefenseArm {
    /// Lowers the arm to the slot's defense mode.
    pub fn mode(&self, knobs: &DefenseKnobs) -> DefenseMode {
        (self.lower)(knobs)
    }
}

/// Every registered arm, alphabetical by name (registry iteration order
/// is presentation order in `swbench describe`).
pub const ARMS: &[DefenseArm] = &[
    DefenseArm {
        name: "baseline",
        about: "unmodified Xen: events deliver at locally observed times",
        knobs: &[],
        lower: |_| DefenseMode::baseline(),
    },
    DefenseArm {
        name: "bucketed",
        about: "quantitative mitigation: event lag quantized up to fixed buckets",
        knobs: &["bucket_ns", "buckets"],
        lower: |k| DefenseMode::Local {
            release: ReleaseRule::Quantize {
                bucket: k.bucket,
                buckets: k.buckets,
            },
        },
    },
    DefenseArm {
        name: "deterland",
        about: "deterministic time-slicing: events release at the next epoch boundary",
        knobs: &["epoch_ms"],
        lower: |k| DefenseMode::Local {
            release: ReleaseRule::EpochBoundary { epoch: k.epoch },
        },
    },
    DefenseArm {
        name: "stopwatch",
        about: "replica-median agreement on every channel's delivery time",
        knobs: &["delta_n_ms", "delta_d_ms", "delta_t_ms", "replicas"],
        lower: |k| DefenseMode::StopWatch {
            delta_n: k.delta_n,
            delta_d: k.delta_d,
            delta_t: k.delta_t,
            replicas: k.replicas,
        },
    },
];

/// Every registered arm name, in [`ARMS`] order.
const ARM_NAMES: [&str; ARMS.len()] = {
    let mut names = [""; ARMS.len()];
    let mut i = 0;
    while i < ARMS.len() {
        names[i] = ARMS[i].name;
        i += 1;
    }
    names
};

/// Looks up an arm by registry key.
pub fn arm(name: &str) -> Option<&'static DefenseArm> {
    ARMS.iter().find(|a| a.name == name)
}

/// Every registered arm name, alphabetical (the `defense` knob's enum
/// options).
pub const fn arm_names() -> &'static [&'static str] {
    &ARM_NAMES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs() -> DefenseKnobs {
        DefenseKnobs {
            delta_n: VirtOffset::from_millis(10),
            delta_d: VirtOffset::from_millis(12),
            delta_t: VirtOffset::from_millis(8),
            replicas: 3,
            epoch: VirtOffset::from_millis(5),
            bucket: VirtOffset::from_nanos(5_000_000),
            buckets: 4,
        }
    }

    #[test]
    fn registry_is_alphabetical_and_resolvable() {
        let names = arm_names();
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "ARMS must stay alphabetical");
        assert_eq!(names, ["baseline", "bucketed", "deterland", "stopwatch"]);
        for &n in names {
            assert_eq!(arm(n).expect("registered").name, n);
        }
        assert!(arm("xen").is_none());
    }

    #[test]
    fn only_stopwatch_replicates() {
        // Replication is read off the lowered mode: only StopWatch's
        // agrees across replicas.
        for a in ARMS {
            let replicated = matches!(a.mode(&knobs()), DefenseMode::StopWatch { .. });
            assert_eq!(replicated, a.name == "stopwatch", "{}", a.name);
        }
    }

    #[test]
    fn arms_lower_to_their_modes() {
        let k = knobs();
        assert_eq!(arm("baseline").unwrap().mode(&k), DefenseMode::baseline());
        assert_eq!(
            arm("stopwatch").unwrap().mode(&k),
            DefenseMode::StopWatch {
                delta_n: k.delta_n,
                delta_d: k.delta_d,
                delta_t: k.delta_t,
                replicas: 3
            }
        );
        assert_eq!(
            arm("deterland").unwrap().mode(&k),
            DefenseMode::Local {
                release: ReleaseRule::EpochBoundary { epoch: k.epoch }
            }
        );
        assert_eq!(
            arm("bucketed").unwrap().mode(&k),
            DefenseMode::Local {
                release: ReleaseRule::Quantize {
                    bucket: k.bucket,
                    buckets: 4
                }
            }
        );
    }

    #[test]
    fn arm_knob_lists_are_nonempty_except_baseline() {
        for a in ARMS {
            if a.name == "baseline" {
                assert!(a.knobs.is_empty());
            } else {
                assert!(!a.knobs.is_empty(), "{} must document its knobs", a.name);
            }
        }
    }

    #[test]
    fn identity_is_a_pass_through() {
        let t = VirtNanos::from_nanos(123_456_789);
        assert_eq!(ReleaseRule::Identity.apply(t, None), t);
        assert_eq!(
            ReleaseRule::Identity.apply(t, Some(VirtNanos::from_nanos(5))),
            t
        );
    }

    #[test]
    fn epoch_boundary_is_strictly_next() {
        let r = ReleaseRule::EpochBoundary {
            epoch: VirtOffset::from_millis(5),
        };
        let ms = VirtNanos::from_millis;
        // Mid-epoch rounds up.
        assert_eq!(r.apply(VirtNanos::from_nanos(7_200_000), None), ms(10));
        // Exactly on a boundary still releases at the NEXT one: an
        // on-time event and one delayed by less than an epoch become
        // indistinguishable (both land on the same boundary).
        assert_eq!(r.apply(ms(10), None), ms(15));
        assert_eq!(r.apply(VirtNanos::from_nanos(10_000_001), None), ms(15));
        assert_eq!(r.apply(VirtNanos::ZERO, None), ms(5));
    }

    #[test]
    fn epoch_boundary_hides_sub_epoch_delays() {
        // The flip the shootout pins: a clean fire at its deadline and a
        // victim-delayed fire 2ms later release at the same boundary.
        let r = ReleaseRule::EpochBoundary {
            epoch: VirtOffset::from_millis(5),
        };
        let deadline = VirtNanos::from_millis(70);
        let delayed = deadline + VirtOffset::from_millis(2);
        assert_eq!(
            r.apply(deadline, Some(deadline)),
            r.apply(delayed, Some(deadline))
        );
    }

    #[test]
    fn quantize_lag_clamps_to_the_bucket_cap() {
        let r = ReleaseRule::Quantize {
            bucket: VirtOffset::from_millis(5),
            buckets: 4,
        };
        let base = VirtNanos::from_millis(100);
        let at = |lag_ms: u64| r.apply(base + VirtOffset::from_millis(lag_ms), Some(base));
        // Zero lag still occupies the first level (a completion is never
        // instantaneous), so on-time and sub-bucket-late agree.
        assert_eq!(at(0), VirtNanos::from_millis(105));
        assert_eq!(at(2), VirtNanos::from_millis(105));
        assert_eq!(at(5), VirtNanos::from_millis(105));
        assert_eq!(at(6), VirtNanos::from_millis(110));
        // The cap: every lag past buckets*bucket reads the top level.
        assert_eq!(at(19), VirtNanos::from_millis(120));
        assert_eq!(at(500), VirtNanos::from_millis(120));
    }

    #[test]
    fn quantize_without_reference_rounds_up_to_the_grid() {
        let r = ReleaseRule::Quantize {
            bucket: VirtOffset::from_millis(5),
            buckets: 4,
        };
        assert_eq!(
            r.apply(VirtNanos::from_nanos(7_000_001), None),
            VirtNanos::from_millis(10)
        );
        // On-grid stays (the absolute-time form is a grid, not a lag).
        assert_eq!(
            r.apply(VirtNanos::from_millis(10), None),
            VirtNanos::from_millis(10)
        );
        assert_eq!(r.apply(VirtNanos::ZERO, None), VirtNanos::from_millis(5));
    }

    #[test]
    fn degenerate_knobs_do_not_divide_by_zero() {
        let e = ReleaseRule::EpochBoundary {
            epoch: VirtOffset::ZERO,
        };
        assert_eq!(
            e.apply(VirtNanos::from_nanos(7), None),
            VirtNanos::from_nanos(8)
        );
        let q = ReleaseRule::Quantize {
            bucket: VirtOffset::ZERO,
            buckets: 0,
        };
        let base = VirtNanos::from_nanos(100);
        assert_eq!(
            q.apply(base + VirtOffset::from_nanos(9), Some(base)),
            base + VirtOffset::from_nanos(1)
        );
    }
}
