//! Virtual time (paper Sec. IV): `virt(instr) = slope × instr + start`.
//!
//! The guest's every real-time clock source reads a deterministic function
//! of its executed instruction count (here, like the prototype, its
//! *branch* count). `start` is seeded from the median of the replica
//! hosts' clocks at boot; `slope` from the machines' tick rate. Both stay
//! fixed for the whole run: the paper's epoch re-anchoring (Sec. IV-A),
//! where the VMMs exchange per-epoch durations and real times and refit
//! `start` and `slope` to their medians, is not modelled.

use simkit::time::VirtNanos;

/// The per-guest virtual clock.
///
/// # Examples
///
/// ```
/// use vmm::clock::VirtualClock;
/// use simkit::time::VirtNanos;
/// let c = VirtualClock::new(VirtNanos::from_nanos(1_000), 2.0);
/// assert_eq!(c.virt(0), VirtNanos::from_nanos(1_000));
/// assert_eq!(c.virt(500), VirtNanos::from_nanos(2_000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualClock {
    /// Virtual time at branch 0.
    start: VirtNanos,
    /// Virtual nanoseconds per branch.
    slope: f64,
}

impl VirtualClock {
    /// Creates a clock with the given start (median of host boot clocks)
    /// and slope (ns of virtual time per branch).
    ///
    /// # Panics
    ///
    /// Panics unless `slope` is positive and finite.
    pub fn new(start: VirtNanos, slope: f64) -> Self {
        assert!(slope > 0.0 && slope.is_finite(), "slope must be positive");
        VirtualClock { start, slope }
    }

    /// Virtual time after `instr` total branches.
    pub fn virt(&self, instr: u64) -> VirtNanos {
        let delta = instr as f64 * self.slope;
        VirtNanos::from_nanos(self.start.as_nanos() + delta as u64)
    }

    /// Smallest branch count at which virtual time reaches `target`
    /// (saturating at 0 for past targets).
    pub fn instr_for(&self, target: VirtNanos) -> u64 {
        if target <= self.start {
            return 0;
        }
        let delta_ns = (target.as_nanos() - self.start.as_nanos()) as f64;
        (delta_ns / self.slope).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mapping() {
        let c = VirtualClock::new(VirtNanos::from_nanos(100), 0.5);
        assert_eq!(c.virt(0).as_nanos(), 100);
        assert_eq!(c.virt(200).as_nanos(), 200);
        assert_eq!(c.virt(1000).as_nanos(), 600);
    }

    #[test]
    fn inverse_roundtrip() {
        let c = VirtualClock::new(VirtNanos::from_nanos(7), 1.7);
        for &target_ns in &[8u64, 100, 5_000, 1_000_000] {
            let target = VirtNanos::from_nanos(target_ns);
            let instr = c.instr_for(target);
            assert!(c.virt(instr) >= target, "virt({instr}) < {target_ns}");
            if instr > 0 {
                assert!(c.virt(instr - 1) < target, "not minimal");
            }
        }
    }

    #[test]
    fn instr_for_past_target_saturates() {
        let c = VirtualClock::new(VirtNanos::from_nanos(1000), 1.0);
        assert_eq!(c.instr_for(VirtNanos::from_nanos(10)), 0);
    }

    #[test]
    fn monotone_in_instr() {
        let c = VirtualClock::new(VirtNanos::ZERO, 0.33);
        let mut prev = VirtNanos::ZERO;
        for i in (0..10_000).step_by(97) {
            let v = c.virt(i);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "slope must be positive")]
    fn zero_slope_panics() {
        VirtualClock::new(VirtNanos::ZERO, 0.0);
    }
}
