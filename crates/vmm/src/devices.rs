//! Emulated platform clock devices (paper Sec. IV-B).
//!
//! StopWatch intervenes on every real-time source an HVM guest can read:
//! the PIT timer interrupt stream and countdown counter, `rdtsc`, and the
//! CMOS RTC. All of them are derived here from one instant — the guest's
//! virtual time under StopWatch, or (approximately) real time under
//! unmodified Xen.

use simkit::time::VirtNanos;

/// The emulated clock devices for one guest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformClocks {
    /// PIT programmed rate (the paper's guests used 250 Hz).
    pub pit_hz: u32,
    /// TSC increments per nanosecond (3.0 for the testbed's 3 GHz parts).
    pub tsc_per_ns: f64,
}

impl Default for PlatformClocks {
    fn default() -> Self {
        PlatformClocks {
            pit_hz: 250,
            tsc_per_ns: 3.0,
        }
    }
}

impl PlatformClocks {
    /// PIT period in nanoseconds.
    pub fn pit_period_ns(&self) -> u64 {
        1_000_000_000 / u64::from(self.pit_hz)
    }

    /// Timer interrupts that should have fired by instant `t`.
    pub fn pit_ticks(&self, t: VirtNanos) -> u64 {
        t.as_nanos() / self.pit_period_ns()
    }

    /// The PIT's 16-bit countdown counter value at instant `t`: it reloads
    /// every period and counts down at ~1.193 MHz.
    pub fn pit_counter(&self, t: VirtNanos) -> u16 {
        const PIT_HZ: f64 = 1_193_182.0;
        let reload = (PIT_HZ / f64::from(self.pit_hz)) as u64;
        let within_ns = t.as_nanos() % self.pit_period_ns();
        let elapsed_ticks = (within_ns as f64 * PIT_HZ / 1e9) as u64;
        (reload.saturating_sub(elapsed_ticks) & 0xffff) as u16
    }

    /// `rdtsc` value at instant `t`.
    pub fn rdtsc(&self, t: VirtNanos) -> u64 {
        (t.as_nanos() as f64 * self.tsc_per_ns) as u64
    }

    /// CMOS RTC (whole seconds) at instant `t`.
    pub fn rtc_secs(&self, t: VirtNanos) -> u64 {
        t.as_nanos() / 1_000_000_000
    }

    /// The instant of PIT tick number `n` (1-based).
    pub fn pit_tick_time(&self, n: u64) -> VirtNanos {
        VirtNanos::from_nanos(n * self.pit_period_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pit_period_at_250hz_is_4ms() {
        let c = PlatformClocks::default();
        assert_eq!(c.pit_period_ns(), 4_000_000);
    }

    #[test]
    fn pit_ticks_accumulate() {
        let c = PlatformClocks::default();
        assert_eq!(c.pit_ticks(VirtNanos::from_nanos(0)), 0);
        assert_eq!(c.pit_ticks(VirtNanos::from_millis(4)), 1);
        assert_eq!(c.pit_ticks(VirtNanos::from_millis(1000)), 250);
    }

    #[test]
    fn pit_counter_counts_down_and_reloads() {
        let c = PlatformClocks::default();
        let at_start = c.pit_counter(VirtNanos::from_nanos(0));
        let mid = c.pit_counter(VirtNanos::from_millis(2));
        assert!(at_start > mid, "{at_start} !> {mid}");
        // Just past the reload point it's high again.
        let reloaded = c.pit_counter(VirtNanos::from_nanos(4_000_100));
        assert!(reloaded > mid);
    }

    #[test]
    fn rdtsc_scales() {
        let c = PlatformClocks::default();
        assert_eq!(c.rdtsc(VirtNanos::from_nanos(1000)), 3000);
    }

    #[test]
    fn rtc_whole_seconds() {
        let c = PlatformClocks::default();
        assert_eq!(c.rtc_secs(VirtNanos::from_millis(2_999)), 2);
        assert_eq!(c.rtc_secs(VirtNanos::from_millis(3_000)), 3);
    }

    #[test]
    fn tick_time_inverse_of_ticks() {
        let c = PlatformClocks::default();
        for n in 1..100 {
            let t = c.pit_tick_time(n);
            assert_eq!(c.pit_ticks(t), n);
        }
    }
}
