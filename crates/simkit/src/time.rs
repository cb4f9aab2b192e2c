//! Simulation time types.
//!
//! Two distinct notions of time exist in the StopWatch reproduction, and they
//! must never be confused:
//!
//! * [`SimTime`] — *real* time inside the simulated world (what a wall clock
//!   on a physical host would read). The discrete-event engine advances this.
//! * [`VirtNanos`] — *virtual* time as exposed to a guest VM by StopWatch
//!   (Sec. IV of the paper): a deterministic function of the guest's executed
//!   instructions, `virt(instr) = slope * instr + start`.
//!
//! Both are nanosecond-granular. They are separate newtypes so the compiler
//! rejects accidental cross-assignments (C-NEWTYPE).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated *real* time, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use simkit::time::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_nanos(), 5_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A length of simulated real time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use simkit::time::SimDuration;
/// assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// A point in guest *virtual* time, in virtual nanoseconds.
///
/// Virtual time is what a StopWatch guest observes through every real-time
/// clock source (PIT, TSC, RTC); see [`crate::time`] module docs.
///
/// # Examples
///
/// ```
/// use simkit::time::VirtNanos;
/// let v = VirtNanos::from_nanos(10) + VirtNanos::from_nanos(5).as_offset();
/// assert_eq!(v.as_nanos(), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtNanos(u64);

/// A length of virtual time (an offset such as the paper's Δn or Δd).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtOffset(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// This time expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later than self"),
        )
    }

    /// Duration since `earlier`, or zero if `earlier` is in the future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at the bounds.
    ///
    /// Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1.0e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// `true` when this duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float, saturating at the bounds.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl VirtNanos {
    /// Virtual time zero.
    pub const ZERO: VirtNanos = VirtNanos(0);
    /// Largest representable virtual instant; an "unset / infinite" marker.
    pub const MAX: VirtNanos = VirtNanos(u64::MAX);

    /// Creates a virtual instant from raw virtual nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        VirtNanos(ns)
    }

    /// Creates a virtual instant from virtual milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        VirtNanos(ms * 1_000_000)
    }

    /// Raw virtual nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional virtual milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Fractional virtual seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// Reinterprets this instant as an offset from virtual zero.
    pub const fn as_offset(self) -> VirtOffset {
        VirtOffset(self.0)
    }

    /// Offset elapsed since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: VirtNanos) -> VirtOffset {
        VirtOffset(self.0.saturating_sub(earlier.0))
    }
}

impl VirtOffset {
    /// Zero offset.
    pub const ZERO: VirtOffset = VirtOffset(0);

    /// Creates an offset from raw virtual nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        VirtOffset(ns)
    }

    /// Creates an offset from virtual microseconds.
    pub const fn from_micros(us: u64) -> Self {
        VirtOffset(us * 1_000)
    }

    /// Creates an offset from virtual milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        VirtOffset(ms * 1_000_000)
    }

    /// Raw virtual nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional virtual milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Add<VirtOffset> for VirtNanos {
    type Output = VirtNanos;
    fn add(self, d: VirtOffset) -> VirtNanos {
        VirtNanos(self.0 + d.0)
    }
}

impl AddAssign<VirtOffset> for VirtNanos {
    fn add_assign(&mut self, d: VirtOffset) {
        self.0 += d.0;
    }
}

impl Sub<VirtNanos> for VirtNanos {
    type Output = VirtOffset;
    fn sub(self, rhs: VirtNanos) -> VirtOffset {
        VirtOffset(
            self.0
                .checked_sub(rhs.0)
                .expect("virtual time subtraction underflow"),
        )
    }
}

impl Add for VirtOffset {
    type Output = VirtOffset;
    fn add(self, rhs: VirtOffset) -> VirtOffset {
        VirtOffset(self.0 + rhs.0)
    }
}

impl Mul<u64> for VirtOffset {
    type Output = VirtOffset;
    fn mul(self, k: u64) -> VirtOffset {
        VirtOffset(self.0 * k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for VirtNanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for VirtOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(3);
        assert_eq!((t + d).as_nanos(), 13_000_000);
        assert_eq!((t - d).as_nanos(), 7_000_000);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn duration_since_works() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(12);
        assert_eq!(b.duration_since(a), SimDuration::from_millis(7));
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_panics_on_negative() {
        let _ = SimTime::from_millis(1).duration_since(SimTime::from_millis(2));
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = SimDuration::from_secs_f64(0.25);
        assert_eq!(d.as_nanos(), 250_000_000);
        assert!((d.as_secs_f64() - 0.25).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
    }

    #[test]
    fn virt_time_arithmetic() {
        let v = VirtNanos::from_millis(4);
        let off = VirtOffset::from_millis(8);
        assert_eq!((v + off).as_nanos(), 12_000_000);
        assert_eq!((v + off) - v, off);
        assert_eq!(v.saturating_since(v + off), VirtOffset::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000000s");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", VirtNanos::from_millis(1)), "v0.001000s");
        assert_eq!(format!("{}", VirtOffset::from_millis(7)), "v7.000ms");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(5) < SimTime::from_nanos(6));
        assert!(VirtNanos::from_nanos(5) < VirtNanos::from_nanos(6));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }
}
