//! Host execution-speed profiles.
//!
//! Each physical host retires guest branches at a base rate modulated by
//! (a) piecewise-constant jitter (background OS activity, Dom0 chatter,
//! thermal noise) and (b) a *contention factor* from coresident guests'
//! activity — the channel through which a victim VM perturbs the timing of
//! a coresident attacker replica, and through which the Sec. IX
//! "collaborating attacker" induces load.
//!
//! The profile is a pure function of (seed, epoch index, contention), so
//! branch↔time conversions are deterministic and invertible.

use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use std::cell::RefCell;

/// Deterministic branches-per-second profile for one host core.
#[derive(Debug, Clone)]
pub struct SpeedProfile {
    base_ips: f64,
    jitter_frac: f64,
    epoch: SimDuration,
    seed_stream: SimRng,
    /// Multiplicative slowdown from coresident load, `0 <= c < 1`;
    /// effective speed is `base * (1 - c) * (1 ± jitter)`.
    contention: f64,
    /// Bumped on every mutation that changes the branch↔time mapping
    /// (today: contention updates). Callers that memoize conversion
    /// results key them on this counter so a profile change invalidates
    /// every cached projection at once.
    generation: u64,
    /// Memoized jitter multipliers, indexed by epoch. Each multiplier is a
    /// pure function of (seed, epoch), so caching cannot change any value —
    /// it only skips the per-query stream derivation on the branch↔time
    /// conversion hot path (every wake computation integrates over epochs).
    jitter_memo: RefCell<Vec<f64>>,
}

impl SpeedProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics unless `base_ips > 0`, `0 <= jitter_frac < 1`, and the epoch
    /// is non-zero.
    pub fn new(base_ips: f64, jitter_frac: f64, epoch: SimDuration, rng: SimRng) -> Self {
        assert!(base_ips > 0.0, "base speed must be positive");
        assert!(
            (0.0..1.0).contains(&jitter_frac),
            "jitter fraction must be in [0,1)"
        );
        assert!(!epoch.is_zero(), "epoch must be non-zero");
        SpeedProfile {
            base_ips,
            jitter_frac,
            epoch,
            seed_stream: rng,
            contention: 0.0,
            generation: 0,
            jitter_memo: RefCell::new(Vec::new()),
        }
    }

    /// Sets the coresident-load contention factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= c < 1`.
    pub fn set_contention(&mut self, c: f64) {
        assert!((0.0..1.0).contains(&c), "contention must be in [0,1)");
        self.contention = c;
        self.generation += 1;
    }

    /// Current contention factor.
    pub fn contention(&self) -> f64 {
        self.contention
    }

    /// Mutation counter for memo invalidation (see the field doc).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Jitter multiplier for epoch `idx` — a pure function of (seed, idx),
    /// memoized densely by epoch (epoch indices grow with simulated time,
    /// so the memo is a flat vector, not a map).
    fn jitter_mult(&self, idx: u64) -> f64 {
        if self.jitter_frac == 0.0 {
            return 1.0;
        }
        let mut memo = self.jitter_memo.borrow_mut();
        let idx = idx as usize;
        if idx >= memo.len() + 1_000_000 {
            // A far-future probe (beyond any plausible run horizon) is
            // answered directly instead of dense-filling the memo to it.
            let mut s = self.seed_stream.stream_indexed("epoch", idx);
            return 1.0 + s.uniform(-self.jitter_frac, self.jitter_frac);
        }
        while memo.len() <= idx {
            let i = memo.len();
            let mut s = self.seed_stream.stream_indexed("epoch", i);
            memo.push(1.0 + s.uniform(-self.jitter_frac, self.jitter_frac));
        }
        memo[idx]
    }

    /// Effective branches/second during epoch `idx`.
    pub fn ips_at_epoch(&self, idx: u64) -> f64 {
        self.base_ips * (1.0 - self.contention) * self.jitter_mult(idx)
    }

    fn epoch_index(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.epoch.as_nanos()
    }

    /// Branches retired in `[t0, t1)`.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`.
    pub fn branches_between(&self, t0: SimTime, t1: SimTime) -> u64 {
        assert!(t1 >= t0, "negative interval");
        if t1 == t0 {
            return 0;
        }
        let mut acc = 0.0;
        let mut cur = t0;
        while cur < t1 {
            let idx = self.epoch_index(cur);
            let epoch_end = SimTime::from_nanos((idx + 1) * self.epoch.as_nanos());
            let seg_end = epoch_end.min(t1);
            let dt = seg_end.duration_since(cur).as_secs_f64();
            acc += dt * self.ips_at_epoch(idx);
            cur = seg_end;
        }
        acc as u64
    }

    /// Earliest time `t >= t0` by which `branches` more branches have
    /// retired.
    pub fn time_for_branches(&self, t0: SimTime, branches: u64) -> SimTime {
        if branches == 0 {
            return t0;
        }
        let mut remaining = branches as f64;
        let mut cur = t0;
        loop {
            let idx = self.epoch_index(cur);
            let rate = self.ips_at_epoch(idx);
            let epoch_end = SimTime::from_nanos((idx + 1) * self.epoch.as_nanos());
            let span = epoch_end.duration_since(cur).as_secs_f64();
            let capacity = span * rate;
            if capacity >= remaining {
                return cur + SimDuration::from_secs_f64(remaining / rate);
            }
            remaining -= capacity;
            cur = epoch_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(jitter: f64) -> SpeedProfile {
        SpeedProfile::new(
            1.0e9,
            jitter,
            SimDuration::from_millis(10),
            SimRng::new(5).stream("host0"),
        )
    }

    #[test]
    fn no_jitter_is_linear() {
        let p = profile(0.0);
        let b = p.branches_between(SimTime::ZERO, SimTime::from_millis(5));
        assert_eq!(b, 5_000_000);
    }

    #[test]
    fn branches_and_time_are_inverse() {
        let p = profile(0.05);
        let t0 = SimTime::from_millis(3);
        for &n in &[1_000u64, 1_000_000, 123_456_789] {
            let t1 = p.time_for_branches(t0, n);
            let measured = p.branches_between(t0, t1);
            let err = measured.abs_diff(n);
            assert!(err <= 2, "n={n}: measured {measured}");
        }
    }

    #[test]
    fn jitter_changes_rate_across_epochs() {
        let p = profile(0.05);
        let rates: Vec<f64> = (0..10).map(|i| p.ips_at_epoch(i)).collect();
        let distinct = rates
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 1.0)
            .count();
        assert!(distinct >= 5, "rates too uniform: {rates:?}");
        for r in rates {
            assert!((0.95e9..=1.05e9).contains(&r));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = profile(0.05);
        let b = profile(0.05);
        assert_eq!(
            a.branches_between(SimTime::ZERO, SimTime::from_secs(1)),
            b.branches_between(SimTime::ZERO, SimTime::from_secs(1))
        );
    }

    #[test]
    fn different_hosts_differ() {
        let a = SpeedProfile::new(
            1.0e9,
            0.05,
            SimDuration::from_millis(10),
            SimRng::new(5).stream("host0"),
        );
        let b = SpeedProfile::new(
            1.0e9,
            0.05,
            SimDuration::from_millis(10),
            SimRng::new(5).stream("host1"),
        );
        assert_ne!(
            a.branches_between(SimTime::ZERO, SimTime::from_millis(25)),
            b.branches_between(SimTime::ZERO, SimTime::from_millis(25))
        );
    }

    #[test]
    fn contention_slows_execution() {
        let mut p = profile(0.0);
        let fast = p.branches_between(SimTime::ZERO, SimTime::from_millis(10));
        p.set_contention(0.3);
        let slow = p.branches_between(SimTime::ZERO, SimTime::from_millis(10));
        assert!((slow as f64 - fast as f64 * 0.7).abs() < 2.0);
    }

    #[test]
    fn additivity_across_epoch_boundaries() {
        let p = profile(0.05);
        let a = p.branches_between(SimTime::ZERO, SimTime::from_millis(25));
        let b = p.branches_between(SimTime::ZERO, SimTime::from_millis(13))
            + p.branches_between(SimTime::from_millis(13), SimTime::from_millis(25));
        assert!(a.abs_diff(b) <= 2, "{a} vs {b}");
    }

    #[test]
    fn time_for_zero_branches_is_identity() {
        let p = profile(0.05);
        assert_eq!(
            p.time_for_branches(SimTime::from_millis(7), 0),
            SimTime::from_millis(7)
        );
    }
}
