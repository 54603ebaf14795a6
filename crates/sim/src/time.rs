//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or span of) simulated time, stored in integer picoseconds.
///
/// Integer time keeps the scheduler exactly deterministic and associative;
/// picosecond resolution comfortably represents both sub-nanosecond CAM
/// searches and hour-long CPU baselines (`u64` picoseconds ≈ 213 days).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from (fractional) nanoseconds, rounding to picoseconds.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_ns(ns: f64) -> SimTime {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "time must be finite and non-negative"
        );
        SimTime((ns * 1e3).round() as u64)
    }

    /// Builds from seconds.
    pub fn from_secs(s: f64) -> SimTime {
        SimTime::from_ns(s * 1e9)
    }

    /// Value in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics on underflow (subtracting a later time from an earlier one).
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("simulated time underflow"))
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("simulated time overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3} s", self.as_secs())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3} ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3} µs", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3} ns", self.as_ns())
        } else {
            write!(f, "{ps} ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(1.0), SimTime(1_000));
        assert_eq!(SimTime::from_ns(0.0004), SimTime::ZERO, "rounds to ps");
        assert_eq!(SimTime::from_secs(1.0), SimTime::from_ns(1e9));
        assert!((SimTime::from_ns(2.5).as_ns() - 2.5).abs() < 1e-12);
        assert!((SimTime::from_secs(2.5).as_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10.0);
        let b = SimTime::from_ns(4.0);
        assert_eq!(a + b, SimTime::from_ns(14.0));
        assert_eq!(a - b, SimTime::from_ns(6.0));
        assert_eq!(a * 3, SimTime::from_ns(30.0));
        assert_eq!(a / 2, SimTime::from_ns(5.0));
        let total: SimTime = [a, b, b].into_iter().sum();
        assert_eq!(total, SimTime::from_ns(18.0));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_ns(1.0) - SimTime::from_ns(2.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime(500).to_string(), "500 ps");
        assert_eq!(SimTime::from_ns(1.5).to_string(), "1.500 ns");
        assert_eq!(SimTime::from_ns(2e3).to_string(), "2.000 µs");
        assert_eq!(SimTime::from_ns(3e6).to_string(), "3.000 ms");
        assert_eq!(SimTime::from_secs(4.0).to_string(), "4.000 s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1.0) < SimTime::from_ns(2.0));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
