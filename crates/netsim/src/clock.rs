//! Simulation time.
//!
//! Time is measured in integer milliseconds from the start of the
//! simulation. Integer time keeps event ordering exact — there is no
//! floating-point drift between runs, which matters because the whole
//! study must replay identically from a seed.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulation time (milliseconds since simulation start).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

/// A span of simulation time in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Milliseconds since simulation start.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since simulation start.
    pub fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Duration elapsed since `earlier` (saturating).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// From whole seconds, saturating at `u64::MAX` milliseconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1000))
    }

    /// From whole minutes (the study's sessions are 4 minutes),
    /// saturating: an absurd count stays absurd instead of wrapping
    /// around to a short session.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m.saturating_mul(60_000))
    }

    /// Milliseconds in this duration.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds (floor).
    pub fn as_secs(self) -> u64 {
        self.0 / 1000
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}.{:03}s", self.0 / 1000, self.0 % 1000)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}s", self.0 / 1000, self.0 % 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ordering() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs(3);
        assert_eq!(t1.as_millis(), 3000);
        assert_eq!(t1 - t0, SimDuration::from_secs(3));
        assert_eq!(t0 - t1, SimDuration::ZERO); // saturating
        assert!(t1 > t0);
        assert_eq!(SimDuration::from_mins(4).as_secs(), 240);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime(1500).to_string(), "t+1.500s");
        assert_eq!(SimDuration(250).to_string(), "0.250s");
    }
}

appvsweb_json::impl_json!(newtype SimTime(u64));
appvsweb_json::impl_json!(newtype SimDuration(u64));
