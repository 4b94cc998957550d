//! Virtual time with microsecond resolution.

use bifrost_metrics::TimestampMs;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, measured in microseconds since the start of the
/// simulation.
///
/// Microsecond resolution keeps sub-millisecond proxy overheads and CPU slices
/// representable while still allowing multi-day experiments within `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: Self = Self(0);

    /// Creates a time from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000_000)
    }

    /// Creates a time from fractional seconds (values below zero clamp to 0).
    pub fn from_secs_f64(secs: f64) -> Self {
        Self((secs.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration since an earlier point (zero if `earlier` is later).
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> Self {
        Self(self.0.saturating_add(d.as_micros() as u64))
    }

    /// The later of two times.
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Converts to the millisecond timestamps used by the metric store.
    pub fn to_timestamp(self) -> TimestampMs {
        TimestampMs::from_millis(self.as_millis())
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_micros() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl From<Duration> for SimTime {
    fn from(d: Duration) -> Self {
        Self(d.as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(3).as_secs_f64(), 3.0);
        assert_eq!(SimTime::from(Duration::from_millis(2)).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(1).to_string(), "t=1.000s");
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t.as_millis(), 1_500);
        let mut t2 = SimTime::ZERO;
        t2 += Duration::from_secs(2);
        assert_eq!(t2.as_secs_f64(), 2.0);
        assert_eq!(t2 - SimTime::from_secs(1), Duration::from_secs(1));
        assert_eq!(SimTime::from_secs(1) - t2, Duration::ZERO);
        assert_eq!(t2.since(SimTime::from_secs(1)), Duration::from_secs(1));
        assert_eq!(t2.max(SimTime::from_secs(5)), SimTime::from_secs(5));
        assert_eq!(t2.min(SimTime::from_secs(5)), t2);
        assert_eq!(
            SimTime::from_secs(1).saturating_add(Duration::from_secs(1)),
            SimTime::from_secs(2)
        );
    }

    #[test]
    fn converts_to_metric_timestamp() {
        assert_eq!(
            SimTime::from_millis(2_500).to_timestamp(),
            TimestampMs::from_millis(2_500)
        );
    }
}
