//! Timers `τ` controlling when and how often checks execute.
//!
//! The model expresses timed execution through a timer attached to every
//! check: the check's metric evaluating function is (re-)executed every
//! `interval` for `repetitions` times. A state is complete when the slowest
//! of its checks has finished all repetitions.

use crate::error::ModelError;
use std::fmt;
use std::time::Duration;

/// A timer `τ = (interval, repetitions)` controlling the re-execution of a
/// check's evaluation function.
///
/// ```
/// use bifrost_core::Timer;
/// use std::time::Duration;
///
/// // "re-executed every 5 seconds and 12 times in total" (Listing 1)
/// let timer = Timer::new(Duration::from_secs(5), 12)?;
/// assert_eq!(timer.total_duration(), Duration::from_secs(60));
/// # Ok::<(), bifrost_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Timer {
    interval: Duration,
    repetitions: u32,
}

impl Timer {
    /// Creates a timer firing every `interval`, `repetitions` times in total.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTimer`] if the interval is zero or the
    /// repetition count is zero.
    pub fn new(interval: Duration, repetitions: u32) -> Result<Self, ModelError> {
        if interval.is_zero() {
            return Err(ModelError::InvalidTimer(
                "interval must be greater than zero".into(),
            ));
        }
        if repetitions == 0 {
            return Err(ModelError::InvalidTimer(
                "repetitions must be greater than zero".into(),
            ));
        }
        Ok(Self {
            interval,
            repetitions,
        })
    }

    /// Convenience constructor taking whole seconds.
    ///
    /// # Errors
    ///
    /// Same as [`Timer::new`].
    pub fn from_secs(interval_secs: u64, repetitions: u32) -> Result<Self, ModelError> {
        Self::new(Duration::from_secs(interval_secs), repetitions)
    }

    /// A timer that fires exactly once after `interval` (used for checks that
    /// are evaluated only at the end of a phase, e.g. A/B test evaluation).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTimer`] if the interval is zero.
    pub fn once(interval: Duration) -> Result<Self, ModelError> {
        Self::new(interval, 1)
    }

    /// The interval between executions.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The number of executions.
    pub fn repetitions(&self) -> u32 {
        self.repetitions
    }

    /// Total time from the start of the state until the last execution of the
    /// check fires (`interval * repetitions`).
    pub fn total_duration(&self) -> Duration {
        self.interval * self.repetitions
    }

    /// The virtual time offsets (relative to the state start) at which the
    /// check fires: `interval, 2·interval, …, repetitions·interval`.
    pub fn fire_offsets(&self) -> impl Iterator<Item = Duration> + '_ {
        (1..=self.repetitions).map(move |i| self.interval * i)
    }
}

impl fmt::Display for Timer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "every {:?} x {} (total {:?})",
            self.interval,
            self.repetitions,
            self.total_duration()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_interval_rejected() {
        assert!(matches!(
            Timer::new(Duration::ZERO, 3),
            Err(ModelError::InvalidTimer(_))
        ));
    }

    #[test]
    fn zero_repetitions_rejected() {
        assert!(matches!(
            Timer::from_secs(5, 0),
            Err(ModelError::InvalidTimer(_))
        ));
    }

    #[test]
    fn listing1_timer_covers_60_seconds() {
        // intervalTime: 5, intervalLimit: 12  → 60 s total
        let t = Timer::from_secs(5, 12).unwrap();
        assert_eq!(t.interval(), Duration::from_secs(5));
        assert_eq!(t.repetitions(), 12);
        assert_eq!(t.total_duration(), Duration::from_secs(60));
    }

    #[test]
    fn once_fires_a_single_time() {
        let t = Timer::once(Duration::from_secs(60)).unwrap();
        assert_eq!(t.repetitions(), 1);
        assert_eq!(t.fire_offsets().count(), 1);
    }

    #[test]
    fn fire_offsets_are_multiples_of_interval() {
        let t = Timer::from_secs(10, 3).unwrap();
        let offsets: Vec<_> = t.fire_offsets().collect();
        assert_eq!(
            offsets,
            vec![
                Duration::from_secs(10),
                Duration::from_secs(20),
                Duration::from_secs(30)
            ]
        );
    }

    #[test]
    fn display_is_informative() {
        let t = Timer::from_secs(5, 2).unwrap();
        let s = t.to_string();
        assert!(s.contains("5s"));
        assert!(s.contains("x 2"));
    }
}
