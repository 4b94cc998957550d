//! Samples, labels, timestamps, and series keys.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// A millisecond-resolution timestamp on the (virtual) experiment clock.
///
/// The metrics substrate is clock-agnostic: the discrete-event simulator
/// feeds it virtual time, a wall-clock deployment would feed real time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimestampMs(u64);

impl TimestampMs {
    /// The zero timestamp (start of the experiment).
    pub const ZERO: Self = Self(0);

    /// Creates a timestamp from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// Creates a timestamp from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000)
    }

    /// The raw millisecond value.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The value in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Adds a duration, saturating on overflow.
    pub fn saturating_add(self, duration: Duration) -> Self {
        Self(self.0.saturating_add(duration.as_millis() as u64))
    }

    /// Subtracts a duration, saturating at zero.
    pub fn saturating_sub(self, duration: Duration) -> Self {
        Self(self.0.saturating_sub(duration.as_millis() as u64))
    }

    /// The duration elapsed since `earlier` (zero if `earlier` is later).
    pub fn since(self, earlier: TimestampMs) -> Duration {
        Duration::from_millis(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for TimestampMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl From<Duration> for TimestampMs {
    fn from(d: Duration) -> Self {
        Self(d.as_millis() as u64)
    }
}

/// A set of key/value labels identifying a series (e.g. `instance`,
/// `version`, `container`).
pub type Labels = BTreeMap<String, String>;

/// A single measurement: a timestamp and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the measurement was taken.
    pub timestamp: TimestampMs,
    /// The measured value.
    pub value: f64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(timestamp: TimestampMs, value: f64) -> Self {
        Self { timestamp, value }
    }
}

/// The identity of a time series: a metric name plus its labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    name: String,
    labels: Labels,
}

impl SeriesKey {
    /// Creates a series key without labels.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            labels: Labels::new(),
        }
    }

    /// Adds a label (builder style).
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.insert(key.into(), value.into());
        self
    }

    /// The metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The labels.
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// The value of a single label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.get(key).map(String::as_str)
    }
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if self.labels.is_empty() {
            return Ok(());
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}=\"{v}\"")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_conversions() {
        let t = TimestampMs::from_secs(3);
        assert_eq!(t.as_millis(), 3_000);
        assert_eq!(t.as_secs_f64(), 3.0);
        assert_eq!(
            TimestampMs::from(Duration::from_millis(250)).as_millis(),
            250
        );
        assert_eq!(t.to_string(), "3.000s");
    }

    #[test]
    fn timestamp_arithmetic_saturates() {
        let t = TimestampMs::from_secs(1);
        assert_eq!(t.saturating_add(Duration::from_secs(2)).as_millis(), 3_000);
        assert_eq!(t.saturating_sub(Duration::from_secs(5)), TimestampMs::ZERO);
        assert_eq!(
            TimestampMs::from_secs(5).since(TimestampMs::from_secs(2)),
            Duration::from_secs(3)
        );
        assert_eq!(
            TimestampMs::from_secs(2).since(TimestampMs::from_secs(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn series_key_labels_and_display() {
        let key = SeriesKey::new("request_errors")
            .with_label("instance", "search:80")
            .with_label("version", "v2");
        assert_eq!(key.name(), "request_errors");
        assert_eq!(key.label("instance"), Some("search:80"));
        assert_eq!(key.label("missing"), None);
        assert_eq!(
            key.to_string(),
            "request_errors{instance=\"search:80\",version=\"v2\"}"
        );
        assert_eq!(SeriesKey::new("up").to_string(), "up");
    }

    #[test]
    fn series_keys_order_deterministically() {
        let a = SeriesKey::new("a");
        let b = SeriesKey::new("b");
        assert!(a < b);
        let a1 = SeriesKey::new("a").with_label("x", "1");
        let a2 = SeriesKey::new("a").with_label("x", "2");
        assert!(a1 < a2);
    }
}
