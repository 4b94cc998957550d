//! Ordered threshold tuples and the disjoint ranges they induce.
//!
//! A tuple of thresholds `⟨t₁, …, tₙ⟩` with `n` values forms `n + 1` disjoint
//! ranges: `(-∞, t₁]`, `(t₁, t₂]`, …, `(tₙ, ∞)`. Both the state transition
//! function `δ` and the output mapping of basic checks rely on this
//! partitioning: an aggregated outcome value is classified into exactly one
//! range, and the range index selects the next state (or the mapped output
//! value).

use crate::error::ModelError;
use std::fmt;

/// An ordered, strictly increasing tuple of integer thresholds.
///
/// The thresholds partition the integers into `len() + 1` disjoint ranges,
/// indexed from `0` (the range below or equal to the first threshold) to
/// `len()` (the range strictly above the last threshold).
///
/// ```
/// use bifrost_core::Thresholds;
///
/// let t = Thresholds::new(vec![2, 4])?;
/// assert_eq!(t.range_count(), 3);
/// assert_eq!(t.classify(1), 0);  // -∞ < 1 ≤ 2
/// assert_eq!(t.classify(2), 0);  // boundary belongs to the lower range
/// assert_eq!(t.classify(3), 1);  // 2 < 3 ≤ 4
/// assert_eq!(t.classify(9), 2);  // 4 < 9
/// # Ok::<(), bifrost_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Thresholds {
    values: Vec<i64>,
}

impl Thresholds {
    /// Creates a threshold tuple.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidThresholds`] if the tuple is empty or not
    /// strictly increasing.
    pub fn new(values: Vec<i64>) -> Result<Self, ModelError> {
        if values.is_empty() {
            return Err(ModelError::InvalidThresholds(
                "a threshold tuple must contain at least one value".into(),
            ));
        }
        if values.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ModelError::InvalidThresholds(format!(
                "thresholds must be strictly increasing, got {values:?}"
            )));
        }
        Ok(Self { values })
    }

    /// Creates a tuple holding a single threshold.
    pub fn single(value: i64) -> Self {
        Self {
            values: vec![value],
        }
    }

    /// The threshold values in increasing order.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Number of thresholds `n`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tuple is empty (never true for validated tuples).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of disjoint ranges induced by the thresholds (`n + 1`).
    pub fn range_count(&self) -> usize {
        self.values.len() + 1
    }

    /// Classifies `value` into the index of the range it falls into.
    ///
    /// Range `i` (for `i < n`) is `(tᵢ₋₁, tᵢ]`; range `n` is `(tₙ, ∞)`.
    pub fn classify(&self, value: i64) -> usize {
        self.values
            .iter()
            .position(|&t| value <= t)
            .unwrap_or(self.values.len())
    }

    /// The inclusive-exclusive bounds of range `index` as
    /// `(lower_exclusive, upper_inclusive)`, where `None` stands for an
    /// unbounded side.
    ///
    /// # Panics
    ///
    /// Panics if `index >= range_count()`.
    pub fn range_bounds(&self, index: usize) -> (Option<i64>, Option<i64>) {
        assert!(
            index < self.range_count(),
            "range index {index} out of bounds for {} ranges",
            self.range_count()
        );
        let lower = if index == 0 {
            None
        } else {
            Some(self.values[index - 1])
        };
        let upper = if index == self.values.len() {
            None
        } else {
            Some(self.values[index])
        };
        (lower, upper)
    }

    /// Returns `true` if `value` falls into range `index`.
    pub fn contains(&self, index: usize, value: i64) -> bool {
        index < self.range_count() && self.classify(value) == index
    }
}

impl fmt::Display for Thresholds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

impl TryFrom<Vec<i64>> for Thresholds {
    type Error = ModelError;

    fn try_from(values: Vec<i64>) -> Result<Self, Self::Error> {
        Self::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_thresholds_rejected() {
        assert!(matches!(
            Thresholds::new(vec![]),
            Err(ModelError::InvalidThresholds(_))
        ));
    }

    #[test]
    fn non_increasing_thresholds_rejected() {
        assert!(Thresholds::new(vec![3, 3]).is_err());
        assert!(Thresholds::new(vec![5, 2]).is_err());
        assert!(Thresholds::new(vec![1, 2, 2]).is_err());
    }

    #[test]
    fn single_threshold_forms_two_ranges() {
        let t = Thresholds::single(3);
        assert_eq!(t.range_count(), 2);
        assert_eq!(t.classify(3), 0);
        assert_eq!(t.classify(4), 1);
        assert_eq!(t.classify(i64::MIN), 0);
        assert_eq!(t.classify(i64::MAX), 1);
    }

    #[test]
    fn paper_example_ranges() {
        // The paper's example: thresholds ⟨2, 4⟩ form the ranges
        // -∞ < x ≤ 2, 2 < x ≤ 4, 4 < x ≤ ∞.
        let t = Thresholds::new(vec![2, 4]).unwrap();
        assert_eq!(t.range_count(), 3);
        assert_eq!(t.classify(-10), 0);
        assert_eq!(t.classify(2), 0);
        assert_eq!(t.classify(3), 1);
        assert_eq!(t.classify(4), 1);
        assert_eq!(t.classify(5), 2);
    }

    #[test]
    fn range_bounds_are_half_open() {
        let t = Thresholds::new(vec![2, 4]).unwrap();
        assert_eq!(t.range_bounds(0), (None, Some(2)));
        assert_eq!(t.range_bounds(1), (Some(2), Some(4)));
        assert_eq!(t.range_bounds(2), (Some(4), None));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_bounds_panics_out_of_range() {
        let t = Thresholds::single(0);
        let _ = t.range_bounds(2);
    }

    #[test]
    fn contains_matches_classify() {
        let t = Thresholds::new(vec![0, 10, 20]).unwrap();
        for value in [-5, 0, 1, 10, 11, 20, 21, 100] {
            let idx = t.classify(value);
            assert!(t.contains(idx, value));
            for other in 0..t.range_count() {
                if other != idx {
                    assert!(!t.contains(other, value));
                }
            }
        }
    }

    #[test]
    fn display_renders_tuple_notation() {
        let t = Thresholds::new(vec![3, 4]).unwrap();
        assert_eq!(t.to_string(), "⟨3, 4⟩");
    }

    #[test]
    fn try_from_vec() {
        let t = Thresholds::try_from(vec![1, 2, 3]).unwrap();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(Thresholds::try_from(vec![]).is_err());
    }
}
