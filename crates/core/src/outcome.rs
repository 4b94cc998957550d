//! Check outcomes, output mappings, weights, and state-level aggregation.
//!
//! A single execution of a check's metric evaluating function yields `0` or
//! `1`. Over the course of a state, the executions of one check are summed
//! into an aggregated value `e ∈ ℤ`. Basic checks then map `e` through an
//! [`OutcomeMapping`] (thresholds → normalised integer); exception checks
//! either report the number of successful executions or trigger an immediate
//! fallback. Finally, all check results of a state are combined as a weighted
//! linear combination into the [`StateOutcome`] that drives the transition
//! function `δ`.

use crate::error::ModelError;
use crate::ids::{CheckId, StateId};
use crate::thresholds::Thresholds;
use std::fmt;

/// A weighting factor `wᵢ ∈ W` applied to a check's result in the state-level
/// linear combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weight(f64);

impl Weight {
    /// Creates a weight.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidWeights`] if the value is not finite.
    pub fn new(value: f64) -> Result<Self, ModelError> {
        if !value.is_finite() {
            return Err(ModelError::InvalidWeights(format!(
                "weight must be finite, got {value}"
            )));
        }
        Ok(Self(value))
    }

    /// The neutral weight of `1.0`.
    pub const fn one() -> Self {
        Self(1.0)
    }

    /// The underlying value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Default for Weight {
    fn default() -> Self {
        Self::one()
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One entry of an output mapping: values in `(lower, upper]` map to `result`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeRange {
    /// Exclusive lower bound (`None` = −∞).
    pub lower: Option<i64>,
    /// Inclusive upper bound (`None` = +∞).
    pub upper: Option<i64>,
    /// The normalised integer result `rᵢ` for this range.
    pub result: i64,
}

/// The output mapping `Out_cᵢ` of a basic check: the aggregated execution sum
/// is classified by the check's thresholds and mapped onto a normalised
/// integer value.
///
/// ```
/// use bifrost_core::{OutcomeMapping, Thresholds};
///
/// // The paper's response-time example: thresholds ⟨75, 95⟩ with mappings
/// // (−∞,75,−5), (75,95,4), (95,∞,5).
/// let mapping = OutcomeMapping::new(Thresholds::new(vec![75, 95])?, vec![-5, 4, 5])?;
/// assert_eq!(mapping.map(60), -5);
/// assert_eq!(mapping.map(80), 4);
/// assert_eq!(mapping.map(100), 5);
/// # Ok::<(), bifrost_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeMapping {
    thresholds: Thresholds,
    results: Vec<i64>,
}

impl OutcomeMapping {
    /// Creates an output mapping from thresholds and one result per induced
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidOutcomeMapping`] if the number of results
    /// does not equal `thresholds.range_count()`.
    pub fn new(thresholds: Thresholds, results: Vec<i64>) -> Result<Self, ModelError> {
        if results.len() != thresholds.range_count() {
            return Err(ModelError::InvalidOutcomeMapping(format!(
                "{} thresholds require {} results, got {}",
                thresholds.len(),
                thresholds.range_count(),
                results.len()
            )));
        }
        Ok(Self {
            thresholds,
            results,
        })
    }

    /// A binary mapping used by the simplified DSL semantics: values above
    /// `threshold - 1` (i.e. `>= threshold`) map to `success`, everything else
    /// to `failure`.
    ///
    /// # Errors
    ///
    /// Never fails for finite inputs; kept fallible for interface symmetry.
    pub fn binary(threshold: i64, failure: i64, success: i64) -> Result<Self, ModelError> {
        Self::new(Thresholds::single(threshold - 1), vec![failure, success])
    }

    /// The thresholds of the mapping.
    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// The per-range results, index-aligned with the threshold ranges.
    pub fn results(&self) -> &[i64] {
        &self.results
    }

    /// Maps an aggregated execution sum onto its normalised result value.
    pub fn map(&self, aggregated: i64) -> i64 {
        self.results[self.thresholds.classify(aggregated)]
    }

    /// Returns the mapping as explicit [`OutcomeRange`] entries.
    pub fn ranges(&self) -> Vec<OutcomeRange> {
        (0..self.thresholds.range_count())
            .map(|i| {
                let (lower, upper) = self.thresholds.range_bounds(i);
                OutcomeRange {
                    lower,
                    upper,
                    result: self.results[i],
                }
            })
            .collect()
    }
}

/// The result of a completed check within a state execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// The check this outcome belongs to.
    pub check: CheckId,
    /// Sum of the 0/1 results of every timed execution (`Σⱼ f_cᵢʲ(Ωᵢ)`).
    pub aggregated_successes: i64,
    /// Number of executions performed.
    pub executions: u32,
    /// The value contributed to the state-level combination: for basic checks
    /// the mapped value, for exception checks the success count.
    pub value: i64,
    /// Whether an exception check tripped (an execution returned 0) and the
    /// automaton must switch to the fallback state immediately.
    pub exception_triggered: bool,
}

impl CheckOutcome {
    /// Outcome of a basic check after mapping the aggregated sum.
    pub fn basic(check: CheckId, aggregated: i64, executions: u32, mapped: i64) -> Self {
        Self {
            check,
            aggregated_successes: aggregated,
            executions,
            value: mapped,
            exception_triggered: false,
        }
    }

    /// Outcome of an exception check that completed all executions
    /// successfully (contributes `n`, the number of executions).
    pub fn exception_passed(check: CheckId, executions: u32) -> Self {
        Self {
            check,
            aggregated_successes: executions as i64,
            executions,
            value: executions as i64,
            exception_triggered: false,
        }
    }

    /// Outcome of an exception check whose evaluation returned `0`, tripping
    /// an immediate fallback transition.
    pub fn exception_tripped(check: CheckId, successes_before_trip: i64, executions: u32) -> Self {
        Self {
            check,
            aggregated_successes: successes_before_trip,
            executions,
            value: successes_before_trip,
            exception_triggered: true,
        }
    }
}

/// The aggregated outcome of a state: the weighted linear combination of its
/// check results, plus bookkeeping used by the engine and dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct StateOutcome {
    /// The state this outcome belongs to.
    pub state: StateId,
    /// Per-check outcomes in check order.
    pub checks: Vec<CheckOutcome>,
    /// The weighted linear combination `Σᵢ fᵢ · wᵢ`, truncated to `ℤ`.
    pub value: i64,
    /// Set if an exception check tripped; the automaton transitions to this
    /// fallback state regardless of `value`.
    pub exception_fallback: Option<StateId>,
}

impl StateOutcome {
    /// Computes the weighted linear combination of check outcomes.
    ///
    /// The weighted sum is computed in `f64` and truncated toward zero to
    /// yield the integer outcome `e ∈ ℤ` required by the transition function.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidWeights`] if the number of weights does
    /// not match the number of outcomes.
    pub fn combine(
        state: StateId,
        checks: Vec<CheckOutcome>,
        weights: &[Weight],
        exception_fallback: Option<StateId>,
    ) -> Result<Self, ModelError> {
        if checks.len() != weights.len() {
            return Err(ModelError::InvalidWeights(format!(
                "{} checks but {} weights",
                checks.len(),
                weights.len()
            )));
        }
        let value = checks
            .iter()
            .zip(weights)
            .map(|(c, w)| c.value as f64 * w.value())
            .sum::<f64>()
            .trunc() as i64;
        Ok(Self {
            state,
            checks,
            value,
            exception_fallback,
        })
    }

    /// Whether an exception check tripped during the state.
    pub fn exception_triggered(&self) -> bool {
        self.exception_fallback.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_rejects_non_finite() {
        assert!(Weight::new(f64::NAN).is_err());
        assert!(Weight::new(f64::INFINITY).is_err());
        assert_eq!(Weight::new(2.5).unwrap().value(), 2.5);
        assert_eq!(Weight::default().value(), 1.0);
    }

    #[test]
    fn mapping_requires_one_result_per_range() {
        let t = Thresholds::new(vec![75, 95]).unwrap();
        assert!(OutcomeMapping::new(t.clone(), vec![1, 2]).is_err());
        assert!(OutcomeMapping::new(t, vec![1, 2, 3]).is_ok());
    }

    #[test]
    fn paper_response_time_mapping() {
        let mapping =
            OutcomeMapping::new(Thresholds::new(vec![75, 95]).unwrap(), vec![-5, 4, 5]).unwrap();
        // "if the check fails more than 24 times [i.e. ≤ 75 successes], the
        // mapping returns −5, between 75 and 95 → 4, otherwise 5"
        assert_eq!(mapping.map(70), -5);
        assert_eq!(mapping.map(75), -5);
        assert_eq!(mapping.map(76), 4);
        assert_eq!(mapping.map(95), 4);
        assert_eq!(mapping.map(96), 5);
        assert_eq!(mapping.map(100), 5);
    }

    #[test]
    fn binary_mapping_matches_dsl_semantics() {
        // DSL: threshold 12 means "true only if all 12 executions succeed".
        let mapping = OutcomeMapping::binary(12, 0, 1).unwrap();
        assert_eq!(mapping.map(12), 1);
        assert_eq!(mapping.map(11), 0);
        assert_eq!(mapping.map(0), 0);
    }

    #[test]
    fn ranges_reconstruct_mapping() {
        let mapping =
            OutcomeMapping::new(Thresholds::new(vec![75, 95]).unwrap(), vec![-5, 4, 5]).unwrap();
        let ranges = mapping.ranges();
        assert_eq!(ranges.len(), 3);
        assert_eq!(
            ranges[0],
            OutcomeRange {
                lower: None,
                upper: Some(75),
                result: -5
            }
        );
        assert_eq!(
            ranges[1],
            OutcomeRange {
                lower: Some(75),
                upper: Some(95),
                result: 4
            }
        );
        assert_eq!(
            ranges[2],
            OutcomeRange {
                lower: Some(95),
                upper: None,
                result: 5
            }
        );
    }

    #[test]
    fn exception_outcomes() {
        let passed = CheckOutcome::exception_passed(CheckId::new(0), 10);
        assert_eq!(passed.value, 10);
        assert!(!passed.exception_triggered);

        let tripped = CheckOutcome::exception_tripped(CheckId::new(0), 4, 5);
        assert_eq!(tripped.value, 4);
        assert!(tripped.exception_triggered);
    }

    #[test]
    fn weighted_combination_truncates_to_integer() {
        let checks = vec![
            CheckOutcome::basic(CheckId::new(0), 90, 100, 4),
            CheckOutcome::basic(CheckId::new(1), 100, 100, 5),
        ];
        let weights = vec![Weight::new(0.5).unwrap(), Weight::new(0.5).unwrap()];
        let outcome = StateOutcome::combine(StateId::new(1), checks, &weights, None).unwrap();
        // 4*0.5 + 5*0.5 = 4.5 → truncated to 4
        assert_eq!(outcome.value, 4);
        assert!(!outcome.exception_triggered());
    }

    #[test]
    fn combination_rejects_mismatched_weights() {
        let checks = vec![CheckOutcome::basic(CheckId::new(0), 1, 1, 1)];
        let err = StateOutcome::combine(StateId::new(0), checks, &[], None).unwrap_err();
        assert!(matches!(err, ModelError::InvalidWeights(_)));
    }

    #[test]
    fn exception_fallback_is_reported() {
        let checks = vec![CheckOutcome::exception_tripped(CheckId::new(0), 2, 3)];
        let outcome = StateOutcome::combine(
            StateId::new(0),
            checks,
            &[Weight::one()],
            Some(StateId::new(9)),
        )
        .unwrap();
        assert!(outcome.exception_triggered());
        assert_eq!(outcome.exception_fallback, Some(StateId::new(9)));
    }
}
