//! Automaton states `sᵢ = ⟨C, T, W, Φ, η⟩`.
//!
//! A state bundles the checks `C` executed in parallel, the thresholds `T`
//! used by the transition function, the weights `W` of the linear
//! combination, the dynamic routing configurations `Φ` activated while the
//! state is running, and the user selection function `η` (carried inside the
//! routing rules' selectors).

use crate::check::Check;
use crate::error::ModelError;
use crate::ids::{CheckId, StateId};
use crate::outcome::Weight;
use crate::routing::RoutingRule;
use crate::thresholds::Thresholds;
use std::time::Duration;

/// One state of the release automaton.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    id: StateId,
    name: String,
    checks: Vec<Check>,
    weights: Vec<Weight>,
    thresholds: Option<Thresholds>,
    routing: Vec<RoutingRule>,
    duration: Duration,
}

impl State {
    /// Starts building a state. See [`StateBuilder`].
    pub fn builder(id: StateId, name: impl Into<String>) -> StateBuilder {
        StateBuilder::new(id, name)
    }

    /// The state id.
    pub fn id(&self) -> StateId {
        self.id
    }

    /// The human-readable state name (e.g. `"canary-5"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The checks executed in parallel while the state is active.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// Looks up a check by id.
    pub fn check(&self, id: CheckId) -> Option<&Check> {
        self.checks.iter().find(|c| c.id() == id)
    }

    /// The weights `W`, index-aligned with [`State::checks`].
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// The thresholds `T` of the transition function for this state, if the
    /// state has outgoing outcome-based transitions (final states have none).
    pub fn thresholds(&self) -> Option<&Thresholds> {
        self.thresholds.as_ref()
    }

    /// The routing rules `Φ` activated when the state is entered.
    pub fn routing(&self) -> &[RoutingRule] {
        &self.routing
    }

    /// The nominal duration of the state: the time until the slowest check
    /// has finished all its repetitions, or an explicitly configured
    /// duration for states without checks (e.g. pure gradual-rollout steps).
    pub fn duration(&self) -> Duration {
        self.duration
    }

    /// Whether the state contains at least one exception check.
    pub fn has_exception_checks(&self) -> bool {
        self.checks.iter().any(Check::is_exception)
    }
}

/// Builder for [`State`].
#[derive(Debug)]
pub struct StateBuilder {
    id: StateId,
    name: String,
    checks: Vec<Check>,
    weights: Vec<Weight>,
    thresholds: Option<Thresholds>,
    routing: Vec<RoutingRule>,
    duration: Option<Duration>,
}

impl StateBuilder {
    /// Creates a builder for a state with the given id and name.
    pub fn new(id: StateId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            checks: Vec::new(),
            weights: Vec::new(),
            thresholds: None,
            routing: Vec::new(),
            duration: None,
        }
    }

    /// Adds a check with the default weight of 1.0.
    pub fn check(self, check: Check) -> Self {
        self.weighted_check(check, Weight::one())
    }

    /// Adds a check with an explicit weight.
    pub fn weighted_check(mut self, check: Check, weight: Weight) -> Self {
        self.checks.push(check);
        self.weights.push(weight);
        self
    }

    /// Sets the thresholds used by the transition function for this state.
    pub fn thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = Some(thresholds);
        self
    }

    /// Adds a routing rule activated when the state is entered.
    pub fn routing(mut self, rule: RoutingRule) -> Self {
        self.routing.push(rule);
        self
    }

    /// Overrides the state duration. Without an override, the duration is the
    /// maximum total timer duration across all checks.
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Finalises the state.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Validation`] if the state has neither checks nor
    /// an explicit duration (its end would be undefined), or
    /// [`ModelError::Duplicate`] if two checks share an id.
    pub fn build(self) -> Result<State, ModelError> {
        for (i, check) in self.checks.iter().enumerate() {
            if self.checks[i + 1..].iter().any(|c| c.id() == check.id()) {
                return Err(ModelError::Duplicate(format!(
                    "check {} in state '{}'",
                    check.id(),
                    self.name
                )));
            }
        }
        let check_duration = self
            .checks
            .iter()
            .map(|c| c.timer().total_duration())
            .max()
            .unwrap_or(Duration::ZERO);
        let duration = match self.duration {
            Some(d) => d.max(check_duration),
            None if self.checks.is_empty() => {
                return Err(ModelError::Validation(format!(
                    "state '{}' has neither checks nor an explicit duration",
                    self.name
                )))
            }
            None => check_duration,
        };
        Ok(State {
            id: self.id,
            name: self.name,
            checks: self.checks,
            weights: self.weights,
            thresholds: self.thresholds,
            routing: self.routing,
            duration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{CheckSpec, MetricQuery, Validator};
    use crate::ids::{ServiceId, VersionId};
    use crate::outcome::OutcomeMapping;
    use crate::routing::{Percentage, RoutingMode, RoutingRule, TrafficSplit};
    use crate::timer::Timer;
    use crate::user::UserSelector;

    fn sample_check(id: u64, interval_secs: u64, reps: u32) -> Check {
        Check::basic(
            CheckId::new(id),
            format!("check-{id}"),
            CheckSpec::single(
                MetricQuery::new("prometheus", "errors", "request_errors"),
                Validator::LessThan(5.0),
            ),
            Timer::from_secs(interval_secs, reps).unwrap(),
            OutcomeMapping::binary(reps as i64, 0, 1).unwrap(),
        )
    }

    fn sample_routing() -> RoutingRule {
        RoutingRule::Split {
            service: ServiceId::new(0),
            split: TrafficSplit::canary(
                VersionId::new(0),
                VersionId::new(1),
                Percentage::new(5.0).unwrap(),
            )
            .unwrap(),
            sticky: false,
            selector: UserSelector::All,
            mode: RoutingMode::CookieBased,
        }
    }

    #[test]
    fn duration_is_max_of_check_timers() {
        let state = State::builder(StateId::new(0), "canary")
            .check(sample_check(0, 5, 12)) // 60 s
            .check(sample_check(1, 10, 3)) // 30 s
            .thresholds(Thresholds::single(1))
            .routing(sample_routing())
            .build()
            .unwrap();
        assert_eq!(state.duration(), Duration::from_secs(60));
        assert_eq!(state.checks().len(), 2);
        assert_eq!(state.weights().len(), 2);
        assert!(state.thresholds().is_some());
        assert_eq!(state.routing().len(), 1);
        assert!(!state.has_exception_checks());
        assert!(state.check(CheckId::new(1)).is_some());
        assert!(state.check(CheckId::new(9)).is_none());
    }

    #[test]
    fn explicit_duration_extends_but_never_truncates_checks() {
        let state = State::builder(StateId::new(0), "s")
            .check(sample_check(0, 5, 12))
            .duration(Duration::from_secs(10))
            .build()
            .unwrap();
        // Cannot end before the slowest check finishes.
        assert_eq!(state.duration(), Duration::from_secs(60));

        let state = State::builder(StateId::new(0), "s")
            .check(sample_check(0, 5, 2))
            .duration(Duration::from_secs(120))
            .build()
            .unwrap();
        assert_eq!(state.duration(), Duration::from_secs(120));
    }

    #[test]
    fn state_without_checks_needs_duration() {
        assert!(State::builder(StateId::new(0), "rollout-step")
            .build()
            .is_err());
        let state = State::builder(StateId::new(0), "rollout-step")
            .duration(Duration::from_secs(10))
            .routing(sample_routing())
            .build()
            .unwrap();
        assert_eq!(state.duration(), Duration::from_secs(10));
        assert!(state.checks().is_empty());
    }

    #[test]
    fn duplicate_check_ids_rejected() {
        let err = State::builder(StateId::new(0), "s")
            .check(sample_check(3, 5, 1))
            .check(sample_check(3, 10, 1))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::Duplicate(_)));
    }

    #[test]
    fn exception_checks_detected() {
        let exception = Check::exception(
            CheckId::new(7),
            "error-spike",
            CheckSpec::single(
                MetricQuery::new("prometheus", "errors", "request_errors"),
                Validator::LessThan(100.0),
            ),
            Timer::from_secs(5, 12).unwrap(),
            StateId::new(42),
        );
        let state = State::builder(StateId::new(0), "a")
            .check(sample_check(0, 5, 12))
            .check(exception)
            .build()
            .unwrap();
        assert!(state.has_exception_checks());
    }

    #[test]
    fn weighted_checks_keep_weight_order() {
        let state = State::builder(StateId::new(0), "s")
            .weighted_check(sample_check(0, 5, 1), Weight::new(0.25).unwrap())
            .weighted_check(sample_check(1, 5, 1), Weight::new(0.75).unwrap())
            .build()
            .unwrap();
        assert_eq!(state.weights()[0].value(), 0.25);
        assert_eq!(state.weights()[1].value(), 0.75);
    }
}
