//! High-level phase descriptions that compile into automaton states.
//!
//! The formal model operates on individual states; strategies in practice
//! are written as a sequence of *phases* (canary release, dark launch, A/B
//! test, gradual rollout). A [`PhaseSpec`] captures one such phase along with
//! its checks and duration; [`crate::StrategyBuilder`] expands phases into
//! the corresponding states, transitions, success path, and rollback state.

use crate::check::{Check, CheckSpec};
use crate::ids::{ServiceId, VersionId};
use crate::outcome::{OutcomeMapping, Weight};
use crate::routing::Percentage;
use crate::timer::Timer;
use crate::user::UserSelector;
use std::time::Duration;

/// A check attached to a phase, before ids are assigned.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCheck {
    /// Human-readable name.
    pub name: String,
    /// Metric queries and validators.
    pub spec: CheckSpec,
    /// Re-execution timer.
    pub timer: Timer,
    /// Output mapping for basic checks; `None` marks an exception check
    /// falling back to the strategy's rollback state.
    pub mapping: Option<OutcomeMapping>,
    /// Weight in the state-level combination.
    pub weight: Weight,
}

impl PhaseCheck {
    /// A basic check with the default weight.
    pub fn basic(
        name: impl Into<String>,
        spec: CheckSpec,
        timer: Timer,
        mapping: OutcomeMapping,
    ) -> Self {
        Self {
            name: name.into(),
            spec,
            timer,
            mapping: Some(mapping),
            weight: Weight::one(),
        }
    }

    /// An exception check (falls back to the rollback state on any failure).
    pub fn exception(name: impl Into<String>, spec: CheckSpec, timer: Timer) -> Self {
        Self {
            name: name.into(),
            spec,
            timer,
            mapping: None,
            weight: Weight::one(),
        }
    }

    /// Overrides the weight (builder style).
    pub fn with_weight(mut self, weight: Weight) -> Self {
        self.weight = weight;
        self
    }

    /// Instantiates the check with concrete ids.
    pub(crate) fn instantiate(
        &self,
        id: crate::ids::CheckId,
        rollback: crate::ids::StateId,
    ) -> Check {
        match &self.mapping {
            Some(mapping) => Check::basic(
                id,
                &self.name,
                self.spec.clone(),
                self.timer,
                mapping.clone(),
            ),
            None => Check::exception(id, &self.name, self.spec.clone(), self.timer, rollback),
        }
    }
}

/// The kind of live testing performed in a phase.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseKind {
    /// Canary release: route `share` percent of the selected users to the
    /// canary version, the rest stays on the stable version.
    Canary {
        /// The service being live-tested.
        service: ServiceId,
        /// The stable version.
        stable: VersionId,
        /// The canary version.
        canary: VersionId,
        /// Canary traffic share.
        share: Percentage,
    },
    /// Dark launch: duplicate `share` percent of the traffic hitting
    /// `source` to `shadow`, discarding the shadow's responses.
    DarkLaunch {
        /// The service being live-tested.
        service: ServiceId,
        /// The version whose traffic is observed.
        source: VersionId,
        /// The shadow version receiving duplicated traffic.
        shadow: VersionId,
        /// Share of traffic duplicated.
        share: Percentage,
    },
    /// A/B test: split traffic 50/50 between two alternatives with sticky
    /// sessions.
    AbTest {
        /// The service being live-tested.
        service: ServiceId,
        /// Alternative A.
        a: VersionId,
        /// Alternative B.
        b: VersionId,
    },
    /// Gradual rollout: increase the canary share from `from` to `to` in
    /// `step` increments, holding each step for `step_duration`.
    GradualRollout {
        /// The service being live-tested.
        service: ServiceId,
        /// The version being phased out.
        stable: VersionId,
        /// The version being rolled out.
        canary: VersionId,
        /// Initial canary share.
        from: Percentage,
        /// Final canary share.
        to: Percentage,
        /// Share increment per step.
        step: Percentage,
        /// Duration of each step.
        step_duration: Duration,
    },
}

/// A declarative phase of a multi-phase live testing strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    name: String,
    kind: PhaseKind,
    checks: Vec<PhaseCheck>,
    duration: Option<Duration>,
    selector: UserSelector,
    sticky: bool,
}

impl PhaseSpec {
    /// Creates a phase from its kind.
    pub fn new(name: impl Into<String>, kind: PhaseKind) -> Self {
        let sticky = matches!(kind, PhaseKind::AbTest { .. });
        Self {
            name: name.into(),
            kind,
            checks: Vec::new(),
            duration: None,
            selector: UserSelector::All,
            sticky,
        }
    }

    /// Convenience constructor for a canary phase.
    pub fn canary(
        name: impl Into<String>,
        service: ServiceId,
        stable: VersionId,
        canary: VersionId,
        share: Percentage,
    ) -> Self {
        Self::new(
            name,
            PhaseKind::Canary {
                service,
                stable,
                canary,
                share,
            },
        )
    }

    /// Convenience constructor for a dark-launch phase.
    pub fn dark_launch(
        name: impl Into<String>,
        service: ServiceId,
        source: VersionId,
        shadow: VersionId,
        share: Percentage,
    ) -> Self {
        Self::new(
            name,
            PhaseKind::DarkLaunch {
                service,
                source,
                shadow,
                share,
            },
        )
    }

    /// Convenience constructor for an A/B test phase.
    pub fn ab_test(
        name: impl Into<String>,
        service: ServiceId,
        a: VersionId,
        b: VersionId,
    ) -> Self {
        Self::new(name, PhaseKind::AbTest { service, a, b })
    }

    /// Convenience constructor for a gradual rollout phase.
    #[allow(clippy::too_many_arguments)]
    pub fn gradual_rollout(
        name: impl Into<String>,
        service: ServiceId,
        stable: VersionId,
        canary: VersionId,
        from: Percentage,
        to: Percentage,
        step: Percentage,
        step_duration: Duration,
    ) -> Self {
        Self::new(
            name,
            PhaseKind::GradualRollout {
                service,
                stable,
                canary,
                from,
                to,
                step,
                step_duration,
            },
        )
    }

    /// Adds a check to the phase (builder style).
    pub fn check(mut self, check: PhaseCheck) -> Self {
        self.checks.push(check);
        self
    }

    /// Sets an explicit phase duration in seconds (builder style).
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.duration = Some(Duration::from_secs(secs));
        self
    }

    /// Sets an explicit phase duration (builder style).
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Restricts the phase to users matched by `selector` (builder style).
    pub fn selector(mut self, selector: UserSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Overrides whether sessions are sticky within the phase (builder style).
    pub fn sticky(mut self, sticky: bool) -> Self {
        self.sticky = sticky;
        self
    }

    /// The phase name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phase kind.
    pub fn kind(&self) -> &PhaseKind {
        &self.kind
    }

    /// The phase checks.
    pub fn checks(&self) -> &[PhaseCheck] {
        &self.checks
    }

    /// The explicit phase duration, if any.
    pub fn explicit_duration(&self) -> Option<Duration> {
        self.duration
    }

    /// The user selector of the phase.
    pub fn user_selector(&self) -> &UserSelector {
        &self.selector
    }

    /// Whether sessions are sticky within the phase.
    pub fn is_sticky(&self) -> bool {
        self.sticky
    }

    /// Number of automaton states this phase expands into (gradual rollouts
    /// expand into one state per step, every other phase into one state).
    pub fn state_count(&self) -> usize {
        match &self.kind {
            PhaseKind::GradualRollout { from, to, step, .. } => {
                gradual_steps(*from, *to, *step).len()
            }
            _ => 1,
        }
    }

    /// The service this phase operates on.
    pub fn service(&self) -> ServiceId {
        match self.kind {
            PhaseKind::Canary { service, .. }
            | PhaseKind::DarkLaunch { service, .. }
            | PhaseKind::AbTest { service, .. }
            | PhaseKind::GradualRollout { service, .. } => service,
        }
    }

    /// All versions referenced by the phase.
    pub fn versions(&self) -> Vec<VersionId> {
        match self.kind {
            PhaseKind::Canary { stable, canary, .. } => vec![stable, canary],
            PhaseKind::DarkLaunch { source, shadow, .. } => vec![source, shadow],
            PhaseKind::AbTest { a, b, .. } => vec![a, b],
            PhaseKind::GradualRollout { stable, canary, .. } => vec![stable, canary],
        }
    }
}

/// The canary shares of every step of a gradual rollout: `from`, `from+step`,
/// …, capped at `to` (the final step always equals `to`).
pub(crate) fn gradual_steps(from: Percentage, to: Percentage, step: Percentage) -> Vec<Percentage> {
    let mut shares = Vec::new();
    if step.value() <= 0.0 || from.value() > to.value() {
        shares.push(to);
        return shares;
    }
    let mut current = from.value();
    loop {
        if current >= to.value() {
            shares.push(to);
            break;
        }
        shares.push(Percentage::new(current).expect("bounded by from/to"));
        current += step.value();
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{MetricQuery, Validator};

    fn ids() -> (ServiceId, VersionId, VersionId) {
        (ServiceId::new(0), VersionId::new(0), VersionId::new(1))
    }

    #[test]
    fn canary_phase_defaults() {
        let (svc, v1, v2) = ids();
        let phase = PhaseSpec::canary("canary", svc, v1, v2, Percentage::new(5.0).unwrap());
        assert_eq!(phase.name(), "canary");
        assert_eq!(phase.state_count(), 1);
        assert_eq!(phase.service(), svc);
        assert_eq!(phase.versions(), vec![v1, v2]);
        assert!(!phase.is_sticky());
        assert_eq!(phase.user_selector(), &UserSelector::All);
    }

    #[test]
    fn ab_test_is_sticky_by_default() {
        let (svc, v1, v2) = ids();
        assert!(PhaseSpec::ab_test("ab", svc, v1, v2).is_sticky());
        assert!(!PhaseSpec::ab_test("ab", svc, v1, v2)
            .sticky(false)
            .is_sticky());
    }

    #[test]
    fn gradual_steps_match_paper_experiment() {
        // 5% → 100% in 5% steps: 5, 10, …, 95, 100 → 20 states, matching the
        // paper's "Corresponds to 20 states in the model".
        let steps = gradual_steps(
            Percentage::new(5.0).unwrap(),
            Percentage::new(100.0).unwrap(),
            Percentage::new(5.0).unwrap(),
        );
        assert_eq!(steps.len(), 20);
        assert_eq!(steps[0].value(), 5.0);
        assert_eq!(steps[19].value(), 100.0);
    }

    #[test]
    fn gradual_steps_cap_at_target() {
        let steps = gradual_steps(
            Percentage::new(10.0).unwrap(),
            Percentage::new(50.0).unwrap(),
            Percentage::new(15.0).unwrap(),
        );
        // 10, 25, 40, 50
        assert_eq!(steps.len(), 4);
        assert_eq!(steps.last().unwrap().value(), 50.0);
    }

    #[test]
    fn degenerate_gradual_steps() {
        // from > to or zero step collapses to a single step at the target.
        assert_eq!(
            gradual_steps(
                Percentage::new(80.0).unwrap(),
                Percentage::new(50.0).unwrap(),
                Percentage::new(5.0).unwrap()
            )
            .len(),
            1
        );
        assert_eq!(
            gradual_steps(
                Percentage::new(0.0).unwrap(),
                Percentage::new(50.0).unwrap(),
                Percentage::zero()
            )
            .len(),
            1
        );
    }

    #[test]
    fn gradual_rollout_state_count() {
        let (svc, v1, v2) = ids();
        let phase = PhaseSpec::gradual_rollout(
            "rollout",
            svc,
            v1,
            v2,
            Percentage::new(5.0).unwrap(),
            Percentage::new(100.0).unwrap(),
            Percentage::new(5.0).unwrap(),
            Duration::from_secs(10),
        );
        assert_eq!(phase.state_count(), 20);
    }

    #[test]
    fn phase_checks_and_duration_builders() {
        let (svc, v1, v2) = ids();
        let check = PhaseCheck::basic(
            "errors",
            CheckSpec::single(
                MetricQuery::new("prometheus", "errors", "request_errors"),
                Validator::LessThan(5.0),
            ),
            Timer::from_secs(12, 5).unwrap(),
            OutcomeMapping::binary(5, 0, 5).unwrap(),
        )
        .with_weight(Weight::new(2.0).unwrap());
        let phase = PhaseSpec::dark_launch("dark", svc, v1, v2, Percentage::full())
            .check(check)
            .duration_secs(60)
            .selector(UserSelector::attribute("country", "US"));
        assert_eq!(phase.checks().len(), 1);
        assert_eq!(phase.checks()[0].weight.value(), 2.0);
        assert_eq!(phase.explicit_duration(), Some(Duration::from_secs(60)));
        assert!(matches!(phase.kind(), PhaseKind::DarkLaunch { .. }));
    }
}
