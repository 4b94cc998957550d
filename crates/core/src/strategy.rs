//! Strategies `S = ⟨B, A⟩` and the phase-oriented strategy builder.
//!
//! A [`Strategy`] pairs the service catalog with the release automaton. The
//! [`StrategyBuilder`] offers the ergonomic, phase-oriented way of building
//! one: a sequence of [`PhaseSpec`]s is expanded into automaton states wired
//! up in order, with a shared *success* final state at the end and a shared
//! *rollback* final state that every phase can fall back to.

use crate::automaton::{Automaton, AutomatonBuilder};
use crate::error::ModelError;
use crate::ids::{IdAllocator, StateId, StrategyId};
use crate::outcome::{OutcomeMapping, Weight};
use crate::phase::{gradual_steps, PhaseKind, PhaseSpec};
use crate::routing::{DarkLaunchRoute, RoutingMode, RoutingRule, TrafficSplit};
use crate::service::ServiceCatalog;
use crate::state::State;
use crate::thresholds::Thresholds;
use crate::timer::Timer;
use std::time::Duration;

/// A complete multi-phase live testing strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    id: StrategyId,
    name: String,
    services: ServiceCatalog,
    automaton: Automaton,
    success_state: StateId,
    rollback_state: StateId,
}

impl Strategy {
    /// Assembles a strategy directly from its parts: a catalog, a
    /// hand-built automaton, and the designated success and rollback final
    /// states. This is the escape hatch for strategies the phase-oriented
    /// [`StrategyBuilder`] cannot express (e.g. traffic splits across more
    /// than two versions in one state).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidStrategy`] if either designated final
    /// state is not a final state of the automaton, or if the strategy fails
    /// cross-reference validation (see [`Strategy::validate`]).
    pub fn from_parts(
        id: StrategyId,
        name: impl Into<String>,
        services: ServiceCatalog,
        automaton: Automaton,
        success_state: StateId,
        rollback_state: StateId,
    ) -> Result<Self, ModelError> {
        for (role, state) in [("success", success_state), ("rollback", rollback_state)] {
            if !automaton.is_final(state) {
                return Err(ModelError::InvalidStrategy(format!(
                    "designated {role} state {state} is not a final state of the automaton"
                )));
            }
        }
        let strategy = Self {
            id,
            name: name.into(),
            services,
            automaton,
            success_state,
            rollback_state,
        };
        strategy.validate()?;
        Ok(strategy)
    }

    /// The strategy id.
    pub fn id(&self) -> StrategyId {
        self.id
    }

    /// The strategy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The service catalog `B`.
    pub fn services(&self) -> &ServiceCatalog {
        &self.services
    }

    /// The release automaton `A`.
    pub fn automaton(&self) -> &Automaton {
        &self.automaton
    }

    /// The final state representing a fully completed rollout.
    pub fn success_state(&self) -> StateId {
        self.success_state
    }

    /// The final state representing a rollback.
    pub fn rollback_state(&self) -> StateId {
        self.rollback_state
    }

    /// Whether the given final state means the rollout succeeded.
    pub fn is_success(&self, state: StateId) -> bool {
        state == self.success_state
    }

    /// Total nominal duration of the happy path (sum of state durations from
    /// the start state following the highest-outcome transitions until a
    /// final state is reached). This supports "reasoning about the strategy
    /// in terms of expected rollout time".
    pub fn nominal_duration(&self) -> Duration {
        let mut total = Duration::ZERO;
        let mut current = self.automaton.start();
        let mut visited = std::collections::BTreeSet::new();
        while !self.automaton.is_final(current) && visited.insert(current) {
            let state = match self.automaton.state(current) {
                Some(s) => s,
                None => break,
            };
            total += state.duration();
            let table = match self.automaton.transitions_of(current) {
                Some(t) => t,
                None => break,
            };
            // Highest range = best outcome = the happy path.
            match table.target(table.len().saturating_sub(1)) {
                Some(next) if next != current => current = next,
                _ => break,
            }
        }
        total
    }

    /// Validates the cross-references between the automaton and the catalog:
    /// every routing rule must reference known versions of known services.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidStrategy`] describing the first dangling
    /// reference found.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.services.service_count() == 0 {
            return Err(ModelError::InvalidStrategy(
                "strategy has an empty service set".into(),
            ));
        }
        for state in self.automaton.states().values() {
            for rule in state.routing() {
                let service = rule.service();
                if !self.services.contains_service(service) {
                    return Err(ModelError::InvalidStrategy(format!(
                        "state '{}' routes unknown service {service}",
                        state.name()
                    )));
                }
                for version in rule.versions() {
                    self.services
                        .ensure_version_of(service, version)
                        .map_err(|e| {
                            ModelError::InvalidStrategy(format!("state '{}': {e}", state.name()))
                        })?;
                }
            }
        }
        Ok(())
    }
}

/// Builds a [`Strategy`] from a sequence of phases.
#[derive(Debug)]
pub struct StrategyBuilder {
    id: StrategyId,
    name: String,
    services: ServiceCatalog,
    phases: Vec<PhaseSpec>,
    routing_mode: RoutingMode,
}

impl StrategyBuilder {
    /// Creates a builder for a strategy over the given catalog.
    pub fn new(name: impl Into<String>, services: ServiceCatalog) -> Self {
        Self {
            id: StrategyId::new(0),
            name: name.into(),
            services,
            phases: Vec::new(),
            routing_mode: RoutingMode::CookieBased,
        }
    }

    /// Overrides the strategy id (defaults to 0; the engine reassigns ids on
    /// scheduling).
    pub fn id(mut self, id: StrategyId) -> Self {
        self.id = id;
        self
    }

    /// Selects header-based instead of cookie-based routing for all phases.
    pub fn routing_mode(mut self, mode: RoutingMode) -> Self {
        self.routing_mode = mode;
        self
    }

    /// Appends a phase.
    pub fn phase(mut self, phase: PhaseSpec) -> Self {
        self.phases.push(phase);
        self
    }

    /// Appends several phases.
    pub fn phases(mut self, phases: impl IntoIterator<Item = PhaseSpec>) -> Self {
        self.phases.extend(phases);
        self
    }

    /// Expands the phases into an automaton and assembles the strategy.
    ///
    /// Every phase becomes one state (gradual rollouts: one state per step).
    /// Each state transitions to the next phase's first state when its
    /// outcome exceeds the success threshold and to the shared rollback state
    /// otherwise; the last phase transitions to the shared success state.
    /// Phases without checks get a single pass-through threshold so that the
    /// structural invariants of the automaton hold.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidStrategy`] if no phase is given or a
    /// phase references services/versions not present in the catalog, and
    /// propagates automaton validation errors.
    pub fn build(self) -> Result<Strategy, ModelError> {
        if self.phases.is_empty() {
            return Err(ModelError::InvalidStrategy(
                "a strategy needs at least one phase".into(),
            ));
        }
        for phase in &self.phases {
            let service = phase.service();
            if !self.services.contains_service(service) {
                return Err(ModelError::InvalidStrategy(format!(
                    "phase '{}' references unknown service {service}",
                    phase.name()
                )));
            }
            for version in phase.versions() {
                self.services
                    .ensure_version_of(service, version)
                    .map_err(|e| {
                        ModelError::InvalidStrategy(format!("phase '{}': {e}", phase.name()))
                    })?;
            }
        }

        let mut state_ids = IdAllocator::new();
        let mut check_ids = IdAllocator::new();

        // Pre-allocate ids: phase states first, then success and rollback.
        let mut phase_state_ids: Vec<Vec<StateId>> = Vec::with_capacity(self.phases.len());
        for phase in &self.phases {
            let ids = (0..phase.state_count())
                .map(|_| state_ids.next_id())
                .collect();
            phase_state_ids.push(ids);
        }
        let success: StateId = state_ids.next_id();
        let rollback: StateId = state_ids.next_id();

        let mut builder = AutomatonBuilder::new();
        let mut transitions: Vec<(StateId, Vec<StateId>)> = Vec::new();

        for (phase_index, phase) in self.phases.iter().enumerate() {
            let ids = &phase_state_ids[phase_index];
            let next_phase_entry = phase_state_ids
                .get(phase_index + 1)
                .and_then(|v| v.first().copied())
                .unwrap_or(success);

            match phase.kind() {
                PhaseKind::GradualRollout {
                    service,
                    stable,
                    canary,
                    from,
                    to,
                    step,
                    step_duration,
                } => {
                    let shares = gradual_steps(*from, *to, *step);
                    for (step_index, share) in shares.iter().enumerate() {
                        let state_id = ids[step_index];
                        let next = ids.get(step_index + 1).copied().unwrap_or(next_phase_entry);
                        let split = TrafficSplit::canary(*stable, *canary, *share)?;
                        let rule = RoutingRule::Split {
                            service: *service,
                            split,
                            sticky: phase.is_sticky(),
                            selector: phase.user_selector().clone(),
                            mode: self.routing_mode,
                        };
                        let state = self.build_state(
                            state_id,
                            &format!("{}-{}pct", phase.name(), share.value()),
                            phase,
                            vec![rule],
                            Some(*step_duration),
                            rollback,
                            &mut check_ids,
                        )?;
                        builder = builder.state(state);
                        transitions.push((state_id, vec![rollback, next]));
                    }
                }
                kind => {
                    let state_id = ids[0];
                    let rule = match kind {
                        PhaseKind::Canary {
                            service,
                            stable,
                            canary,
                            share,
                        } => RoutingRule::Split {
                            service: *service,
                            split: TrafficSplit::canary(*stable, *canary, *share)?,
                            sticky: phase.is_sticky(),
                            selector: phase.user_selector().clone(),
                            mode: self.routing_mode,
                        },
                        PhaseKind::AbTest { service, a, b } => RoutingRule::Split {
                            service: *service,
                            split: TrafficSplit::ab(*a, *b)?,
                            sticky: phase.is_sticky(),
                            selector: phase.user_selector().clone(),
                            mode: self.routing_mode,
                        },
                        PhaseKind::DarkLaunch {
                            service,
                            source,
                            shadow,
                            share,
                        } => RoutingRule::Shadow {
                            service: *service,
                            route: DarkLaunchRoute::new(*source, *shadow, *share),
                        },
                        PhaseKind::GradualRollout { .. } => unreachable!("handled above"),
                    };
                    let state = self.build_state(
                        state_id,
                        phase.name(),
                        phase,
                        vec![rule],
                        phase.explicit_duration(),
                        rollback,
                        &mut check_ids,
                    )?;
                    builder = builder.state(state);
                    transitions.push((state_id, vec![rollback, next_phase_entry]));
                }
            }
        }

        // Terminal states: success keeps 100 % on the rolled-out version of
        // the last phase's service; rollback reverts to the stable version of
        // the first phase's service. Both are modelled as short final states.
        let last_phase = self.phases.last().expect("non-empty");
        let first_phase = self.phases.first().expect("non-empty");
        let success_rule = terminal_rule(last_phase, true, self.routing_mode);
        let rollback_rule = terminal_rule(first_phase, false, self.routing_mode);
        let success_state = State::builder(success, "success")
            .duration(Duration::from_secs(1))
            .routing(success_rule)
            .build()?;
        let rollback_state = State::builder(rollback, "rollback")
            .duration(Duration::from_secs(1))
            .routing(rollback_rule)
            .build()?;
        builder = builder
            .state(success_state)
            .state(rollback_state)
            .start(phase_state_ids[0][0])
            .final_state(success)
            .final_state(rollback);
        for (from, targets) in transitions {
            builder = builder.transition(from, targets);
        }
        let automaton = builder.build()?;
        let strategy = Strategy {
            id: self.id,
            name: self.name,
            services: self.services,
            automaton,
            success_state: success,
            rollback_state: rollback,
        };
        strategy.validate()?;
        Ok(strategy)
    }

    /// Builds a single state for a phase: instantiate the phase's checks (or
    /// a pass-through threshold when there are none) plus routing rules.
    ///
    /// The builder's single-threshold semantics are "the state passes iff the
    /// weighted outcome is strictly positive". Basic checks contribute their
    /// mapped value; exception checks are weighted with 0 in the linear
    /// combination because their role is to abort *immediately* on failure
    /// (via the fallback transition) — letting their raw success count flow
    /// into the sum would mask failing basic checks. States whose only checks
    /// are exception checks (and states without any checks) get a synthetic
    /// always-pass check so that an uneventful phase still advances.
    #[allow(clippy::too_many_arguments)]
    fn build_state(
        &self,
        id: StateId,
        name: &str,
        phase: &PhaseSpec,
        rules: Vec<RoutingRule>,
        duration: Option<Duration>,
        rollback: StateId,
        check_ids: &mut IdAllocator,
    ) -> Result<State, ModelError> {
        let mut builder = State::builder(id, name);
        for rule in rules {
            builder = builder.routing(rule);
        }
        let has_basic_checks = phase.checks().iter().any(|c| c.mapping.is_some());
        let pass_check = |check_ids: &mut IdAllocator,
                          duration: Duration|
         -> Result<crate::check::Check, ModelError> {
            Ok(crate::check::Check::basic(
                check_ids.next_id(),
                format!("{name}-pass"),
                crate::check::CheckSpec::all_of(vec![]),
                Timer::new(duration, 1)?,
                OutcomeMapping::binary(0, 0, 1)?,
            ))
        };
        if phase.checks().is_empty() {
            // No checks: the state passes automatically after its duration.
            let duration = duration
                .or(phase.explicit_duration())
                .unwrap_or(Duration::from_secs(60));
            builder = builder
                .check(pass_check(check_ids, duration)?)
                .thresholds(Thresholds::single(0))
                .duration(duration);
        } else {
            for phase_check in phase.checks() {
                let check = phase_check.instantiate(check_ids.next_id(), rollback);
                let weight = if check.is_exception() {
                    Weight::new(0.0).expect("zero is finite")
                } else {
                    phase_check.weight
                };
                builder = builder.weighted_check(check, weight);
            }
            let state_duration = duration.or(phase.explicit_duration());
            if !has_basic_checks {
                // Only exception checks: add a synthetic pass so the outcome
                // is positive when nothing trips.
                let pass_duration = state_duration.unwrap_or(Duration::from_secs(60));
                builder = builder.check(pass_check(check_ids, pass_duration)?);
            }
            // Success iff the weighted combination is strictly positive.
            builder = builder.thresholds(Thresholds::single(0));
            if let Some(d) = state_duration {
                builder = builder.duration(d);
            }
        }
        builder.build()
    }
}

/// The routing rule installed by a terminal state: all traffic to the new
/// version (success) or all traffic back to the stable version (rollback).
fn terminal_rule(phase: &PhaseSpec, success: bool, mode: RoutingMode) -> RoutingRule {
    let service = phase.service();
    let versions = phase.versions();
    let stable = versions[0];
    let new = versions[1];
    let target = if success { new } else { stable };
    RoutingRule::Split {
        service,
        split: TrafficSplit::all_to(target),
        sticky: false,
        selector: crate::user::UserSelector::All,
        mode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{CheckSpec, MetricQuery, Validator};
    use crate::ids::{ServiceId, VersionId};
    use crate::phase::PhaseCheck;
    use crate::routing::Percentage;
    use crate::service::{Endpoint, Service, ServiceVersion};

    fn catalog() -> (ServiceCatalog, ServiceId, VersionId, VersionId) {
        let mut catalog = ServiceCatalog::new();
        let search = catalog.add_service(Service::new("search"));
        let stable = catalog
            .add_version(
                search,
                ServiceVersion::new("search-v1", Endpoint::new("10.0.0.1", 80)),
            )
            .unwrap();
        let fast = catalog
            .add_version(
                search,
                ServiceVersion::new("fastsearch", Endpoint::new("10.0.0.2", 80)),
            )
            .unwrap();
        (catalog, search, stable, fast)
    }

    fn error_check() -> PhaseCheck {
        PhaseCheck::basic(
            "errors",
            CheckSpec::single(
                MetricQuery::new("prometheus", "errors", "request_errors"),
                Validator::LessThan(5.0),
            ),
            Timer::from_secs(12, 5).unwrap(),
            OutcomeMapping::binary(5, -1, 1).unwrap(),
        )
    }

    #[test]
    fn single_canary_phase_builds_three_states() {
        let (catalog, search, stable, fast) = catalog();
        let strategy = StrategyBuilder::new("canary-only", catalog)
            .phase(
                PhaseSpec::canary(
                    "canary-5",
                    search,
                    stable,
                    fast,
                    Percentage::new(5.0).unwrap(),
                )
                .check(error_check()),
            )
            .build()
            .unwrap();
        assert_eq!(strategy.automaton().state_count(), 3);
        assert_eq!(strategy.name(), "canary-only");
        assert!(strategy.automaton().is_final(strategy.success_state()));
        assert!(strategy.automaton().is_final(strategy.rollback_state()));
        assert!(strategy.is_success(strategy.success_state()));
        assert!(!strategy.is_success(strategy.rollback_state()));
        strategy.validate().unwrap();
    }

    #[test]
    fn multi_phase_strategy_chains_phases() {
        let (catalog, search, stable, fast) = catalog();
        let strategy = StrategyBuilder::new("full", catalog)
            .phase(
                PhaseSpec::canary(
                    "canary",
                    search,
                    stable,
                    fast,
                    Percentage::new(5.0).unwrap(),
                )
                .check(error_check())
                .duration_secs(60),
            )
            .phase(
                PhaseSpec::dark_launch("dark", search, stable, fast, Percentage::full())
                    .duration_secs(60),
            )
            .phase(
                PhaseSpec::ab_test("ab", search, stable, fast)
                    .check(error_check())
                    .duration_secs(60),
            )
            .phase(PhaseSpec::gradual_rollout(
                "rollout",
                search,
                stable,
                fast,
                Percentage::new(5.0).unwrap(),
                Percentage::new(100.0).unwrap(),
                Percentage::new(5.0).unwrap(),
                Duration::from_secs(10),
            ))
            .build()
            .unwrap();
        // 1 + 1 + 1 + 20 phase states + success + rollback
        assert_eq!(strategy.automaton().state_count(), 25);
        // Start state is the canary state.
        let start = strategy
            .automaton()
            .state(strategy.automaton().start())
            .unwrap();
        assert_eq!(start.name(), "canary");
        // Every non-final state can reach rollback (first transition target).
        for id in strategy.automaton().states().keys() {
            if !strategy.automaton().is_final(*id) {
                let table = strategy.automaton().transitions_of(*id).unwrap();
                assert_eq!(table.target(0), Some(strategy.rollback_state()));
            }
        }
    }

    #[test]
    fn empty_strategy_rejected() {
        let (catalog, _, _, _) = catalog();
        assert!(matches!(
            StrategyBuilder::new("empty", catalog).build(),
            Err(ModelError::InvalidStrategy(_))
        ));
    }

    #[test]
    fn phase_with_foreign_version_rejected() {
        let (mut catalog, search, stable, _) = catalog();
        let product = catalog.add_service(Service::new("product"));
        let product_v = catalog
            .add_version(
                product,
                ServiceVersion::new("v1", Endpoint::new("10.0.1.1", 80)),
            )
            .unwrap();
        let err = StrategyBuilder::new("broken", catalog)
            .phase(PhaseSpec::canary(
                "canary",
                search,
                stable,
                product_v,
                Percentage::new(5.0).unwrap(),
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidStrategy(_)));
    }

    #[test]
    fn nominal_duration_sums_happy_path() {
        let (catalog, search, stable, fast) = catalog();
        let strategy = StrategyBuilder::new("timed", catalog)
            .phase(
                PhaseSpec::canary(
                    "canary",
                    search,
                    stable,
                    fast,
                    Percentage::new(5.0).unwrap(),
                )
                .duration_secs(60),
            )
            .phase(
                PhaseSpec::dark_launch("dark", search, stable, fast, Percentage::full())
                    .duration_secs(60),
            )
            .build()
            .unwrap();
        // 60 + 60 + 1 s success state... nominal duration counts only
        // non-final states on the happy path.
        assert_eq!(strategy.nominal_duration(), Duration::from_secs(120));
    }

    #[test]
    fn gradual_rollout_steps_route_increasing_shares() {
        let (catalog, search, stable, fast) = catalog();
        let strategy = StrategyBuilder::new("rollout", catalog)
            .phase(PhaseSpec::gradual_rollout(
                "rollout",
                search,
                stable,
                fast,
                Percentage::new(5.0).unwrap(),
                Percentage::new(20.0).unwrap(),
                Percentage::new(5.0).unwrap(),
                Duration::from_secs(10),
            ))
            .build()
            .unwrap();
        // Steps: 5, 10, 15, 20 → 4 states + success + rollback.
        assert_eq!(strategy.automaton().state_count(), 6);
        let mut shares = Vec::new();
        let mut current = strategy.automaton().start();
        while !strategy.automaton().is_final(current) {
            let state = strategy.automaton().state(current).unwrap();
            if let Some(RoutingRule::Split { split, .. }) = state.routing().first() {
                shares.push(split.share_of(fast).value());
            }
            let table = strategy.automaton().transitions_of(current).unwrap();
            current = table.target(table.len() - 1).unwrap();
        }
        assert_eq!(shares, vec![5.0, 10.0, 15.0, 20.0]);
    }

    #[test]
    fn header_routing_mode_propagates_to_rules() {
        let (catalog, search, stable, fast) = catalog();
        let strategy = StrategyBuilder::new("hdr", catalog)
            .routing_mode(RoutingMode::HeaderBased)
            .phase(PhaseSpec::canary(
                "canary",
                search,
                stable,
                fast,
                Percentage::new(5.0).unwrap(),
            ))
            .build()
            .unwrap();
        let start = strategy
            .automaton()
            .state(strategy.automaton().start())
            .unwrap();
        match start.routing().first().unwrap() {
            RoutingRule::Split { mode, .. } => assert_eq!(*mode, RoutingMode::HeaderBased),
            _ => panic!("expected split rule"),
        }
    }
}
