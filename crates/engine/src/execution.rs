//! Runtime state of one strategy being enacted.

use bifrost_core::ids::{CheckId, StateId, StrategyId};
use bifrost_core::outcome::{CheckOutcome, StateOutcome};
use bifrost_core::state::State;
use bifrost_core::strategy::Strategy;
use bifrost_core::ModelError;
use bifrost_simnet::SimTime;
use std::collections::BTreeMap;

/// The progress of one check within the currently executing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckProgress {
    /// The check.
    pub check: CheckId,
    /// Number of executions performed so far.
    pub executions: u32,
    /// Number of executions that returned 1.
    pub successes: i64,
    /// Total executions the timer prescribes.
    pub planned: u32,
}

impl CheckProgress {
    /// Whether every planned execution has run.
    pub fn is_complete(&self) -> bool {
        self.executions >= self.planned
    }
}

/// The lifecycle of a strategy execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionStatus {
    /// Scheduled but not yet admitted by the engine.
    Scheduled,
    /// Currently executing some state.
    Running,
    /// Finished in the success state.
    Succeeded,
    /// Finished in the rollback state (or another non-success final state).
    RolledBack,
}

impl ExecutionStatus {
    /// Whether the execution has reached a final state.
    pub fn is_finished(self) -> bool {
        matches!(
            self,
            ExecutionStatus::Succeeded | ExecutionStatus::RolledBack
        )
    }
}

/// The engine-side runtime state of one strategy.
#[derive(Debug)]
pub struct StrategyExecution {
    id: StrategyId,
    strategy: Strategy,
    status: ExecutionStatus,
    scheduled_at: SimTime,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    current_state: Option<StateId>,
    /// Generation counter: bumped on every state entry so that stale timer
    /// events from an already-exited state can be ignored.
    generation: u64,
    state_entered_at: Option<SimTime>,
    progress: BTreeMap<CheckId, CheckProgress>,
    /// Exception fallback captured when an exception check trips.
    pending_exception: Option<StateId>,
    /// History of `(state, entered_at)` pairs.
    history: Vec<(StateId, SimTime)>,
}

impl StrategyExecution {
    /// Creates the runtime state for a strategy scheduled at `scheduled_at`.
    pub fn new(id: StrategyId, strategy: Strategy, scheduled_at: SimTime) -> Self {
        Self {
            id,
            strategy,
            status: ExecutionStatus::Scheduled,
            scheduled_at,
            started_at: None,
            finished_at: None,
            current_state: None,
            generation: 0,
            state_entered_at: None,
            progress: BTreeMap::new(),
            pending_exception: None,
            history: Vec::new(),
        }
    }

    /// The engine-assigned strategy id.
    pub fn id(&self) -> StrategyId {
        self.id
    }

    /// The strategy being executed.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The current lifecycle status.
    pub fn status(&self) -> ExecutionStatus {
        self.status
    }

    /// When the strategy was scheduled to start.
    pub fn scheduled_at(&self) -> SimTime {
        self.scheduled_at
    }

    /// When execution actually started.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// When execution finished.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// The state currently being executed.
    pub fn current_state(&self) -> Option<StateId> {
        self.current_state
    }

    /// The generation counter identifying the current state entry.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// When the current state was entered.
    pub fn state_entered_at(&self) -> Option<SimTime> {
        self.state_entered_at
    }

    /// The `(state, entered_at)` history, in order.
    pub fn history(&self) -> &[(StateId, SimTime)] {
        &self.history
    }

    /// The per-check progress of the current state.
    pub fn progress(&self) -> impl Iterator<Item = &CheckProgress> {
        self.progress.values()
    }

    /// Marks the execution as started.
    pub fn mark_started(&mut self, at: SimTime) {
        self.status = ExecutionStatus::Running;
        self.started_at = Some(at);
    }

    /// Enters a state: bumps the generation, resets check progress, and
    /// returns the new generation.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownState`] if the state is not part of the
    /// strategy's automaton.
    pub fn enter_state(&mut self, state: StateId, at: SimTime) -> Result<u64, ModelError> {
        let state_def = self
            .strategy
            .automaton()
            .state(state)
            .ok_or(ModelError::UnknownState(state))?;
        self.generation += 1;
        self.current_state = Some(state);
        self.state_entered_at = Some(at);
        self.pending_exception = None;
        self.progress = state_def
            .checks()
            .iter()
            .map(|check| {
                (
                    check.id(),
                    CheckProgress {
                        check: check.id(),
                        executions: 0,
                        successes: 0,
                        planned: check.timer().repetitions(),
                    },
                )
            })
            .collect();
        self.history.push((state, at));
        Ok(self.generation)
    }

    /// The definition of the current state.
    pub fn current_state_def(&self) -> Option<&State> {
        self.current_state
            .and_then(|id| self.strategy.automaton().state(id))
    }

    /// Records one execution of a check. Returns the updated progress.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownCheck`] if the check does not belong to
    /// the current state.
    pub fn record_check_execution(
        &mut self,
        check: CheckId,
        success: bool,
    ) -> Result<CheckProgress, ModelError> {
        let progress = self
            .progress
            .get_mut(&check)
            .ok_or(ModelError::UnknownCheck(check))?;
        progress.executions += 1;
        if success {
            progress.successes += 1;
        }
        Ok(*progress)
    }

    /// Records that an exception check tripped, capturing its fallback state.
    pub fn record_exception(&mut self, fallback: StateId) {
        self.pending_exception = Some(fallback);
    }

    /// The exception fallback captured for the current state, if any.
    pub fn pending_exception(&self) -> Option<StateId> {
        self.pending_exception
    }

    /// Builds the [`StateOutcome`] of the current state from the recorded
    /// check progress.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Validation`] if no state is active, and
    /// propagates weight mismatches from the outcome combination.
    pub fn build_outcome(&self) -> Result<StateOutcome, ModelError> {
        let state_id = self
            .current_state
            .ok_or_else(|| ModelError::Validation("no state is currently active".into()))?;
        let state = self
            .strategy
            .automaton()
            .state(state_id)
            .ok_or(ModelError::UnknownState(state_id))?;
        let checks: Vec<CheckOutcome> = state
            .checks()
            .iter()
            .map(|check| {
                let progress = self
                    .progress
                    .get(&check.id())
                    .copied()
                    .unwrap_or(CheckProgress {
                        check: check.id(),
                        executions: 0,
                        successes: 0,
                        planned: check.timer().repetitions(),
                    });
                let mapped = check.map_aggregate(progress.successes);
                if check.is_exception() {
                    if self.pending_exception.is_some() && Some(check.id()) == self.tripped_check()
                    {
                        CheckOutcome::exception_tripped(
                            check.id(),
                            progress.successes,
                            progress.executions,
                        )
                    } else {
                        CheckOutcome::exception_passed(check.id(), progress.executions)
                    }
                } else {
                    CheckOutcome::basic(check.id(), progress.successes, progress.executions, mapped)
                }
            })
            .collect();
        StateOutcome::combine(state_id, checks, state.weights(), self.pending_exception)
    }

    /// The check that tripped the pending exception, if identifiable (the
    /// first exception check whose fallback matches).
    fn tripped_check(&self) -> Option<CheckId> {
        let fallback = self.pending_exception?;
        self.current_state_def()?
            .checks()
            .iter()
            .find_map(|check| (check.fallback() == Some(fallback)).then_some(check.id()))
    }

    /// Marks the execution finished in `final_state`.
    pub fn mark_finished(&mut self, final_state: StateId, at: SimTime) {
        self.finished_at = Some(at);
        self.status = if self.strategy.is_success(final_state) {
            ExecutionStatus::Succeeded
        } else {
            ExecutionStatus::RolledBack
        };
    }

    /// The total wall-clock (virtual) duration of the execution, if finished.
    pub fn duration(&self) -> Option<std::time::Duration> {
        match (self.started_at, self.finished_at) {
            (Some(start), Some(end)) => Some(end - start),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_core::prelude::*;

    fn strategy() -> Strategy {
        let mut catalog = ServiceCatalog::new();
        let search = catalog.add_service(Service::new("search"));
        let stable = catalog
            .add_version(
                search,
                ServiceVersion::new("v1", Endpoint::new("10.0.0.1", 80)),
            )
            .unwrap();
        let fast = catalog
            .add_version(
                search,
                ServiceVersion::new("v2", Endpoint::new("10.0.0.2", 80)),
            )
            .unwrap();
        StrategyBuilder::new("exec-test", catalog)
            .phase(
                PhaseSpec::canary(
                    "canary",
                    search,
                    stable,
                    fast,
                    Percentage::new(5.0).unwrap(),
                )
                .check(PhaseCheckFixture::error_check())
                .duration_secs(60),
            )
            .build()
            .unwrap()
    }

    struct PhaseCheckFixture;

    impl PhaseCheckFixture {
        fn error_check() -> bifrost_core::phase::PhaseCheck {
            bifrost_core::phase::PhaseCheck::basic(
                "errors",
                CheckSpec::single(
                    MetricQuery::new("prometheus", "errors", "request_errors"),
                    Validator::LessThan(5.0),
                ),
                Timer::from_secs(12, 5).unwrap(),
                OutcomeMapping::binary(5, -1, 1).unwrap(),
            )
        }
    }

    #[test]
    fn lifecycle_scheduled_running_finished() {
        let strategy = strategy();
        let success = strategy.success_state();
        let mut exec = StrategyExecution::new(StrategyId::new(1), strategy, SimTime::from_secs(5));
        assert_eq!(exec.status(), ExecutionStatus::Scheduled);
        assert_eq!(exec.scheduled_at(), SimTime::from_secs(5));
        assert!(!exec.status().is_finished());

        exec.mark_started(SimTime::from_secs(5));
        assert_eq!(exec.status(), ExecutionStatus::Running);
        assert_eq!(exec.started_at(), Some(SimTime::from_secs(5)));

        exec.mark_finished(success, SimTime::from_secs(70));
        assert_eq!(exec.status(), ExecutionStatus::Succeeded);
        assert!(exec.status().is_finished());
        assert_eq!(exec.duration(), Some(std::time::Duration::from_secs(65)));
    }

    #[test]
    fn rollback_final_state_marks_rolled_back() {
        let strategy = strategy();
        let rollback = strategy.rollback_state();
        let mut exec = StrategyExecution::new(StrategyId::new(1), strategy, SimTime::ZERO);
        exec.mark_started(SimTime::ZERO);
        exec.mark_finished(rollback, SimTime::from_secs(10));
        assert_eq!(exec.status(), ExecutionStatus::RolledBack);
    }

    #[test]
    fn enter_state_resets_progress_and_bumps_generation() {
        let strategy = strategy();
        let start = strategy.automaton().start();
        let mut exec = StrategyExecution::new(StrategyId::new(1), strategy, SimTime::ZERO);
        exec.mark_started(SimTime::ZERO);
        let generation_1 = exec.enter_state(start, SimTime::ZERO).unwrap();
        assert_eq!(exec.current_state(), Some(start));
        assert_eq!(exec.progress().count(), 1);
        assert_eq!(exec.history().len(), 1);
        assert_eq!(exec.state_entered_at(), Some(SimTime::ZERO));

        let check = exec.current_state_def().unwrap().checks()[0].id();
        exec.record_check_execution(check, true).unwrap();
        let generation_2 = exec.enter_state(start, SimTime::from_secs(60)).unwrap();
        assert!(generation_2 > generation_1);
        assert_eq!(exec.generation(), generation_2);
        // Progress was reset.
        assert!(exec.progress().all(|p| p.executions == 0));
        assert!(exec.enter_state(StateId::new(99), SimTime::ZERO).is_err());
    }

    #[test]
    fn check_progress_accumulates_and_builds_outcome() {
        let strategy = strategy();
        let start = strategy.automaton().start();
        let mut exec = StrategyExecution::new(StrategyId::new(1), strategy, SimTime::ZERO);
        exec.mark_started(SimTime::ZERO);
        exec.enter_state(start, SimTime::ZERO).unwrap();
        let check = exec.current_state_def().unwrap().checks()[0].id();
        for i in 0..5 {
            let progress = exec.record_check_execution(check, true).unwrap();
            assert_eq!(progress.executions, i + 1);
        }
        let progress = exec.progress().next().unwrap();
        assert!(progress.is_complete());
        assert_eq!(progress.successes, 5);

        let outcome = exec.build_outcome().unwrap();
        // 5 successes with binary(5, -1, 1) → mapped 1, weight 1 → value 1.
        assert_eq!(outcome.value, 1);
        assert!(!outcome.exception_triggered());

        assert!(exec.record_check_execution(CheckId::new(99), true).is_err());
    }

    #[test]
    fn failed_executions_lower_the_outcome() {
        let strategy = strategy();
        let start = strategy.automaton().start();
        let mut exec = StrategyExecution::new(StrategyId::new(1), strategy, SimTime::ZERO);
        exec.mark_started(SimTime::ZERO);
        exec.enter_state(start, SimTime::ZERO).unwrap();
        let check = exec.current_state_def().unwrap().checks()[0].id();
        for success in [true, true, false, true, true] {
            exec.record_check_execution(check, success).unwrap();
        }
        let outcome = exec.build_outcome().unwrap();
        // 4/5 successes → below the binary threshold of 5 → mapped -1.
        assert_eq!(outcome.value, -1);
    }

    #[test]
    fn exception_is_reflected_in_outcome() {
        let strategy = strategy();
        let start = strategy.automaton().start();
        let rollback = strategy.rollback_state();
        let mut exec = StrategyExecution::new(StrategyId::new(1), strategy, SimTime::ZERO);
        exec.mark_started(SimTime::ZERO);
        exec.enter_state(start, SimTime::ZERO).unwrap();
        exec.record_exception(rollback);
        assert_eq!(exec.pending_exception(), Some(rollback));
        let outcome = exec.build_outcome().unwrap();
        assert!(outcome.exception_triggered());
        assert_eq!(outcome.exception_fallback, Some(rollback));
    }

    #[test]
    fn build_outcome_without_active_state_fails() {
        let strategy = strategy();
        let exec = StrategyExecution::new(StrategyId::new(1), strategy, SimTime::ZERO);
        assert!(exec.build_outcome().is_err());
        assert!(exec.current_state_def().is_none());
    }
}
