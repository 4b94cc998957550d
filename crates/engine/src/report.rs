//! Per-strategy execution reports.
//!
//! Reports summarise what the engine did for one strategy: when it was
//! scheduled, when it actually started and finished, which states it walked
//! through, and — the key quantity of Figures 8 and 10 — the *enactment
//! delay*: how much longer the execution took than the strategy's nominal
//! duration because engine work had to queue on the shared CPU.

use crate::execution::{ExecutionStatus, StrategyExecution};
use bifrost_core::ids::{StateId, StrategyId};
use bifrost_simnet::SimTime;
use std::time::Duration;

/// A summary of one strategy execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyReport {
    /// The strategy.
    pub strategy: StrategyId,
    /// The strategy name.
    pub name: String,
    /// Lifecycle status at reporting time.
    pub status: ExecutionStatus,
    /// When the strategy was scheduled to start.
    pub scheduled_at: SimTime,
    /// When it actually started.
    pub started_at: Option<SimTime>,
    /// When it finished.
    pub finished_at: Option<SimTime>,
    /// The nominal (specified) duration of the strategy's happy path.
    pub nominal_duration: Duration,
    /// The states visited so far, with entry times.
    pub state_history: Vec<(StateId, SimTime)>,
    /// The final state, if finished.
    pub final_state: Option<StateId>,
}

impl StrategyReport {
    /// Builds a report from the engine's runtime state.
    pub fn from_execution(execution: &StrategyExecution) -> Self {
        let final_state = execution
            .status()
            .is_finished()
            .then(|| execution.history().last().map(|(s, _)| *s))
            .flatten();
        Self {
            strategy: execution.id(),
            name: execution.strategy().name().to_string(),
            status: execution.status(),
            scheduled_at: execution.scheduled_at(),
            started_at: execution.started_at(),
            finished_at: execution.finished_at(),
            nominal_duration: execution.strategy().nominal_duration(),
            state_history: execution.history().to_vec(),
            final_state,
        }
    }

    /// Whether the execution reached a final state.
    pub fn is_finished(&self) -> bool {
        self.status.is_finished()
    }

    /// Whether the execution finished in the success state.
    pub fn succeeded(&self) -> bool {
        self.status == ExecutionStatus::Succeeded
    }

    /// The measured execution duration (start → finish), if finished.
    pub fn measured_duration(&self) -> Option<Duration> {
        match (self.started_at, self.finished_at) {
            (Some(start), Some(end)) => Some(end - start),
            _ => None,
        }
    }

    /// The enactment delay: measured duration minus nominal duration
    /// (clamped at zero). Only meaningful for successful executions — a
    /// rollback legitimately ends early.
    pub fn enactment_delay(&self) -> Option<Duration> {
        let measured = self.measured_duration()?;
        Some(measured.saturating_sub(self.nominal_duration))
    }

    /// Number of state transitions taken.
    pub fn transitions(&self) -> usize {
        self.state_history.len().saturating_sub(1)
    }

    /// Renders a short textual summary (used by the CLI).
    pub fn summary(&self) -> String {
        let status = match self.status {
            ExecutionStatus::Scheduled => "scheduled",
            ExecutionStatus::Running => "running",
            ExecutionStatus::Succeeded => "succeeded",
            ExecutionStatus::RolledBack => "rolled back",
        };
        let delay = self
            .enactment_delay()
            .map(|d| format!(", delay {:.2}s", d.as_secs_f64()))
            .unwrap_or_default();
        format!(
            "{} [{}] {} states visited{}",
            self.name,
            status,
            self.state_history.len(),
            delay
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_core::prelude::*;

    fn execution() -> StrategyExecution {
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
        let strategy = StrategyBuilder::new("report-test", catalog)
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
            .build()
            .unwrap();
        StrategyExecution::new(StrategyId::new(7), strategy, SimTime::ZERO)
    }

    #[test]
    fn report_of_unstarted_execution() {
        let exec = execution();
        let report = StrategyReport::from_execution(&exec);
        assert_eq!(report.strategy, StrategyId::new(7));
        assert_eq!(report.name, "report-test");
        assert!(!report.is_finished());
        assert!(!report.succeeded());
        assert!(report.measured_duration().is_none());
        assert!(report.enactment_delay().is_none());
        assert_eq!(report.transitions(), 0);
        assert!(report.summary().contains("scheduled"));
    }

    #[test]
    fn report_of_finished_execution_computes_delay() {
        let mut exec = execution();
        let start_state = exec.strategy().automaton().start();
        let success = exec.strategy().success_state();
        exec.mark_started(SimTime::ZERO);
        exec.enter_state(start_state, SimTime::ZERO).unwrap();
        exec.enter_state(success, SimTime::from_secs(68)).unwrap();
        exec.mark_finished(success, SimTime::from_secs(68));

        let report = StrategyReport::from_execution(&exec);
        assert!(report.is_finished());
        assert!(report.succeeded());
        assert_eq!(report.final_state, Some(success));
        assert_eq!(report.measured_duration(), Some(Duration::from_secs(68)));
        // Nominal duration is 60 s → 8 s delay.
        assert_eq!(report.nominal_duration, Duration::from_secs(60));
        assert_eq!(report.enactment_delay(), Some(Duration::from_secs(8)));
        assert_eq!(report.transitions(), 1);
        assert!(report.summary().contains("succeeded"));
        assert!(report.summary().contains("delay"));
    }

    #[test]
    fn delay_is_clamped_at_zero_for_fast_completions() {
        let mut exec = execution();
        let start_state = exec.strategy().automaton().start();
        let rollback = exec.strategy().rollback_state();
        exec.mark_started(SimTime::ZERO);
        exec.enter_state(start_state, SimTime::ZERO).unwrap();
        exec.enter_state(rollback, SimTime::from_secs(5)).unwrap();
        exec.mark_finished(rollback, SimTime::from_secs(5));
        let report = StrategyReport::from_execution(&exec);
        assert_eq!(report.enactment_delay(), Some(Duration::ZERO));
        assert!(!report.succeeded());
        assert!(report.summary().contains("rolled back"));
    }
}
