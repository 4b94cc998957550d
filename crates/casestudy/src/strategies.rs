//! The release strategies used by the evaluation.
//!
//! * [`evaluation_strategy`] — the four-phase strategy of the end-user
//!   overhead experiment (Section 5.1): canary launch of product A and B,
//!   dark launch of both, A/B test between them, and gradual rollout of the
//!   winner. Because the canary and dark-launch phases involve *three*
//!   product versions at once, the automaton is assembled directly from the
//!   formal model rather than through the two-version phase builder.
//! * [`trimmed_strategy`] — the variant used by the parallel-strategies
//!   experiment (Section 5.2.1): same four phases, product B removed, final
//!   phase shortened (280 s total).
//! * [`parallel_check_strategy`] — the two-phase strategy with `8·n`
//!   identical checks of the parallel-checks experiment (Section 5.2.2).
//! * [`fastsearch_strategy`] — the running example of Sections 2–3
//!   (fastSearch canary + gradual rollout + A/B test), used by examples and
//!   documentation.

use crate::app::CaseStudyTopology;
use bifrost_core::automaton::AutomatonBuilder;
use bifrost_core::check::{CheckSpec, MetricQuery, QueryAggregation, Validator};
use bifrost_core::ids::{CheckId, IdAllocator, StateId};
use bifrost_core::outcome::OutcomeMapping;
use bifrost_core::phase::{PhaseCheck, PhaseSpec};
use bifrost_core::prelude::*;
use bifrost_core::routing::{DarkLaunchRoute, RoutingMode, RoutingRule, TrafficSplit};
use bifrost_core::state::State;
use bifrost_core::thresholds::Thresholds;
use bifrost_core::timer::Timer;
use bifrost_core::user::UserSelector;
use std::time::Duration;

/// Phase durations of the end-user overhead experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvaluationDurations {
    /// Canary phase duration.
    pub canary: Duration,
    /// Dark-launch phase duration.
    pub dark: Duration,
    /// A/B test duration.
    pub ab: Duration,
    /// Seconds per gradual rollout step.
    pub rollout_step: Duration,
}

impl Default for EvaluationDurations {
    fn default() -> Self {
        // The paper compresses the experiment: 60 s canary, 60 s dark launch,
        // 60 s A/B test, 200 s gradual rollout (20 steps × 10 s).
        Self {
            canary: Duration::from_secs(60),
            dark: Duration::from_secs(60),
            ab: Duration::from_secs(60),
            rollout_step: Duration::from_secs(10),
        }
    }
}

/// An error-count check against a product version, re-executed every 12 s.
fn error_check(version_name: &str, repetitions: u32, interval: Duration) -> Check {
    // Placeholder id; the caller re-assigns ids through its allocator.
    Check::basic(
        CheckId::new(0),
        format!("errors-{version_name}"),
        CheckSpec::single(
            MetricQuery::new(
                "prometheus",
                format!("errors_{version_name}"),
                "request_errors",
            )
            .with_label("version", version_name)
            .with_aggregation(QueryAggregation::Rate)
            .with_window_secs(interval.as_secs().max(1)),
            Validator::LessThan(5.0),
        ),
        Timer::new(interval, repetitions).expect("static timer"),
        OutcomeMapping::binary(repetitions as i64, -1, 1).expect("static mapping"),
    )
}

fn with_id(check: Check, ids: &mut IdAllocator) -> Check {
    match check.kind().clone() {
        bifrost_core::check::CheckKind::Basic(basic) => Check::basic(
            ids.next_id(),
            check.name(),
            check.spec().clone(),
            *check.timer(),
            basic.mapping,
        ),
        bifrost_core::check::CheckKind::Exception(exc) => Check::exception(
            ids.next_id(),
            check.name(),
            check.spec().clone(),
            *check.timer(),
            exc.fallback,
        ),
    }
}

/// An always-passing check spanning the given duration, used by phases that
/// have no explicit monitoring (e.g. the paper's dark launch, which dropped
/// its CPU checks to avoid spurious rollbacks during the load test).
fn pass_check(name: &str, duration: Duration, ids: &mut IdAllocator) -> Check {
    Check::basic(
        ids.next_id(),
        name.to_string(),
        CheckSpec::all_of(vec![]),
        Timer::new(duration, 1).expect("non-zero duration"),
        OutcomeMapping::binary(0, 0, 1).expect("static mapping"),
    )
}

/// A sales-comparison check evaluated once at the end of the A/B phase: the
/// number of items sold by product A must exceed zero (the winner decision
/// itself is taken by the experiment harness comparing both series).
fn sales_check(version_name: &str, duration: Duration, ids: &mut IdAllocator) -> Check {
    Check::basic(
        ids.next_id(),
        format!("sales-{version_name}"),
        CheckSpec::single(
            MetricQuery::new(
                "prometheus",
                format!("sales_{version_name}"),
                "items_sold_total",
            )
            .with_label("version", version_name)
            .with_aggregation(QueryAggregation::Last),
            Validator::GreaterThan(0.0),
        ),
        Timer::new(duration, 1).expect("non-zero duration"),
        OutcomeMapping::binary(1, -1, 1).expect("static mapping"),
    )
}

/// Builds the four-phase release strategy of the end-user overhead
/// experiment over the given case-study topology.
///
/// Phases (Section 5.1.2): canary launch of product A and B at 5 % each,
/// dark launch duplicating 100 % of product traffic to both alternatives,
/// a 50/50 A/B test between A and B with sticky sessions, and a gradual
/// rollout of the winner (product A) from 5 % to 100 % in 5 % steps.
pub fn evaluation_strategy(
    topology: &CaseStudyTopology,
    durations: EvaluationDurations,
) -> Strategy {
    let mut state_ids = IdAllocator::new();
    let mut check_ids = IdAllocator::new();
    let service = topology.product_service;
    let stable = topology.product_stable;
    let a = topology.product_a;
    let b = topology.product_b;

    // Pre-allocate state ids: canary, dark, ab, 20 rollout steps, success,
    // rollback.
    let canary: StateId = state_ids.next_id();
    let dark: StateId = state_ids.next_id();
    let ab: StateId = state_ids.next_id();
    let rollout_steps: Vec<StateId> = (0..20).map(|_| state_ids.next_id()).collect();
    let success: StateId = state_ids.next_id();
    let rollback: StateId = state_ids.next_id();

    let check_interval = Duration::from_secs(12);
    let canary_reps = (durations.canary.as_secs() / check_interval.as_secs()).max(1) as u32;

    // Phase 1: canary — 90 % stable, 5 % product A, 5 % product B, two
    // parallel error checks (one per alternative), re-executed every 12 s.
    let canary_split = TrafficSplit::new(vec![
        (stable, Percentage::new(90.0).expect("static")),
        (a, Percentage::new(5.0).expect("static")),
        (b, Percentage::new(5.0).expect("static")),
    ])
    .expect("static split");
    let canary_state = State::builder(canary, "canary")
        .routing(RoutingRule::Split {
            service,
            split: canary_split,
            sticky: false,
            selector: UserSelector::All,
            mode: RoutingMode::CookieBased,
        })
        .check(with_id(
            error_check("product-a", canary_reps, check_interval),
            &mut check_ids,
        ))
        .check(with_id(
            error_check("product-b", canary_reps, check_interval),
            &mut check_ids,
        ))
        .thresholds(Thresholds::single(1))
        .duration(durations.canary)
        .build()
        .expect("static state");

    // Phase 2: dark launch — all live traffic stays on the stable version,
    // 100 % duplicated to both alternatives.
    let dark_state = State::builder(dark, "dark-launch")
        .routing(RoutingRule::Split {
            service,
            split: TrafficSplit::all_to(stable),
            sticky: false,
            selector: UserSelector::All,
            mode: RoutingMode::CookieBased,
        })
        .routing(RoutingRule::Shadow {
            service,
            route: DarkLaunchRoute::new(stable, a, Percentage::full()),
        })
        .routing(RoutingRule::Shadow {
            service,
            route: DarkLaunchRoute::new(stable, b, Percentage::full()),
        })
        .check(pass_check("dark-pass", durations.dark, &mut check_ids))
        .thresholds(Thresholds::single(0))
        .duration(durations.dark)
        .build()
        .expect("static state");

    // Phase 3: A/B test — 50/50 between A and B, sticky sessions, sales
    // metric evaluated once at the end.
    let ab_state = State::builder(ab, "ab-test")
        .routing(RoutingRule::Split {
            service,
            split: TrafficSplit::ab(a, b).expect("distinct versions"),
            sticky: true,
            selector: UserSelector::All,
            mode: RoutingMode::CookieBased,
        })
        .check(sales_check("product-a", durations.ab, &mut check_ids))
        .thresholds(Thresholds::single(0))
        .duration(durations.ab)
        .build()
        .expect("static state");

    // Phase 4: gradual rollout of the winner (product A) 5 % → 100 %.
    let mut rollout_states = Vec::new();
    for (i, state_id) in rollout_steps.iter().enumerate() {
        let share = Percentage::new(5.0 * (i + 1) as f64).expect("5..=100");
        let state = State::builder(*state_id, format!("rollout-{}pct", share.value()))
            .routing(RoutingRule::Split {
                service,
                split: TrafficSplit::canary(stable, a, share).expect("static split"),
                sticky: false,
                selector: UserSelector::All,
                mode: RoutingMode::CookieBased,
            })
            .check(pass_check(
                &format!("rollout-pass-{i}"),
                durations.rollout_step,
                &mut check_ids,
            ))
            .thresholds(Thresholds::single(0))
            .duration(durations.rollout_step)
            .build()
            .expect("static state");
        rollout_states.push(state);
    }

    let success_state = State::builder(success, "success")
        .routing(RoutingRule::Split {
            service,
            split: TrafficSplit::all_to(a),
            sticky: false,
            selector: UserSelector::All,
            mode: RoutingMode::CookieBased,
        })
        .duration(Duration::from_secs(1))
        .build()
        .expect("static state");
    let rollback_state = State::builder(rollback, "rollback")
        .routing(RoutingRule::Split {
            service,
            split: TrafficSplit::all_to(stable),
            sticky: false,
            selector: UserSelector::All,
            mode: RoutingMode::CookieBased,
        })
        .duration(Duration::from_secs(1))
        .build()
        .expect("static state");

    let mut builder = AutomatonBuilder::new()
        .state(canary_state)
        .state(dark_state)
        .state(ab_state)
        .state(success_state)
        .state(rollback_state)
        .start(canary)
        .final_state(success)
        .final_state(rollback)
        // Canary: both error checks must pass (outcome 2 > threshold 1).
        .transition(canary, vec![rollback, dark])
        .transition(dark, vec![rollback, ab])
        .transition(ab, vec![rollback, rollout_steps[0]]);
    for state in rollout_states {
        builder = builder.state(state);
    }
    for (i, step) in rollout_steps.iter().enumerate() {
        let next = rollout_steps.get(i + 1).copied().unwrap_or(success);
        builder = builder.transition(*step, vec![rollback, next]);
    }
    let automaton = builder.build().expect("static automaton");

    Strategy::from_parts(
        StrategyId::new(0),
        "product-replacement",
        topology.catalog.clone(),
        automaton,
        success,
        rollback,
    )
    .expect("static strategy")
}

/// The trimmed strategy of the parallel-strategies experiment: product B and
/// its checks removed, final phase shortened to 100 s (280 s total: 60 s
/// canary + 60 s dark launch + 60 s A/B + 100 s rollout).
pub fn trimmed_strategy(topology: &CaseStudyTopology) -> Strategy {
    let service = topology.product_service;
    let stable = topology.product_stable;
    let a = topology.product_a;

    let check = PhaseCheck::basic(
        "errors-product-a",
        CheckSpec::single(
            MetricQuery::new("prometheus", "errors_product_a", "request_errors")
                .with_label("version", "product-a")
                .with_aggregation(QueryAggregation::Rate)
                .with_window_secs(12),
            Validator::LessThan(5.0),
        ),
        Timer::from_secs(12, 5).expect("static timer"),
        OutcomeMapping::binary(0, -1, 1).expect("static mapping"),
    );

    StrategyBuilder::new("trimmed-product-replacement", topology.catalog.clone())
        .phase(
            PhaseSpec::canary(
                "canary",
                service,
                stable,
                a,
                Percentage::new(5.0).expect("static"),
            )
            .check(check.clone())
            .duration_secs(60),
        )
        .phase(
            PhaseSpec::dark_launch("dark-launch", service, stable, a, Percentage::full())
                .duration_secs(60),
        )
        .phase(PhaseSpec::ab_test("ab-test", service, stable, a).duration_secs(60))
        .phase(PhaseSpec::gradual_rollout(
            "rollout",
            service,
            stable,
            a,
            Percentage::new(10.0).expect("static"),
            Percentage::new(100.0).expect("static"),
            Percentage::new(10.0).expect("static"),
            Duration::from_secs(10),
        ))
        .build()
        .expect("static strategy")
}

/// The strategy of the parallel-checks experiment: two identical 60-second
/// phases, each carrying `8 * n` checks (3 availability checks against the
/// product service and 5 Prometheus queries, duplicated `n` times).
pub fn parallel_check_strategy(topology: &CaseStudyTopology, n: usize) -> Strategy {
    let service = topology.product_service;
    let stable = topology.product_stable;
    let a = topology.product_a;

    let phase_checks = |phase: usize| -> Vec<PhaseCheck> {
        let mut checks = Vec::with_capacity(8 * n);
        for copy in 0..n {
            for i in 0..3 {
                checks.push(PhaseCheck::basic(
                    format!("availability-{phase}-{copy}-{i}"),
                    CheckSpec::single(
                        MetricQuery::new("prometheus", format!("up_{copy}_{i}"), "requests_total")
                            .with_label("version", "product")
                            .with_aggregation(QueryAggregation::Count)
                            .with_window_secs(60),
                        Validator::GreaterOrEqual(0.0),
                    ),
                    Timer::from_secs(12, 5).expect("static timer"),
                    OutcomeMapping::binary(0, -1, 1).expect("static mapping"),
                ));
            }
            for i in 0..5 {
                checks.push(PhaseCheck::basic(
                    format!("prometheus-{phase}-{copy}-{i}"),
                    CheckSpec::single(
                        MetricQuery::new(
                            "prometheus",
                            format!("cpu_{copy}_{i}"),
                            "container_cpu_utilization",
                        )
                        .with_label("container", "product")
                        .with_aggregation(QueryAggregation::Mean)
                        .with_window_secs(60),
                        Validator::LessThan(1_000.0),
                    ),
                    Timer::from_secs(12, 5).expect("static timer"),
                    OutcomeMapping::binary(0, -1, 1).expect("static mapping"),
                ));
            }
        }
        checks
    };

    let mut phase1 = PhaseSpec::canary(
        "phase-1",
        service,
        stable,
        a,
        Percentage::new(5.0).expect("static"),
    )
    .duration_secs(60);
    for check in phase_checks(1) {
        phase1 = phase1.check(check);
    }
    let mut phase2 = PhaseSpec::canary(
        "phase-2",
        service,
        stable,
        a,
        Percentage::new(5.0).expect("static"),
    )
    .duration_secs(60);
    for check in phase_checks(2) {
        phase2 = phase2.check(check);
    }

    StrategyBuilder::new(
        format!("parallel-checks-{}", 8 * n),
        topology.catalog.clone(),
    )
    .phase(phase1)
    .phase(phase2)
    .build()
    .expect("static strategy")
}

/// The running example of the paper (Sections 2–3): the fastSearch
/// reimplementation is canary-tested on 1 % of the US users, gradually
/// rolled out to 50 %, A/B-tested against the stable search for five days,
/// and finally rolled out completely.
pub fn fastsearch_strategy(topology: &CaseStudyTopology) -> Strategy {
    let service = topology.search_service;
    let stable = topology.search_stable;
    let fast = topology.fast_search;
    let day = Duration::from_secs(24 * 3600);

    let response_time_check = PhaseCheck::basic(
        "response-time",
        CheckSpec::single(
            MetricQuery::new("prometheus", "fastsearch_rt", "response_time_ms")
                .with_label("version", "fastSearch")
                .with_aggregation(QueryAggregation::Mean)
                .with_window_secs(600),
            Validator::LessThan(150.0),
        ),
        Timer::new(Duration::from_secs(600), 100).expect("static timer"),
        OutcomeMapping::new(
            Thresholds::new(vec![75, 95]).expect("static"),
            vec![-5, 4, 5],
        )
        .expect("static mapping"),
    );
    let sales_check = PhaseCheck::basic(
        "items-sold",
        CheckSpec::single(
            MetricQuery::new("prometheus", "sales_fastsearch", "items_sold_total")
                .with_label("version", "fastSearch")
                .with_aggregation(QueryAggregation::Last),
            Validator::GreaterThan(0.0),
        ),
        Timer::new(5 * day, 1).expect("static timer"),
        OutcomeMapping::binary(1, -1, 1).expect("static mapping"),
    );

    StrategyBuilder::new("fastsearch-rollout", topology.catalog.clone())
        .phase(
            PhaseSpec::canary(
                "canary-1pct",
                service,
                stable,
                fast,
                Percentage::new(1.0).expect("static"),
            )
            .check(response_time_check.clone())
            .selector(UserSelector::attribute("country", "US"))
            .duration(day),
        )
        .phase(PhaseSpec::gradual_rollout(
            "ramp-to-50",
            service,
            stable,
            fast,
            Percentage::new(5.0).expect("static"),
            Percentage::new(50.0).expect("static"),
            Percentage::new(45.0 / 3.0).expect("static"),
            day,
        ))
        .phase(
            PhaseSpec::ab_test("ab-search-vs-fastsearch", service, stable, fast)
                .check(sales_check)
                .duration(5 * day),
        )
        .phase(PhaseSpec::gradual_rollout(
            "full-rollout",
            service,
            stable,
            fast,
            Percentage::new(75.0).expect("static"),
            Percentage::new(100.0).expect("static"),
            Percentage::new(25.0).expect("static"),
            day,
        ))
        .build()
        .expect("static strategy")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_strategy_structure() {
        let topology = CaseStudyTopology::new();
        let strategy = evaluation_strategy(&topology, EvaluationDurations::default());
        // canary + dark + ab + 20 rollout + success + rollback = 25 states.
        assert_eq!(strategy.automaton().state_count(), 25);
        assert_eq!(strategy.name(), "product-replacement");
        strategy.validate().unwrap();
        // Nominal duration: 60 + 60 + 60 + 20*10 = 380 s.
        assert_eq!(strategy.nominal_duration(), Duration::from_secs(380));
        // The canary state splits across three versions.
        let canary = strategy
            .automaton()
            .state(strategy.automaton().start())
            .unwrap();
        match canary.routing().first().unwrap() {
            RoutingRule::Split { split, .. } => assert_eq!(split.shares().len(), 3),
            other => panic!("expected split, got {other:?}"),
        }
        assert_eq!(canary.checks().len(), 2);
        // The dark-launch state shadows to both alternatives.
        let dark = strategy.automaton().state_by_name("dark-launch").unwrap();
        assert_eq!(dark.routing().iter().filter(|r| r.is_shadow()).count(), 2);
        // The A/B state is sticky.
        let ab = strategy.automaton().state_by_name("ab-test").unwrap();
        match ab.routing().first().unwrap() {
            RoutingRule::Split { sticky, split, .. } => {
                assert!(sticky);
                assert_eq!(split.shares().len(), 2);
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn evaluation_strategy_with_custom_durations() {
        let topology = CaseStudyTopology::new();
        let durations = EvaluationDurations {
            canary: Duration::from_secs(30),
            dark: Duration::from_secs(30),
            ab: Duration::from_secs(30),
            rollout_step: Duration::from_secs(5),
        };
        let strategy = evaluation_strategy(&topology, durations);
        assert_eq!(
            strategy.nominal_duration(),
            Duration::from_secs(30 + 30 + 30 + 100)
        );
    }

    #[test]
    fn trimmed_strategy_lasts_280_seconds() {
        let topology = CaseStudyTopology::new();
        let strategy = trimmed_strategy(&topology);
        // 60 + 60 + 60 + 10 steps × 10 s = 280 s.
        assert_eq!(strategy.nominal_duration(), Duration::from_secs(280));
        strategy.validate().unwrap();
        // canary + dark + ab + 10 rollout steps + success + rollback.
        assert_eq!(strategy.automaton().state_count(), 15);
    }

    #[test]
    fn parallel_check_strategy_has_8n_checks_per_phase() {
        let topology = CaseStudyTopology::new();
        for n in [1usize, 3, 10] {
            let strategy = parallel_check_strategy(&topology, n);
            let start = strategy
                .automaton()
                .state(strategy.automaton().start())
                .unwrap();
            assert_eq!(start.checks().len(), 8 * n);
            // Two phases plus success/rollback.
            assert_eq!(strategy.automaton().state_count(), 4);
            strategy.validate().unwrap();
        }
    }

    #[test]
    fn fastsearch_strategy_matches_running_example_shape() {
        let topology = CaseStudyTopology::new();
        let strategy = fastsearch_strategy(&topology);
        strategy.validate().unwrap();
        // 1 canary + ramp (5,20,35,50 → 4) + ab + full rollout (75,100 → 2)
        // + success + rollback = 10 states.
        assert_eq!(strategy.automaton().state_count(), 10);
        // Nominal duration ≈ 1 day + 4 days + 5 days + 2 days = 12 days.
        let days = strategy.nominal_duration().as_secs_f64() / 86_400.0;
        assert!((days - 12.0).abs() < 0.1, "days {days}");
        // The canary restricts itself to US users.
        let canary = strategy
            .automaton()
            .state(strategy.automaton().start())
            .unwrap();
        match canary.routing().first().unwrap() {
            RoutingRule::Split { selector, .. } => {
                assert_eq!(selector, &UserSelector::attribute("country", "US"));
            }
            other => panic!("expected split, got {other:?}"),
        }
        // The paper's response-time output mapping is used verbatim.
        let check = &canary.checks()[0];
        assert_eq!(check.timer().repetitions(), 100);
    }
}
