//! Figures 7–10: engine scalability under parallel strategies and parallel
//! checks.
//!
//! Both experiments run the engine on a single-core (virtual) VM without
//! application load — exactly like the paper, which removed the load
//! generator for the engine-side experiments and only exercised
//! engine-to-proxy communication and metric queries.

use bifrost_casestudy::{parallel_check_strategy, trimmed_strategy, CaseStudyTopology};
use bifrost_core::seed::Seed;
use bifrost_engine::{BifrostEngine, EngineConfig};
use bifrost_metrics::{SeriesKey, SharedMetricStore, SummaryStats, TimestampMs};
use bifrost_simnet::{SimRng, SimTime};
use std::time::Duration;

/// One measurement point of the parallel-strategies experiment
/// (Figures 7 and 8).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelStrategiesPoint {
    /// Number of strategies executed in parallel.
    pub strategies: usize,
    /// Summary of the engine CPU utilisation samples (1 Hz) over the run
    /// (Figure 7 boxplot input).
    pub cpu_utilization: SummaryStats,
    /// Summary of the per-strategy enactment delays in seconds (Figure 8).
    pub delay_secs: SummaryStats,
    /// How many strategies completed successfully.
    pub succeeded: usize,
}

/// One measurement point of the parallel-checks experiment
/// (Figures 9 and 10).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelChecksPoint {
    /// Number of checks executed in parallel (per phase).
    pub checks: usize,
    /// Summary of the engine CPU utilisation samples.
    pub cpu_utilization: SummaryStats,
    /// Enactment delay of the (single) strategy in seconds.
    pub delay_secs: f64,
    /// Whether the strategy completed successfully.
    pub succeeded: bool,
}

/// Pre-populates the metric store with the counter series the strategies'
/// checks query, emulating an idle but monitored deployment (Prometheus
/// scraping services that serve no traffic).
fn seed_metrics(store: &SharedMetricStore, horizon: Duration) {
    let step = Duration::from_secs(5);
    let mut t = Duration::ZERO;
    while t <= horizon {
        let ts = TimestampMs::from_millis(t.as_millis() as u64);
        for version in ["product", "product-a", "product-b"] {
            store.record_value(
                SeriesKey::new("request_errors").with_label("version", version),
                ts,
                0.0,
            );
            store.record_value(
                SeriesKey::new("requests_total").with_label("version", version),
                ts,
                1.0,
            );
        }
        store.record_value(
            SeriesKey::new("container_cpu_utilization").with_label("container", "product"),
            ts,
            5.0,
        );
        t += step;
    }
}

fn summary(values: &[f64]) -> SummaryStats {
    SummaryStats::compute(values).unwrap_or(SummaryStats {
        count: 0,
        mean: 0.0,
        min: 0.0,
        max: 0.0,
        sd: 0.0,
        median: 0.0,
    })
}

/// Figures 7 and 8: an increasing number of identical 280-second strategies
/// executed at the same time on a single-core engine.
pub mod fig7_fig8 {
    use super::*;

    /// The strategy-count steps of the paper: 1, 5, 10, then every 10 up to
    /// the limit (130 in the figures, 200 in the text).
    pub fn paper_steps(max: usize) -> Vec<usize> {
        let mut steps = vec![1, 5, 10];
        let mut n = 20;
        while n <= max {
            steps.push(n);
            n += 10;
        }
        steps
    }

    /// Runs one measurement point: `strategies` copies of the trimmed
    /// four-phase strategy, all scheduled at time zero.
    pub fn run_point(strategies: usize) -> ParallelStrategiesPoint {
        run_point_jittered(strategies, None)
    }

    /// The seeded variant used by the multi-trial runner: strategy start
    /// times are jittered uniformly within one second (the paper submits
    /// them "at the same time", which in practice means within the
    /// submission loop's jitter), so different trial seeds explore
    /// different queueing interleavings while any single seed stays fully
    /// reproducible.
    pub fn run_point_seeded(strategies: usize, seed: Seed) -> ParallelStrategiesPoint {
        run_point_jittered(
            strategies,
            Some(SimRng::seeded(seed.stream("fig7-start-jitter").value())),
        )
    }

    fn run_point_jittered(
        strategies: usize,
        mut jitter: Option<SimRng>,
    ) -> ParallelStrategiesPoint {
        let topology = CaseStudyTopology::new();
        let store = SharedMetricStore::new();
        seed_metrics(&store, Duration::from_secs(1_200));

        let mut engine = BifrostEngine::new(EngineConfig::default());
        engine.register_store_provider("prometheus", store);
        engine.register_proxy(topology.product_service, topology.product_stable);
        engine.register_proxy(topology.search_service, topology.search_stable);

        let handles: Vec<_> = (0..strategies)
            .map(|_| {
                let start = match jitter.as_mut() {
                    Some(rng) => SimTime::from_secs_f64(rng.uniform()),
                    None => SimTime::ZERO,
                };
                engine.schedule(trimmed_strategy(&topology), start)
            })
            .collect();
        engine.run_to_completion(SimTime::from_secs(3_600));

        let cpu: Vec<f64> = engine.utilization_trace().iter().map(|(_, u)| *u).collect();
        let mut delays = Vec::with_capacity(handles.len());
        let mut succeeded = 0;
        for handle in handles {
            if let Some(report) = engine.report(handle) {
                if report.succeeded() {
                    succeeded += 1;
                }
                if let Some(delay) = report.enactment_delay() {
                    delays.push(delay.as_secs_f64());
                }
            }
        }
        ParallelStrategiesPoint {
            strategies,
            cpu_utilization: summary(&cpu),
            delay_secs: summary(&delays),
            succeeded,
        }
    }

    /// Runs the full sweep.
    pub fn run(max_strategies: usize) -> Vec<ParallelStrategiesPoint> {
        paper_steps(max_strategies)
            .into_iter()
            .map(run_point)
            .collect()
    }
}

/// Figures 9 and 10: a single two-phase strategy with `8·n` parallel checks.
pub mod fig9_fig10 {
    use super::*;

    /// The check-count steps of the paper: 8, 80, 160, … up to the limit
    /// (1600 in the figures).
    pub fn paper_steps(max_checks: usize) -> Vec<usize> {
        let mut steps = vec![8];
        let mut n = 80;
        while n <= max_checks {
            steps.push(n);
            n += 80;
        }
        steps
    }

    /// Runs one measurement point with the given number of parallel checks
    /// (must be a multiple of 8; the paper duplicates a fixed set of 8).
    pub fn run_point(checks: usize) -> ParallelChecksPoint {
        run_point_seeded(checks, Seed::DEFAULT)
    }

    /// The seeded variant used by the multi-trial runner. The experiment is
    /// a single strategy on an otherwise idle engine, so the enactment
    /// delay is fully determined by the cost model: the seed only jitters
    /// the strategy's start time (uniform within one second), and trials
    /// legitimately report zero variance.
    pub fn run_point_seeded(checks: usize, seed: Seed) -> ParallelChecksPoint {
        let n = (checks / 8).max(1);
        let mut jitter = SimRng::seeded(seed.stream("fig9-start-jitter").value());
        let start = SimTime::from_secs_f64(jitter.uniform());
        let topology = CaseStudyTopology::new();
        let store = SharedMetricStore::new();
        seed_metrics(&store, Duration::from_secs(600));

        let mut engine = BifrostEngine::new(EngineConfig::default());
        engine.register_store_provider("prometheus", store);
        engine.register_proxy(topology.product_service, topology.product_stable);

        let strategy = parallel_check_strategy(&topology, n);
        let nominal = strategy.nominal_duration();
        let handle = engine.schedule(strategy, start);
        engine.run_to_completion(SimTime::from_secs(3_600));

        let report = engine.report(handle).expect("scheduled strategy");
        let cpu: Vec<f64> = engine.utilization_trace().iter().map(|(_, u)| *u).collect();
        let delay = report
            .measured_duration()
            .map(|d| d.as_secs_f64() - nominal.as_secs_f64())
            .unwrap_or(0.0)
            .max(0.0);
        ParallelChecksPoint {
            checks: 8 * n,
            cpu_utilization: summary(&cpu),
            delay_secs: delay,
            succeeded: report.succeeded(),
        }
    }

    /// Runs the full sweep.
    pub fn run(max_checks: usize) -> Vec<ParallelChecksPoint> {
        paper_steps(max_checks).into_iter().map(run_point).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_strategy_steps_match_paper() {
        let steps = fig7_fig8::paper_steps(130);
        assert_eq!(steps[..4], [1, 5, 10, 20]);
        assert_eq!(*steps.last().unwrap(), 130);
        let steps = fig9_fig10::paper_steps(1_600);
        assert_eq!(steps[0], 8);
        assert_eq!(steps[1], 80);
        assert_eq!(*steps.last().unwrap(), 1_600);
    }

    #[test]
    fn engine_handles_many_parallel_strategies_with_growing_delay() {
        let single = fig7_fig8::run_point(1);
        let many = fig7_fig8::run_point(60);
        assert_eq!(single.succeeded, 1);
        assert_eq!(many.succeeded, 60);
        // Delay and CPU utilisation grow with the number of strategies.
        assert!(many.delay_secs.mean >= single.delay_secs.mean);
        assert!(many.cpu_utilization.max >= single.cpu_utilization.max);
        // A single strategy barely loads the engine.
        assert!(
            single.cpu_utilization.mean < 10.0,
            "{}",
            single.cpu_utilization.mean
        );
        // Even 60 strategies complete on the single core (the paper's claim
        // that >100 are feasible; 60 keeps the test fast).
        assert!(many.delay_secs.mean < 30.0, "{}", many.delay_secs.mean);
    }

    #[test]
    fn seeded_points_are_reproducible_per_seed() {
        let a = fig7_fig8::run_point_seeded(20, Seed::new(5));
        let b = fig7_fig8::run_point_seeded(20, Seed::new(5));
        assert_eq!(a, b);
        let c = fig7_fig8::run_point_seeded(20, Seed::new(6));
        // A different seed explores a different submission interleaving.
        assert_ne!(a.delay_secs, c.delay_secs);
        assert_eq!(a.succeeded, 20);

        let x = fig9_fig10::run_point_seeded(80, Seed::new(5));
        let y = fig9_fig10::run_point_seeded(80, Seed::new(5));
        assert_eq!(x, y);
        assert!(x.succeeded);
    }

    #[test]
    fn check_count_drives_delay_and_utilization() {
        let small = fig9_fig10::run_point(8);
        let large = fig9_fig10::run_point(400);
        assert!(small.succeeded);
        assert!(large.succeeded);
        assert!(large.delay_secs > small.delay_secs);
        assert!(large.cpu_utilization.mean > small.cpu_utilization.mean);
        assert!(small.delay_secs < 2.0, "{}", small.delay_secs);
        assert_eq!(small.checks, 8);
        assert_eq!(large.checks, 400);
    }
}
