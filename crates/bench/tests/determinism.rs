//! Determinism of the multi-trial parallel runner: the same `base_seed`
//! and trial index must yield **byte-identical** results no matter how many
//! worker threads execute the trials, and any trial must be reproducible in
//! isolation from its derived seed (`base_seed + trial_index`).

use bifrost_bench::runner::{run_trials, RunnerConfig};
use bifrost_bench::suite;
use bifrost_casestudy::{trimmed_strategy, CaseStudyTopology};
use bifrost_core::seed::Seed;
use bifrost_engine::{BifrostEngine, EngineConfig, StrategyReport};
use bifrost_metrics::{SeriesKey, SharedMetricStore, TimestampMs};
use bifrost_simnet::{SimRng, SimTime};

/// One full engine trial: schedules `strategies` copies of the trimmed
/// case-study strategy with seed-jittered start times, runs to completion,
/// and returns every [`StrategyReport`] the engine produced.
fn engine_trial(seed: Seed, strategies: usize) -> Vec<StrategyReport> {
    let topology = CaseStudyTopology::new();
    let store = SharedMetricStore::new();
    for t in (0..1_200).step_by(5) {
        for version in ["product", "product-a", "product-b"] {
            store.record_value(
                SeriesKey::new("request_errors").with_label("version", version),
                TimestampMs::from_secs(t),
                0.0,
            );
            store.record_value(
                SeriesKey::new("requests_total").with_label("version", version),
                TimestampMs::from_secs(t),
                1.0,
            );
        }
    }
    let mut engine = BifrostEngine::new(EngineConfig::default().with_seed(seed));
    engine.register_store_provider("prometheus", store);
    engine.register_proxy(topology.product_service, topology.product_stable);
    engine.register_proxy(topology.search_service, topology.search_stable);
    let mut jitter = SimRng::seeded(seed.stream("start-jitter").value());
    let handles: Vec<_> = (0..strategies)
        .map(|_| {
            engine.schedule(
                trimmed_strategy(&topology),
                SimTime::from_secs_f64(jitter.uniform()),
            )
        })
        .collect();
    engine.run_to_completion(SimTime::from_secs(3_600));
    handles
        .into_iter()
        .map(|h| engine.report(h).expect("scheduled strategy"))
        .collect()
}

#[test]
fn n_thread_runs_are_byte_identical_to_one_thread_runs() {
    let run = |threads: usize| {
        let config = RunnerConfig::default()
            .with_trials(6)
            .with_threads(threads)
            .with_base_seed(Seed::new(1_000));
        run_trials(&config, |trial| {
            // Byte-identical: compare the full Debug rendering of every
            // report, not just summary numbers.
            format!("{:?}", engine_trial(trial.seed(), 8))
        })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.value, b.value, "trial {} diverged", a.config.trial_index);
    }
}

#[test]
fn a_trial_is_reproducible_in_isolation_from_its_derived_seed() {
    let config = RunnerConfig::default()
        .with_trials(5)
        .with_threads(3)
        .with_base_seed(Seed::new(500));
    let outcomes = run_trials(&config, |trial| {
        format!("{:?}", engine_trial(trial.seed(), 5))
    });
    // Re-run trial 3 alone, outside the runner, from base_seed + 3.
    let replay = format!("{:?}", engine_trial(Seed::new(503), 5));
    assert_eq!(outcomes[3].value, replay);
    // And the derived seeds are the documented scheme.
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.config.seed(), Seed::new(500 + i as u64));
    }
}

#[test]
fn different_seeds_produce_different_executions() {
    let a = format!("{:?}", engine_trial(Seed::new(1), 8));
    let b = format!("{:?}", engine_trial(Seed::new(2), 8));
    assert_ne!(a, b, "start jitter must depend on the seed");
}

#[test]
fn suite_reports_are_thread_count_invariant() {
    let base = RunnerConfig::default()
        .with_trials(4)
        .with_base_seed(Seed::new(7));
    for (figure, max) in [("fig9", Some(80)), ("fig6", None)] {
        let serial = suite::run_figure(figure, true, max, None, &base.with_threads(1)).unwrap();
        let parallel = suite::run_figure(figure, true, max, None, &base.with_threads(4)).unwrap();
        assert_eq!(serial.points.len(), parallel.points.len());
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.samples, b.samples, "{figure} point {} diverged", a.point);
            assert_eq!(a.stats, b.stats);
        }
    }
}

/// One sticky-traffic trial over the **sharded** session store: a sticky
/// canary split followed by a dark launch, with seeded request-level
/// traffic routed through a proxy sharded `shards` ways. Returns the full
/// Debug rendering of the traffic statistics and the proxy's counters, so
/// comparisons are byte-level.
fn sharded_traffic_trial(seed: Seed, shards: usize) -> String {
    run_sharded_traffic(seed, shards).rendering
}

/// What [`sharded_traffic_trial`] observed, beyond its rendering.
struct ShardedTraffic {
    rendering: String,
    proxy_stats: bifrost_proxy::ProxyStats,
    /// Whether the proxy held a sticky split at t = 20 s (inside the canary).
    sticky_at_20s: bool,
    /// Live session bindings at t = 20 s.
    sessions_at_20s: usize,
}

fn run_sharded_traffic(seed: Seed, shards: usize) -> ShardedTraffic {
    use bifrost_core::prelude::*;
    use bifrost_engine::TrafficProfile;
    use bifrost_workload::{LoadProfile, RequestMix};
    use std::time::Duration;

    let mut catalog = ServiceCatalog::new();
    let product = catalog.add_service(Service::new("product"));
    let stable = catalog
        .add_version(
            product,
            ServiceVersion::new("product", Endpoint::new("10.0.0.1", 8080)),
        )
        .expect("fresh catalog");
    let candidate = catalog
        .add_version(
            product,
            ServiceVersion::new("product-a", Endpoint::new("10.0.0.2", 8080)),
        )
        .expect("fresh catalog");
    let strategy = StrategyBuilder::new("sharded-traffic", catalog)
        .phase(
            PhaseSpec::canary(
                "canary",
                product,
                stable,
                candidate,
                Percentage::new(20.0).expect("valid"),
            )
            .sticky(true)
            .duration_secs(30),
        )
        .phase(
            PhaseSpec::dark_launch(
                "dark",
                product,
                stable,
                candidate,
                Percentage::new(25.0).expect("valid"),
            )
            .duration_secs(30),
        )
        .build()
        .expect("valid strategy");

    let load = LoadProfile {
        requests_per_second: 150.0,
        ramp_up: Duration::ZERO,
        duration: Duration::from_secs(60),
        mix: RequestMix::paper_mix(),
        user_count: 5_000,
        poisson_arrivals: false,
    };
    let store = SharedMetricStore::new();
    let mut engine = BifrostEngine::new(
        EngineConfig::default()
            .with_seed(seed)
            .with_session_shards(shards),
    );
    engine.register_store_provider("prometheus", store.clone());
    engine.register_proxy(product, stable);
    engine.schedule(strategy, SimTime::ZERO);
    let traffic = engine.attach_traffic(TrafficProfile::new(product, load), store);
    let proxy = engine.proxy(product).expect("registered");
    engine.run_until(SimTime::from_secs(20));
    let sticky_at_20s = proxy.read().config().requires_sticky_sessions();
    let sessions_at_20s = proxy.read().sessions().len();
    engine.run_until(SimTime::from_secs(70));
    let proxy_stats = proxy.read().stats();
    ShardedTraffic {
        rendering: format!(
            "{:?} | {:?}",
            engine.traffic_stats(traffic).expect("attached"),
            proxy_stats
        ),
        proxy_stats,
        sticky_at_20s,
        sessions_at_20s,
    }
}

#[test]
fn sharded_sticky_traffic_is_byte_identical_across_runner_threads() {
    // The satellite determinism guarantee of the sharded store: routing
    // the same seeded traffic at 1, 4, and 8 runner threads over a
    // 16-shard session store yields byte-identical reports per trial.
    let run = |threads: usize| {
        let config = RunnerConfig::default()
            .with_trials(8)
            .with_threads(threads)
            .with_base_seed(Seed::new(2_000));
        run_trials(&config, |trial| sharded_traffic_trial(trial.seed(), 16))
    };
    let serial = run(1);
    for threads in [4usize, 8] {
        let parallel = run(threads);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.config, b.config);
            assert_eq!(
                a.value, b.value,
                "trial {} diverged at {} runner threads",
                a.config.trial_index, threads
            );
        }
    }
}

#[test]
fn shard_count_does_not_change_engine_traffic_results() {
    // The shard knob is a pure scalability control: 1-shard and 16-shard
    // engines report byte-identical traffic and proxy statistics.
    let one = run_sharded_traffic(Seed::new(77), 1);
    let sixteen = run_sharded_traffic(Seed::new(77), 16);
    assert_eq!(one.rendering, sixteen.rendering);
    // The run carries real content: both versions served requests and the
    // dark launch duplicated some of them.
    let served = &one.proxy_stats.per_version;
    assert_eq!(served.len(), 2, "{}", one.rendering);
    assert!(served.values().all(|&n| n > 0), "{}", one.rendering);
    assert!(one.proxy_stats.shadow_copies > 0, "{}", one.rendering);
    // Engine traffic is identified users only: inside the sticky canary
    // they are bucketed on their user id and nobody is bound.
    assert!(one.sticky_at_20s);
    assert_eq!(one.sessions_at_20s, 0);
}

#[test]
fn backends_figure_is_byte_identical_across_runner_threads() {
    // The queued-backend figure derives everything (arrival plan, routing
    // draws, primary and shadow demand jitter, queue/shed decisions) from
    // the per-trial seed, so its per-point samples must match to the byte
    // across 1, 4, and 8 runner threads.
    let base = RunnerConfig::default()
        .with_trials(3)
        .with_base_seed(Seed::new(33));
    let serial =
        suite::run_figure("backends", true, None, Some(6_000), &base.with_threads(1)).unwrap();
    for threads in [4usize, 8] {
        let parallel = suite::run_figure(
            "backends",
            true,
            None,
            Some(6_000),
            &base.with_threads(threads),
        )
        .unwrap();
        assert_eq!(serial.points.len(), parallel.points.len());
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.point, b.point);
            assert_eq!(
                format!("{:?}", a.samples),
                format!("{:?}", b.samples),
                "point {} diverged at {} runner threads",
                a.point,
                threads
            );
            assert_eq!(a.stats, b.stats);
        }
    }
}

#[test]
fn traffic_figure_is_byte_identical_across_thread_counts() {
    // The request-level traffic pipeline derives everything (arrival plan,
    // routing draws, backend behaviour) from the per-trial seed, so the
    // rendered per-point samples must match to the byte between a 1-thread
    // and an N-thread run.
    let base = RunnerConfig::default()
        .with_trials(3)
        .with_base_seed(Seed::new(21));
    let serial =
        suite::run_figure("traffic", true, None, Some(4_000), &base.with_threads(1)).unwrap();
    let parallel =
        suite::run_figure("traffic", true, None, Some(4_000), &base.with_threads(3)).unwrap();
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.point, b.point);
        assert_eq!(
            format!("{:?}", a.samples),
            format!("{:?}", b.samples),
            "point {} diverged",
            a.point
        );
        assert_eq!(a.stats, b.stats);
    }
}
