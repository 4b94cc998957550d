//! The benchmark's three workloads, built from a seed.
//!
//! Each workload is a [`Scenario`]: the strategies to enact, the traffic
//! streams to attach, and the engine configuration. Building a scenario
//! (DSL parse or strategy builder, stream specs) is the first half of the
//! timed set-up; [`crate::run::instantiate`] is the second half.

use bifrost_core::check::QueryAggregation;
use bifrost_core::phase::PhaseCheck;
use bifrost_core::prelude::*;
use bifrost_engine::{BackendProfile, EngineConfig, QueuedBackend, TrafficProfile};
use bifrost_simnet::SimTime;
use bifrost_workload::{LoadProfile, RequestMix};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `traffic` figure's shape at millions of requests: per-request
    /// data-plane cost at scale.
    BulkCanaryDark,
    /// An hour of virtual time at a moderate Poisson rate on queued
    /// replicas near saturation: per-tick cost.
    LongQueuedCanary,
    /// Hundreds of concurrent multi-phase strategies with many checks over
    /// light traffic: the control plane.
    ControlPlaneFanout,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::BulkCanaryDark,
        Workload::LongQueuedCanary,
        Workload::ControlPlaneFanout,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkCanaryDark => "bulk_canary_dark",
            Workload::LongQueuedCanary => "long_queued_canary",
            Workload::ControlPlaneFanout => "control_plane_fanout",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is what the benchmark measures; `Small` keeps the
/// same shape at a size the package's tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A reduced size with the same shape.
    Small,
}

/// One traffic stream: the profile handed to the engine plus the parts of
/// it the replay needs and `TrafficProfile` does not expose.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// The profile attached to the engine.
    pub profile: TrafficProfile,
    /// Proxy-VM cores of the stream's service.
    pub cores: usize,
    /// The `service` label of recorded series.
    pub service_label: String,
    /// The `version` label of each version with an explicit backend.
    pub version_labels: BTreeMap<VersionId, String>,
}

/// One strategy and the final state it must reach.
#[derive(Debug, Clone)]
pub struct StrategySpec {
    /// The strategy.
    pub strategy: Strategy,
    /// When it is scheduled to start.
    pub start_at: SimTime,
    /// Whether it must end in its success state (otherwise in rollback).
    pub expect_success: bool,
}

/// A workload's inputs for one seed.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The seed every input derives from.
    pub seed: Seed,
    /// The engine configuration (carries the seed).
    pub engine_config: EngineConfig,
    /// Proxies to register: `(service, default version)`.
    pub proxies: Vec<(ServiceId, VersionId)>,
    /// Strategies to schedule, in schedule order.
    pub strategies: Vec<StrategySpec>,
    /// Traffic streams to attach, in attach order.
    pub streams: Vec<StreamSpec>,
    /// Virtual time by which every planned arrival has been routed (see
    /// [`traffic_end`]).
    pub traffic_end: SimTime,
    /// Deadline no run may pass; reaching it is a failure.
    pub horizon: SimTime,
    /// Smallest pooled request count on which a split or shadow share is
    /// checked against its configured value.
    pub min_share_pool: u64,
    /// Host time spent parsing DSL documents while building the scenario.
    pub dsl_parse: Duration,
}

impl Scenario {
    /// Builds the scenario of `workload` at `scale` from `seed`.
    pub fn build(workload: Workload, scale: Scale, seed: Seed) -> Self {
        match workload {
            Workload::BulkCanaryDark => bulk_canary_dark(scale, seed),
            Workload::LongQueuedCanary => long_queued_canary(scale, seed),
            Workload::ControlPlaneFanout => control_plane_fanout(scale, seed),
        }
    }
}

/// Microseconds added to every strategy start. The engine's modelled costs
/// are whole milliseconds, so every state transition then falls half a
/// millisecond off the millisecond grid, and never on a tick boundary,
/// where the order of a reconfiguration and a traffic tick would be
/// ambiguous to the traced replay.
const OFF_GRID_US: u64 = 500;

/// Proxy-VM cores that keep peak routing demand (about 11 ms of proxy CPU
/// per dark-launched request) near 60% utilisation, as the figures size
/// them. An overloaded VM makes every utilisation sample rescan its backlog.
fn proxy_cores(rate: f64) -> usize {
    ((rate * 0.011 / 0.6).ceil() as usize).max(1)
}

/// The end of the last tick that can hold an arrival of `profile`.
/// Arrivals fall before the load's duration, but rounding them to whole
/// microseconds can put the last one exactly on it, which opens one more
/// tick.
fn traffic_end(profile: &TrafficProfile) -> SimTime {
    SimTime::ZERO + profile.load().duration + profile.tick()
}

/// Parses a DSL document, adding the parse time to `spent`.
fn parse_dsl(source: &str, spent: &mut Duration) -> Strategy {
    let started = Instant::now();
    let strategy = bifrost_dsl::parse_strategy(source).expect("benchmark DSL documents are valid");
    *spent += started.elapsed();
    strategy
}

/// The `product` service of a two-version DSL deployment: its id, stable
/// and candidate versions.
fn product_versions(strategy: &Strategy) -> (ServiceId, VersionId, VersionId) {
    let catalog = strategy.services();
    let (service, _) = catalog
        .service_by_name("product")
        .expect("the document declares product");
    let versions = catalog.versions_of(service);
    (service, versions[0], versions[1])
}

const BULK_DSL: &str = r#"
name: bulk-canary-dark
deployment:
  services:
    - service: product
      versions:
        - name: product
          host: 10.0.0.1
          port: 8080
        - name: product-a
          host: 10.0.0.2
          port: 8080
strategy:
  phases:
    - phase: canary
      name: canary
      service: product
      stable: product
      candidate: product-a
      traffic: 10
      sticky: true
      duration: 60
      checks:
        - name: canary-errors
          provider: prometheus
          query: request_errors{version="product-a"}
          aggregation: rate
          window: 30
          interval: 30
          executions: 2
          validator: "<1"
    - phase: dark_launch
      name: dark
      service: product
      from: product
      to: product-a
      traffic: 25
      duration: 60
      checks:
        - name: shadow-volume
          provider: prometheus
          query: shadow_requests_total{version="product-a"}
          aggregation: rate
          window: 30
          interval: 30
          executions: 2
          validator: ">0"
"#;

/// `bulk_canary_dark`: 60 s of a sticky 10% canary, then 60 s of a 25%
/// dark launch, over a 1M-user population at a few million requests, on
/// unlimited-capacity backends with one light check per phase.
fn bulk_canary_dark(scale: Scale, seed: Seed) -> Scenario {
    let requests = match scale {
        Scale::Full => 2_400_000.0,
        Scale::Small => 24_000.0,
    };
    let mut dsl_parse = Duration::ZERO;
    let strategy = parse_dsl(BULK_DSL, &mut dsl_parse);
    let (product, stable, candidate) = product_versions(&strategy);
    let duration = Duration::from_secs(120);
    let rate = requests / duration.as_secs_f64();
    let load = LoadProfile {
        requests_per_second: rate,
        ramp_up: Duration::ZERO,
        duration,
        mix: RequestMix::paper_mix(),
        user_count: 1_000_000,
        poisson_arrivals: false,
    };
    let cores = proxy_cores(rate);
    let profile = TrafficProfile::new(product, load)
        .with_cores(cores)
        .with_service_label("product")
        .with_backend(
            stable,
            "product",
            BackendProfile::healthy(Duration::from_millis(12)),
        )
        .with_backend(
            candidate,
            "product-a",
            BackendProfile::healthy(Duration::from_millis(9)),
        );
    let end = traffic_end(&profile);
    Scenario {
        seed,
        engine_config: EngineConfig::default().with_seed(seed),
        proxies: vec![(product, stable)],
        strategies: vec![StrategySpec {
            strategy,
            start_at: SimTime::from_micros(OFF_GRID_US),
            expect_success: true,
        }],
        streams: vec![StreamSpec {
            profile,
            cores,
            service_label: "product".into(),
            version_labels: labels(&[(stable, "product"), (candidate, "product-a")]),
        }],
        traffic_end: end,
        horizon: SimTime::from_secs(600),
        min_share_pool: share_pool(scale),
        dsl_parse,
    }
}

const LONG_DSL: &str = r#"
name: long-queued-canary
deployment:
  services:
    - service: product
      versions:
        - name: product
          host: 10.0.0.1
          port: 8080
        - name: product-a
          host: 10.0.0.2
          port: 8080
strategy:
  phases:
    - phase: dark_launch
      name: dark
      service: product
      from: product
      to: product-a
      traffic: 20
      duration: @HALF@
      checks:
@CHECKS@
    - phase: canary
      name: canary
      service: product
      stable: product
      candidate: product-a
      traffic: 20
      duration: @HALF@
      checks:
@CHECKS@
"#;

const LONG_CHECKS: &str = r#"        - name: latency-p95
          provider: prometheus
          query: request_latency_p95_ms{service="product"}
          aggregation: max
          window: 5
          interval: 5
          executions: @EXECS@
          threshold: @THRESHOLD@
          validator: "<400"
        - name: shed
          provider: prometheus
          query: requests_shed_total{version="product-a"}
          aggregation: rate
          window: 5
          interval: 5
          executions: @EXECS@
          threshold: @THRESHOLD@
          validator: "<100"
        - name: errors
          provider: prometheus
          query: request_errors{version="product-a"}
          aggregation: rate
          window: 5
          interval: 5
          executions: @EXECS@
          threshold: @THRESHOLD@
          validator: "<120"
"#;

/// `long_queued_canary`: a 20% dark launch, then a 20% canary, over an
/// hour of Poisson arrivals at 500 rps from a 10k-user pool, 100 ms ticks.
/// The candidate runs on two queued replicas at 90% load; three checks
/// every 5 s watch p95 latency, shedding and errors, and pass.
fn long_queued_canary(scale: Scale, seed: Seed) -> Scenario {
    let (secs, rate) = match scale {
        Scale::Full => (3_600u64, 500.0),
        Scale::Small => (300u64, 500.0),
    };
    let half = secs / 2;
    let execs = half / 5;
    let checks = LONG_CHECKS
        .replace("@EXECS@", &execs.to_string())
        .replace("@THRESHOLD@", &(execs * 9 / 10).to_string());
    let source = LONG_DSL
        .replace("@HALF@", &half.to_string())
        .replace("@CHECKS@\n", &checks);
    let mut dsl_parse = Duration::ZERO;
    let strategy = parse_dsl(&source, &mut dsl_parse);
    let (product, stable, candidate) = product_versions(&strategy);
    let load = LoadProfile {
        requests_per_second: rate,
        ramp_up: Duration::ZERO,
        duration: Duration::from_secs(secs),
        mix: RequestMix::paper_mix(),
        user_count: 10_000,
        poisson_arrivals: true,
    };
    let cores = proxy_cores(rate);
    // 20% of the rate reaches the candidate in either phase; two replicas
    // at this demand run at 90% utilisation. A six-deep queue per replica
    // and a 100 ms deadline make about 1.4% of dispatches shed and 2% of
    // primary requests time out.
    let candidate_demand = Duration::from_secs_f64(0.9 * 2.0 / (rate * 0.2));
    let profile = TrafficProfile::new(product, load)
        .with_tick(Duration::from_millis(100))
        .with_cores(cores)
        .with_service_label("product")
        .with_backend(
            stable,
            "product",
            BackendProfile::healthy(Duration::from_millis(8)),
        )
        .with_queued_backend(
            candidate,
            "product-a",
            QueuedBackend::new(candidate_demand)
                .with_error_rate(0.01)
                .with_replicas(2)
                .with_queue_capacity(6)
                .with_timeout(Duration::from_millis(100)),
        );
    let end = traffic_end(&profile);
    Scenario {
        seed,
        engine_config: EngineConfig::default().with_seed(seed),
        proxies: vec![(product, stable)],
        strategies: vec![StrategySpec {
            strategy,
            start_at: SimTime::from_micros(OFF_GRID_US),
            expect_success: true,
        }],
        streams: vec![StreamSpec {
            profile,
            cores,
            service_label: "product".into(),
            version_labels: labels(&[(stable, "product"), (candidate, "product-a")]),
        }],
        traffic_end: end,
        horizon: SimTime::from_secs(secs + 600),
        min_share_pool: share_pool(scale),
        dsl_parse,
    }
}

/// Every `DEFECTIVE_EVERY`-th fan-out service ships a failing candidate,
/// whose strategy must roll back.
const DEFECTIVE_EVERY: usize = 8;

/// `control_plane_fanout`: hundreds of concurrent strategies, each a 5%
/// canary then a 25%-step rollout on its own service, three checks every
/// 5 s per state, over 10 rps of traffic per service. Built with the
/// strategy builder over one shared catalog (see the notes on DSL service
/// ids in the README).
fn control_plane_fanout(scale: Scale, seed: Seed) -> Scenario {
    let services = match scale {
        Scale::Full => 200,
        Scale::Small => 16,
    };
    let traffic_secs = 240u64;
    let mut catalog = ServiceCatalog::new();
    let mut ids = Vec::with_capacity(services);
    for i in 0..services {
        let service = catalog.add_service(Service::new(format!("svc{i}")));
        let stable = catalog
            .add_version(
                service,
                ServiceVersion::new(format!("svc{i}-v1"), Endpoint::new("10.1.0.1", 8080)),
            )
            .expect("fresh service");
        let candidate = catalog
            .add_version(
                service,
                ServiceVersion::new(format!("svc{i}-v2"), Endpoint::new("10.1.0.2", 8080)),
            )
            .expect("fresh service");
        ids.push((service, stable, candidate));
    }
    // Starts spread evenly over 10 s, so every seed sees the same check
    // load per second; the seed varies the traffic.
    let start_gap = 10_000_000 / services as u64;
    let mut strategies = Vec::with_capacity(services);
    let mut streams = Vec::with_capacity(services);
    for (i, &(service, stable, candidate)) in ids.iter().enumerate() {
        let label = format!("svc{i}");
        let defective = i % DEFECTIVE_EVERY == DEFECTIVE_EVERY - 1;
        let strategy = StrategyBuilder::new(format!("fanout-{i}"), catalog.clone())
            .phase(
                fanout_checks(
                    PhaseSpec::canary("canary", service, stable, candidate, pct(5.0)),
                    &label,
                    12,
                )
                .duration_secs(60),
            )
            .phase(fanout_checks(
                PhaseSpec::gradual_rollout(
                    "rollout",
                    service,
                    stable,
                    candidate,
                    pct(25.0),
                    pct(100.0),
                    pct(25.0),
                    Duration::from_secs(30),
                ),
                &label,
                6,
            ))
            .build()
            .expect("valid fan-out strategy");
        strategies.push(StrategySpec {
            strategy,
            start_at: SimTime::from_micros(i as u64 * start_gap + OFF_GRID_US),
            expect_success: !defective,
        });
        let load = LoadProfile {
            requests_per_second: 10.0,
            ramp_up: Duration::ZERO,
            duration: Duration::from_secs(traffic_secs),
            mix: RequestMix::paper_mix(),
            user_count: 20_000,
            poisson_arrivals: true,
        };
        let candidate_backend = if defective {
            BackendProfile::defective(Duration::from_millis(15), 0.5)
        } else {
            BackendProfile::healthy(Duration::from_millis(9))
        };
        let profile = TrafficProfile::new(service, load)
            .with_service_label(label.clone())
            .with_backend(
                stable,
                "v1",
                BackendProfile::healthy(Duration::from_millis(10)),
            )
            .with_backend(candidate, "v2", candidate_backend);
        streams.push(StreamSpec {
            profile,
            cores: 1,
            service_label: label,
            version_labels: labels(&[(stable, "v1"), (candidate, "v2")]),
        });
    }
    // Hundreds of strategies' checks exceed one engine core's modelled
    // capacity; four cores keep enactment delays at the paper's scale.
    let engine_config = EngineConfig {
        cores: 4,
        ..EngineConfig::default().with_seed(seed)
    };
    let end = streams
        .iter()
        .map(|stream| traffic_end(&stream.profile))
        .max()
        .expect("at least one stream");
    Scenario {
        seed,
        engine_config,
        proxies: ids.iter().map(|&(s, stable, _)| (s, stable)).collect(),
        strategies,
        streams,
        traffic_end: end,
        horizon: SimTime::from_secs(traffic_secs + 600),
        min_share_pool: share_pool(scale),
        dsl_parse: Duration::ZERO,
    }
}

/// Adds the fan-out checks to a phase: candidate errors, stable volume and
/// service p95, each every 5 s, each passing when at least half of its
/// `executions` succeed.
fn fanout_checks(phase: PhaseSpec, service: &str, executions: u32) -> PhaseSpec {
    let query = |name: &str, metric: &str, version: Option<&str>| {
        let query = MetricQuery::new("prometheus", name, metric).with_label("service", service);
        match version {
            Some(version) => query.with_label("version", version),
            None => query,
        }
    };
    let timer = || Timer::from_secs(5, executions).expect("valid timer");
    let mapping =
        || OutcomeMapping::binary(i64::from(executions / 2), -1, 1).expect("valid mapping");
    let checks = [
        (
            "errors",
            query("errors", "request_errors", Some("v2"))
                .with_aggregation(QueryAggregation::Rate)
                .with_window_secs(10),
            Validator::LessThan(1.0),
        ),
        (
            "volume",
            query("volume", "requests_total", Some("v1"))
                .with_aggregation(QueryAggregation::Rate)
                .with_window_secs(10),
            Validator::GreaterThan(0.0),
        ),
        (
            "latency",
            query("latency", "request_latency_p95_ms", None)
                .with_aggregation(QueryAggregation::Max)
                .with_window_secs(10),
            Validator::LessThan(100.0),
        ),
    ];
    checks
        .into_iter()
        .fold(phase, |phase, (name, query, validator)| {
            phase.check(PhaseCheck::basic(
                name,
                CheckSpec::single(query, validator),
                timer(),
                mapping(),
            ))
        })
}

fn pct(value: f64) -> Percentage {
    Percentage::new(value).expect("valid percentage")
}

fn labels(pairs: &[(VersionId, &str)]) -> BTreeMap<VersionId, String> {
    pairs
        .iter()
        .map(|(version, label)| (*version, label.to_string()))
        .collect()
}

fn share_pool(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 20_000,
        Scale::Small => 5_000,
    }
}
