//! Ablation bench: the proxy's routing design choices.
//!
//! * cookie-based vs header-based routing (the paper notes cookie routing is
//!   slower),
//! * sticky vs non-sticky sessions,
//! * the Node.js-calibrated vs an "optimised" proxy overhead model, and
//! * single-core vs multi-core engine (the paper speculates more cores would
//!   reduce enactment delay).

use bifrost_casestudy::{trimmed_strategy, CaseStudyTopology};
use bifrost_core::ids::UserId;
use bifrost_core::prelude::*;
use bifrost_engine::{BifrostEngine, EngineConfig};
use bifrost_metrics::{SeriesKey, SharedMetricStore, TimestampMs};
use bifrost_proxy::{BifrostProxy, OverheadModel, ProxyConfig, ProxyRequest, ProxyRule};
use bifrost_simnet::SimTime;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn proxy_with(mode: RoutingMode, sticky: bool, overhead: OverheadModel) -> BifrostProxy {
    let service = ServiceId::new(0);
    let stable = VersionId::new(0);
    let canary = VersionId::new(1);
    let split = TrafficSplit::canary(stable, canary, Percentage::new(10.0).unwrap()).unwrap();
    BifrostProxy::new(
        "ablation-proxy",
        ProxyConfig::new(service, stable).with_rule(ProxyRule::split(
            split,
            sticky,
            UserSelector::All,
            mode,
        )),
    )
    .with_overhead(overhead)
}

fn bench_routing_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_proxy_routing");
    for (label, mode, sticky, overhead) in [
        (
            "cookie",
            RoutingMode::CookieBased,
            false,
            OverheadModel::node_prototype(),
        ),
        (
            "cookie_sticky",
            RoutingMode::CookieBased,
            true,
            OverheadModel::node_prototype(),
        ),
        (
            "header",
            RoutingMode::HeaderBased,
            false,
            OverheadModel::node_prototype(),
        ),
        (
            "cookie_optimized",
            RoutingMode::CookieBased,
            false,
            OverheadModel::optimized(),
        ),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let proxy = proxy_with(mode, sticky, overhead);
            let mut user = 0u64;
            b.iter(|| {
                user = user.wrapping_add(1);
                let request = ProxyRequest::from_user(UserId::new(user % 10_000)).with_header(
                    "x-bifrost-group",
                    if user.is_multiple_of(2) { "A" } else { "B" },
                );
                let decision = proxy.route(&request);
                criterion::black_box(proxy.processing_cost(&decision))
            });
        });
    }
    group.finish();
}

fn bench_engine_core_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_engine_cores");
    group.sample_size(10);
    for cores in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(cores), &cores, |b, &cores| {
            b.iter(|| {
                let topology = CaseStudyTopology::new();
                let store = SharedMetricStore::new();
                for t in (0..600).step_by(5) {
                    store.record_value(
                        SeriesKey::new("request_errors").with_label("version", "product-a"),
                        TimestampMs::from_secs(t),
                        0.0,
                    );
                }
                let mut engine = BifrostEngine::new(EngineConfig {
                    cores,
                    ..EngineConfig::default()
                });
                engine.register_store_provider("prometheus", store);
                engine.register_proxy(topology.product_service, topology.product_stable);
                let handles: Vec<_> = (0..40)
                    .map(|_| engine.schedule(trimmed_strategy(&topology), SimTime::ZERO))
                    .collect();
                engine.run_to_completion(SimTime::from_secs(3_600));
                let mean_delay: f64 = handles
                    .iter()
                    .filter_map(|h| engine.report(*h))
                    .filter_map(|r| r.enactment_delay())
                    .map(|d| d.as_secs_f64())
                    .sum::<f64>()
                    / handles.len() as f64;
                criterion::black_box(mean_delay)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing_modes, bench_engine_core_counts);
criterion_main!(benches);
