//! The traced replay: the engine's traffic path, layer by layer, through
//! each layer's public functions, with spans around every layer call.
//!
//! The replay needs two things the engine decides at run time: when each
//! proxy changed configuration, and which checks ran when. A recording run
//! ([`record`]) steps the engine tick by tick and captures both. The replay
//! ([`replay`]) then rebuilds every stream exactly as the engine does —
//! arrival plan from `seed.stream("traffic-{i}")`, backend RNGs from its
//! `"backends"` and `"shadow-backends"` streams, proxies through a
//! `ProxyFleet` — and routes the same batches in the engine's order. Its
//! counts must match the engine run's exactly.

use crate::run::{self, RunSummary, StreamSummary};
use crate::trace::{Tracer, NONE};
use crate::workloads::{Scenario, StreamSpec};
use bifrost_core::prelude::*;
use bifrost_engine::{
    BackendDispatch, BackendFleet, BackendModel, EngineEvent, ProxyFleet, ProxyHandle,
};
use bifrost_metrics::{ProviderRegistry, SharedMetricStore, TrafficSeriesRecorder};
use bifrost_proxy::{ProxyConfig, ProxyRequest};
use bifrost_simnet::{CpuResource, SimRng, SimTime};
use bifrost_workload::ArrivalPlan;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// What the engine decided at run time, captured by a recording run.
#[derive(Debug)]
pub struct Timeline {
    /// Per service: the configuration in effect from each tick time on,
    /// one entry per change.
    pub configs: BTreeMap<ServiceId, Vec<(SimTime, ProxyConfig)>>,
    /// Check executions: when, the strategy's index in the scenario, the
    /// state and the check.
    pub checks: Vec<(SimTime, usize, StateId, CheckId)>,
    /// The recording run's summary (its digest must equal the untraced
    /// run's).
    pub summary: RunSummary,
}

/// Runs the engine one tick at a time and records, for every tick time,
/// the configuration each proxy routes that tick with. A configuration
/// change at exactly a tick time could fall on either side of that tick,
/// so it fails the recording instead of guessing.
pub fn record(scenario: &Scenario) -> Result<Timeline, String> {
    let mut instance = run::instantiate(scenario);
    let mut tick_times = BTreeSet::new();
    for spec in &scenario.streams {
        let tick = spec.profile.tick().as_micros() as u64;
        let end = scenario.traffic_end.as_micros();
        tick_times.extend((1..=end.div_ceil(tick)).map(|k| SimTime::from_micros(k * tick)));
    }
    let proxies: Vec<(ServiceId, ProxyHandle)> = scenario
        .proxies
        .iter()
        .map(|&(service, _)| (service, instance.engine.proxy(service).expect("registered")))
        .collect();
    let mut revisions: Vec<u64> = vec![0; proxies.len()];
    let mut configs: BTreeMap<ServiceId, Vec<(SimTime, ProxyConfig)>> = BTreeMap::new();
    for &at in &tick_times {
        instance
            .engine
            .run_until(SimTime::from_micros(at.as_micros() - 1));
        for ((service, proxy), revision) in proxies.iter().zip(&mut revisions) {
            let proxy = proxy.read();
            if proxy.config().revision() != *revision {
                *revision = proxy.config().revision();
                configs
                    .entry(*service)
                    .or_default()
                    .push((at, proxy.config().clone()));
            }
        }
        instance.engine.run_until(at);
        for ((service, proxy), revision) in proxies.iter().zip(&revisions) {
            if proxy.read().config().revision() != *revision {
                return Err(format!(
                    "{service} changed configuration exactly at tick time {:.6} s",
                    at.as_secs_f64()
                ));
            }
        }
    }
    instance.engine.run_to_completion(scenario.horizon);
    let index_of: BTreeMap<StrategyId, usize> = instance
        .strategies
        .iter()
        .enumerate()
        .map(|(index, handle)| (handle.id(), index))
        .collect();
    let checks = instance
        .engine
        .events()
        .events()
        .iter()
        .filter_map(|event| match event {
            EngineEvent::CheckExecuted {
                strategy,
                state,
                check,
                at,
                ..
            } => Some((*at, index_of[strategy], *state, *check)),
            _ => None,
        })
        .collect();
    Ok(Timeline {
        configs,
        checks,
        summary: run::summarize(&instance),
    })
}

/// Counters the replay keeps per layer.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Planned arrivals.
    pub arrivals: u64,
    /// Bytes of the arrival plans and their batch index.
    pub plan_bytes: u64,
    /// Requests routed.
    pub requests: u64,
    /// Ticks replayed.
    pub ticks: u64,
    /// Batches on which per-request and batched routing disagreed.
    pub route_mismatches: u64,
    /// Proxy-VM cores over all services.
    pub cores: u64,
    /// Calls into `BackendFleet::ensure` + `VersionBackend::dispatch`.
    pub dispatches: u64,
    /// Host nanoseconds inside those calls.
    pub dispatch_ns: u64,
    /// Dispatches (primary or shadow) a full queue shed.
    pub shed: u64,
    /// Primary dispatches.
    pub primary_dispatches: u64,
    /// Primary requests past their backend's deadline.
    pub timed_out: u64,
    /// Peak live sticky sessions over all proxies.
    pub sessions_peak: u64,
    /// Sticky-session lookups that found a binding.
    pub session_hits: u64,
    /// Sticky-session lookups that found none.
    pub session_misses: u64,
    /// Samples in the replay's metric store at the end.
    pub store_samples: u64,
    /// Series in the replay's metric store at the end.
    pub store_series: u64,
}

/// The replay's outcome.
#[derive(Debug)]
pub struct Replay {
    /// Host seconds the whole replay took.
    pub wall_s: f64,
    /// Per stream, the counts to compare with the engine run.
    pub streams: Vec<StreamSummary>,
    /// Per-layer counters.
    pub counts: LayerCounts,
    /// The spans (empty when tracing was off).
    pub tracer: Tracer,
}

/// How a primary request fared at its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Serve {
    Served,
    Shed,
    TimedOut,
}

/// One stream's replay state, built as `TrafficStream::new` builds it.
struct StreamState<'a> {
    spec: &'a StreamSpec,
    proxy: ProxyHandle,
    twin: ProxyHandle,
    arrivals: ArrivalPlan,
    batches: Vec<(SimTime, usize, usize)>,
    rng: SimRng,
    shadow_rng: SimRng,
    recorder: TrafficSeriesRecorder,
    labels: BTreeMap<VersionId, String>,
    counts: StreamSummary,
    total_latency_ms: f64,
}

fn label_of(labels: &mut BTreeMap<VersionId, String>, version: VersionId) -> &str {
    labels
        .entry(version)
        .or_insert_with(|| version.to_string())
        .as_str()
}

/// Replays the scenario's traffic and checks along `timeline`, with spans
/// on (`traced`) or off.
pub fn replay(scenario: &Scenario, timeline: &Timeline, traced: bool) -> Replay {
    let started = Instant::now();
    let mut tracer = Tracer::new(traced);
    let mut counts = LayerCounts::default();
    let store = SharedMetricStore::new();
    let mut registry = ProviderRegistry::new();
    registry.register_store("prometheus", store.clone());
    let shards = scenario.engine_config.session_shards;
    let mut fleet = ProxyFleet::with_session_shards(shards);
    let mut twins = ProxyFleet::with_session_shards(shards);
    for &(service, version) in &scenario.proxies {
        fleet.register(service, version);
        twins.register(service, version);
    }
    let mut cpus: BTreeMap<ServiceId, CpuResource> = BTreeMap::new();
    let mut backends = BackendFleet::new();

    let mut streams: Vec<StreamState> = Vec::with_capacity(scenario.streams.len());
    for (index, spec) in scenario.streams.iter().enumerate() {
        let stream_seed = scenario.seed.stream(&format!("traffic-{index}"));
        let (arrivals, batches) = tracer.span("workload.plan", NONE, NONE, || {
            let arrivals = spec.profile.load().plan_seeded(stream_seed);
            let mut cursor = 0usize;
            let batches: Vec<(SimTime, usize, usize)> = arrivals
                .batches(spec.profile.tick())
                .map(|batch| {
                    let start = cursor;
                    cursor += batch.arrivals.len();
                    (batch.end, start, cursor)
                })
                .collect();
            (arrivals, batches)
        });
        counts.arrivals += arrivals.len() as u64;
        counts.plan_bytes += (std::mem::size_of_val(arrivals.arrivals())
            + batches.capacity() * std::mem::size_of::<(SimTime, usize, usize)>())
            as u64;
        let service = spec.profile.service();
        if let std::collections::btree_map::Entry::Vacant(entry) = cpus.entry(service) {
            entry.insert(CpuResource::new(spec.cores));
            counts.cores += spec.cores as u64;
        }
        let mut recorder = TrafficSeriesRecorder::new(store.clone(), spec.service_label.clone());
        recorder.register_versions(
            spec.version_labels.values().map(String::as_str),
            SimTime::ZERO.to_timestamp(),
        );
        streams.push(StreamState {
            spec,
            proxy: fleet.handle(service).expect("registered"),
            twin: twins.handle(service).expect("registered"),
            arrivals,
            batches,
            rng: SimRng::seeded(stream_seed.stream("backends").value()),
            shadow_rng: SimRng::seeded(stream_seed.stream("shadow-backends").value()),
            recorder,
            labels: spec.version_labels.clone(),
            counts: StreamSummary::default(),
            total_latency_ms: 0.0,
        });
    }

    // The engine's order: by tick time, then by stream (every stream's
    // ticks are scheduled when it is attached), then by batch.
    let mut ticks: Vec<(SimTime, usize, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(stream, state)| {
            state
                .batches
                .iter()
                .enumerate()
                .map(move |(batch, &(end, _, _))| (end, stream, batch))
        })
        .collect();
    ticks.sort_unstable();

    let mut config_cursor: BTreeMap<ServiceId, usize> = BTreeMap::new();
    let mut sessions: BTreeMap<ServiceId, u64> = BTreeMap::new();
    let mut sessions_total = 0u64;
    let mut next_check = 0usize;
    let mut scratch: Vec<ProxyRequest> = Vec::new();
    let mut completed: Vec<SimTime> = Vec::new();
    let mut outcomes: Vec<(VersionId, f64, bool, bool)> = Vec::new();
    let mut shadow_outcomes: Vec<(usize, VersionId, bool)> = Vec::new();

    for (tick_id, &(at, stream, batch)) in ticks.iter().enumerate() {
        let tick_id = tick_id as u32;
        while let Some(&(check_at, strategy, state, check)) = timeline.checks.get(next_check) {
            if check_at >= at {
                break;
            }
            run_check(
                scenario,
                &registry,
                &mut tracer,
                check_at,
                strategy,
                state,
                check,
            );
            next_check += 1;
        }
        let state = &mut streams[stream];
        let service = state.spec.profile.service();
        if let Some(changes) = timeline.configs.get(&service) {
            let cursor = config_cursor.entry(service).or_insert(0);
            while let Some((from, config)) = changes.get(*cursor) {
                if *from > at {
                    break;
                }
                let config = config.clone();
                twins
                    .handle(service)
                    .expect("registered")
                    .write()
                    .apply_config(config.clone());
                tracer.span("proxy.apply_config", NONE, NONE, || {
                    state.proxy.write().apply_config(config)
                });
                *cursor += 1;
            }
        }

        let tick_span = tracer.open("replay.tick", NONE, tick_id);
        let (_, start, end) = state.batches[batch];
        let arrivals = &state.arrivals.arrivals()[start..end];
        scratch.clear();
        scratch.extend(arrivals.iter().map(|a| ProxyRequest::from_user(a.user)));
        let routed = tracer.span("proxy.route_many", tick_span, tick_id, || {
            state.proxy.read().route_many_costed(scratch.iter())
        });
        let twin_routed: Vec<_> = tracer.span("proxy.route", tick_span, tick_id, || {
            let twin = state.twin.read();
            scratch.iter().map(|r| twin.route_costed(r)).collect()
        });
        if twin_routed != routed {
            counts.route_mismatches += 1;
        }

        let cpu = cpus.get_mut(&service).expect("sized at start");
        completed.clear();
        tracer.span("simnet.submit", tick_span, tick_id, || {
            for (arrival, (_, cost)) in arrivals.iter().zip(&routed) {
                completed.push(cpu.submit(arrival.at, *cost).completed);
                state.counts.proxy_busy += *cost;
            }
        });

        outcomes.clear();
        shadow_outcomes.clear();
        let serve_span = tracer.open("backends.serve", tick_span, tick_id);
        for (k, ((arrival, (decision, _)), &done)) in
            arrivals.iter().zip(&routed).zip(&completed).enumerate()
        {
            let proxy_ms = (done - arrival.at).as_secs_f64() * 1_000.0;
            let model = state.spec.profile.backend_of(decision.primary);
            let jitter = 0.9 + 0.2 * state.rng.uniform();
            let (latency_ms, serve) = match model {
                BackendModel::Profile(profile) => (
                    proxy_ms + profile.service_time.as_secs_f64() * 1_000.0 * jitter,
                    Serve::Served,
                ),
                BackendModel::Queued(queued) => {
                    let call = traced.then(Instant::now);
                    let dispatch = backends
                        .ensure(service, decision.primary, &queued)
                        .dispatch(done, queued.service_time.mul_f64(jitter));
                    if let Some(call) = call {
                        counts.dispatch_ns += call.elapsed().as_nanos() as u64;
                    }
                    counts.dispatches += 1;
                    counts.primary_dispatches += 1;
                    match dispatch {
                        BackendDispatch::Shed => {
                            counts.shed += 1;
                            (proxy_ms, Serve::Shed)
                        }
                        BackendDispatch::Admitted(receipt)
                            if receipt.latency() > queued.timeout =>
                        {
                            counts.timed_out += 1;
                            (
                                proxy_ms + queued.timeout.as_secs_f64() * 1_000.0,
                                Serve::TimedOut,
                            )
                        }
                        BackendDispatch::Admitted(receipt) => (
                            proxy_ms + receipt.latency().as_secs_f64() * 1_000.0,
                            Serve::Served,
                        ),
                    }
                }
            };
            let success = serve == Serve::Served && !state.rng.chance(model.error_rate());
            let tally = &mut state.counts;
            tally.requests += 1;
            if !success {
                tally.errors += 1;
            }
            match serve {
                Serve::Served => {}
                Serve::Shed => tally.shed += 1,
                Serve::TimedOut => tally.timed_out += 1,
            }
            if serve != Serve::Served {
                *tally.shed_per_version.entry(decision.primary).or_insert(0) += 1;
            }
            *tally.per_version.entry(decision.primary).or_insert(0) += 1;
            state.total_latency_ms += latency_ms;
            outcomes.push((
                decision.primary,
                latency_ms,
                success,
                serve != Serve::Served,
            ));
            for shadow in &decision.shadows {
                tally.shadow_copies += 1;
                *tally.shadow_per_version.entry(shadow.target).or_insert(0) += 1;
                let mut shed = false;
                if let BackendModel::Queued(queued) = state.spec.profile.backend_of(shadow.target) {
                    let demand = queued
                        .service_time
                        .mul_f64(0.9 + 0.2 * state.shadow_rng.uniform());
                    let call = traced.then(Instant::now);
                    let dispatch = backends
                        .ensure(service, shadow.target, &queued)
                        .dispatch(done, demand);
                    if let Some(call) = call {
                        counts.dispatch_ns += call.elapsed().as_nanos() as u64;
                    }
                    counts.dispatches += 1;
                    if dispatch == BackendDispatch::Shed {
                        counts.shed += 1;
                        tally.shadow_shed += 1;
                        shed = true;
                    }
                }
                shadow_outcomes.push((k, shadow.target, shed));
            }
        }
        tracer.close(serve_span);

        let recorder = &mut state.recorder;
        let labels = &mut state.labels;
        tracer.span("metrics.observe", tick_span, tick_id, || {
            let mut shadows = shadow_outcomes.iter().peekable();
            for (k, &(version, latency_ms, success, dropped)) in outcomes.iter().enumerate() {
                let label = label_of(labels, version);
                recorder.observe_request(label, latency_ms, success);
                if dropped {
                    recorder.observe_shed(label);
                }
                while let Some(&(_, target, shed)) = shadows.next_if(|s| s.0 == k) {
                    let label = label_of(labels, target);
                    recorder.observe_shadow(label);
                    if shed {
                        recorder.observe_shed(label);
                    }
                }
            }
        });
        tracer.span("simnet.sample_utilization", tick_span, tick_id, || {
            for (version, server) in backends.servers_of_mut(service) {
                let percent = server.sample_utilization(at);
                recorder.observe_utilization(label_of(labels, version), percent);
            }
            black_box(cpu.sample_utilization(at));
        });
        tracer.span("metrics.flush", tick_span, tick_id, || {
            recorder.flush(at.to_timestamp())
        });
        state.counts.ticks += 1;
        counts.requests += arrivals.len() as u64;
        counts.ticks += 1;
        tracer.close(tick_span);

        let live = state.proxy.read().sessions().len() as u64;
        let previous = sessions.insert(service, live).unwrap_or(0);
        sessions_total = sessions_total + live - previous;
        counts.sessions_peak = counts.sessions_peak.max(sessions_total);
    }
    while let Some(&(check_at, strategy, state, check)) = timeline.checks.get(next_check) {
        run_check(
            scenario,
            &registry,
            &mut tracer,
            check_at,
            strategy,
            state,
            check,
        );
        next_check += 1;
    }

    for (service, _) in &scenario.proxies {
        let proxy = fleet.handle(*service).expect("registered");
        let proxy = proxy.read();
        counts.session_hits += proxy.sessions().hits();
        counts.session_misses += proxy.sessions().misses();
    }
    counts.store_samples = store.sample_count() as u64;
    counts.store_series = store.series_count() as u64;
    let streams = streams
        .into_iter()
        .map(|state| StreamSummary {
            total_latency_bits: state.total_latency_ms.to_bits(),
            ..state.counts
        })
        .collect();
    Replay {
        wall_s: started.elapsed().as_secs_f64(),
        streams,
        counts,
        tracer,
    }
}

/// Runs one check execution's queries against the replay's store, as the
/// engine's `fire_check` does.
fn run_check(
    scenario: &Scenario,
    registry: &ProviderRegistry,
    tracer: &mut Tracer,
    at: SimTime,
    strategy: usize,
    state: StateId,
    check: CheckId,
) {
    let spec = scenario.strategies[strategy]
        .strategy
        .automaton()
        .state(state)
        .and_then(|s| s.check(check))
        .expect("logged checks exist")
        .spec();
    tracer.span("metrics.query", NONE, NONE, || {
        let values = registry.fetch_all(spec.queries(), at.to_timestamp());
        black_box(spec.evaluate(&values))
    });
}

/// Compares the replay's counts with the engine run's, stream by stream:
/// per-version requests, errors, shed and timed-out requests, shadow
/// copies and shed shadows, and the summed latency. Returns one line per
/// difference.
pub fn mismatches(engine: &RunSummary, replay: &Replay) -> Vec<String> {
    let mut out = Vec::new();
    if replay.counts.route_mismatches > 0 {
        out.push(format!(
            "route_costed and route_many_costed disagreed on {} batches",
            replay.counts.route_mismatches
        ));
    }
    for (index, (e, r)) in engine.streams.iter().zip(&replay.streams).enumerate() {
        let fields: [(&str, String, String); 10] = [
            ("requests", e.requests.to_string(), r.requests.to_string()),
            ("errors", e.errors.to_string(), r.errors.to_string()),
            ("shed", e.shed.to_string(), r.shed.to_string()),
            (
                "timed_out",
                e.timed_out.to_string(),
                r.timed_out.to_string(),
            ),
            (
                "shadow_copies",
                e.shadow_copies.to_string(),
                r.shadow_copies.to_string(),
            ),
            (
                "shadow_shed",
                e.shadow_shed.to_string(),
                r.shadow_shed.to_string(),
            ),
            (
                "per_version",
                format!("{:?}", e.per_version),
                format!("{:?}", r.per_version),
            ),
            (
                "shadow_per_version",
                format!("{:?}", e.shadow_per_version),
                format!("{:?}", r.shadow_per_version),
            ),
            (
                "shed_per_version",
                format!("{:?}", e.shed_per_version),
                format!("{:?}", r.shed_per_version),
            ),
            (
                "total_latency_ms",
                f64::from_bits(e.total_latency_bits).to_string(),
                f64::from_bits(r.total_latency_bits).to_string(),
            ),
        ];
        for (name, engine_value, replay_value) in fields {
            if engine_value != replay_value {
                out.push(format!(
                    "stream {index} {name}: engine {engine_value}, replay {replay_value}"
                ));
            }
        }
    }
    out
}
