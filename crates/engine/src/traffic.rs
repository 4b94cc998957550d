//! Request-level traffic simulation: live traffic through the proxy fleet.
//!
//! The paper's core claim is that strategies are enacted *over live
//! traffic*: proxies split, stick, and shadow real requests while
//! metric-based checks decide state transitions. This module is the
//! substrate that makes the simulated engine do the same. A
//! [`TrafficProfile`] attaches a [`bifrost_workload::LoadProfile`] to a
//! service; the engine materialises the arrival plan from its seed, groups
//! the arrivals into per-tick batches ([`bifrost_workload::ArrivalPlan::batches`]),
//! and schedules one `TrafficTick` engine event per non-empty tick. Each
//! tick routes its batch, in arrival order, through the service's proxy
//! under a shared read lock
//! ([`bifrost_proxy::BifrostProxy::route_many_costed`], the
//! compiled-config hot path), charges every request's routing cost to the
//! proxy's own CPU, models the serving version's backend latency and error
//! rate, and records the observed outcomes into the shared metric store via
//! [`bifrost_metrics::TrafficSeriesRecorder`] — so checks evaluate traffic
//! the proxies actually routed instead of hand-injected samples.
//!
//! The per-request loop keeps no per-version map of its own: each version
//! the stream meets gets a slot on first sight holding its backend model,
//! its recorder slot and the batch's per-version counts, which are folded
//! into [`TrafficStats`] once per batch. (A queued version's server is
//! still found in the engine's [`BackendFleet`] by key.)
//!
//! Everything derives from the engine seed: an N-thread multi-trial run
//! produces byte-identical traffic statistics to a 1-thread run.

use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_core::seed::Seed;
use bifrost_metrics::stats::select_nth_total_order;
use bifrost_metrics::{SharedMetricStore, TrafficSeriesRecorder, VersionSlot};
use bifrost_proxy::ProxyRequest;
use bifrost_simnet::{CpuResource, SimRng, SimTime};
use bifrost_workload::{ArrivalPlan, LoadProfile};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use crate::backends::{BackendDefaults, BackendDispatch, BackendFleet, QueuedBackend};
use crate::proxies::ProxyHandle;

/// The backend behaviour of one service version under traffic: how long the
/// version takes to serve a request and how often it fails. This is the
/// traffic pipeline's stand-in for a full application model — enough for
/// checks to observe latency and error-rate differences between versions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendProfile {
    /// Mean service time of one request.
    pub service_time: Duration,
    /// Probability that a request served by this version fails.
    pub error_rate: f64,
}

impl Default for BackendProfile {
    fn default() -> Self {
        Self {
            service_time: Duration::from_millis(10),
            error_rate: 0.0,
        }
    }
}

impl BackendProfile {
    /// A healthy backend with the given mean service time.
    pub fn healthy(service_time: Duration) -> Self {
        Self {
            service_time,
            error_rate: 0.0,
        }
    }

    /// A defective backend: slow and failing at `error_rate`.
    pub fn defective(service_time: Duration, error_rate: f64) -> Self {
        Self {
            service_time,
            error_rate: normalized_error_rate(error_rate),
        }
    }
}

/// How one version serves requests under traffic: the degenerate
/// unlimited-capacity [`BackendProfile`] (fixed mean service time, latency
/// independent of load) or a capacity-bounded [`QueuedBackend`] whose
/// replicas queue, saturate, and shed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendModel {
    /// Unlimited capacity: every request is served at the profile's mean
    /// service time regardless of offered load.
    Profile(BackendProfile),
    /// Queued replicas: latency grows with backlog, overload sheds.
    Queued(QueuedBackend),
}

impl BackendModel {
    /// The intrinsic error rate of the model.
    pub fn error_rate(&self) -> f64 {
        match self {
            BackendModel::Profile(p) => p.error_rate,
            BackendModel::Queued(q) => q.error_rate,
        }
    }

    /// The mean service time / demand of the model.
    pub fn service_time(&self) -> Duration {
        match self {
            BackendModel::Profile(p) => p.service_time,
            BackendModel::Queued(q) => q.service_time,
        }
    }

    /// Applies engine-level capacity defaults: a plain profile is upgraded
    /// to a queued backend with the defaults' replica/queue/timeout shape
    /// (the profile keeps supplying service time and error rate); explicit
    /// queued backends are untouched.
    fn with_defaults(self, defaults: Option<BackendDefaults>) -> Self {
        match (self, defaults) {
            (BackendModel::Profile(p), Some(d)) => BackendModel::Queued(QueuedBackend {
                service_time: p.service_time,
                error_rate: p.error_rate,
                replicas: d.replicas,
                queue_capacity: d.queue_capacity,
                timeout: d.timeout,
            }),
            (model, _) => model,
        }
    }
}

/// A request-level traffic profile attached to one service's proxy.
#[derive(Debug, Clone)]
pub struct TrafficProfile {
    service: ServiceId,
    load: LoadProfile,
    tick: Duration,
    cores: usize,
    service_label: String,
    backends: BTreeMap<VersionId, BackendModel>,
    version_labels: BTreeMap<VersionId, String>,
    default_backend: BackendModel,
}

impl TrafficProfile {
    /// Creates a profile driving `load` through the proxy of `service`,
    /// batched per 1-second virtual tick on a single-core proxy VM.
    pub fn new(service: ServiceId, load: LoadProfile) -> Self {
        Self {
            service,
            load,
            tick: Duration::from_secs(1),
            cores: 1,
            service_label: format!("{service}"),
            backends: BTreeMap::new(),
            version_labels: BTreeMap::new(),
            default_backend: BackendModel::Profile(BackendProfile::default()),
        }
    }

    /// Overrides the batching tick (builder style). Smaller ticks observe
    /// configuration changes sooner; larger ticks process fewer, bigger
    /// batches.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick.max(Duration::from_micros(1));
        self
    }

    /// Overrides the proxy VM's core count (builder style).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Overrides the `service` label used in recorded series (builder
    /// style). Defaults to the service id's rendering.
    pub fn with_service_label(mut self, label: impl Into<String>) -> Self {
        self.service_label = label.into();
        self
    }

    /// Sets a version's backend behaviour to the degenerate
    /// unlimited-capacity profile and, for recorded series, its `version`
    /// label (builder style).
    pub fn with_backend(
        mut self,
        version: VersionId,
        label: impl Into<String>,
        backend: BackendProfile,
    ) -> Self {
        self.backends
            .insert(version, BackendModel::Profile(backend));
        self.version_labels.insert(version, label.into());
        self
    }

    /// Sets a version's backend to a capacity-bounded queued server —
    /// latency becomes load-dependent, overload sheds — and, for recorded
    /// series, its `version` label (builder style).
    pub fn with_queued_backend(
        mut self,
        version: VersionId,
        label: impl Into<String>,
        backend: QueuedBackend,
    ) -> Self {
        self.backends.insert(version, BackendModel::Queued(backend));
        self.version_labels.insert(version, label.into());
        self
    }

    /// Overrides the backend used for versions without an explicit profile
    /// (builder style).
    pub fn with_default_backend(mut self, backend: BackendProfile) -> Self {
        self.default_backend = BackendModel::Profile(backend);
        self
    }

    /// Overrides the default backend with a queued server (builder style).
    pub fn with_default_queued_backend(mut self, backend: QueuedBackend) -> Self {
        self.default_backend = BackendModel::Queued(backend);
        self
    }

    /// The service whose proxy the traffic flows through.
    pub fn service(&self) -> ServiceId {
        self.service
    }

    /// The load profile.
    pub fn load(&self) -> &LoadProfile {
        &self.load
    }

    /// The batching tick.
    pub fn tick(&self) -> Duration {
        self.tick
    }

    /// The backend model of `version` (the default model when the profile
    /// did not name it explicitly).
    pub fn backend_of(&self, version: VersionId) -> BackendModel {
        self.backends
            .get(&version)
            .copied()
            .unwrap_or(self.default_backend)
    }
}

/// Aggregate statistics of one traffic stream, maintained as batches are
/// routed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficStats {
    /// Total requests routed.
    pub requests: u64,
    /// Requests that failed: intrinsic backend errors plus shed and
    /// timed-out requests.
    pub errors: u64,
    /// Primary requests rejected by a saturated backend queue.
    pub shed: u64,
    /// Primary requests whose backend latency exceeded the version's
    /// timeout.
    pub timed_out: u64,
    /// Shadow copies dropped by a saturated backend queue (server-side
    /// only — never visible to the caller).
    pub shadow_shed: u64,
    /// Dark-launch shadow copies produced.
    pub shadow_copies: u64,
    /// Primary requests per version.
    pub per_version: BTreeMap<VersionId, u64>,
    /// Shadow copies per target version.
    pub shadow_per_version: BTreeMap<VersionId, u64>,
    /// Primary shed + timed-out requests per version.
    pub shed_per_version: BTreeMap<VersionId, u64>,
    /// Peak per-tick backend replica utilisation (percent) per version,
    /// for versions with a queued backend.
    pub peak_utilization: BTreeMap<VersionId, f64>,
    /// Number of ticks processed.
    pub ticks: u64,
    /// Sum of end-to-end latencies in milliseconds (for the mean).
    pub total_latency_ms: f64,
    /// Every request's end-to-end latency in milliseconds, in arrival order
    /// (for percentiles).
    pub latencies_ms: Vec<f64>,
    /// Total proxy CPU demand this stream's requests contributed
    /// (queueing excluded; shared-proxy contention shows up in latency).
    pub proxy_busy: Duration,
}

impl TrafficStats {
    /// Mean end-to-end latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.total_latency_ms / self.requests as f64
    }

    /// The `q`-quantile (0.0..=1.0) of end-to-end latency in milliseconds:
    /// the value at rank `round(q · (n − 1))` in [`f64::total_cmp`] order.
    /// An exact O(n) radix selection that copies none of the latencies
    /// (see [`select_nth_total_order`]).
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.latencies_ms.len() - 1) as f64).round() as usize;
        select_nth_total_order(&self.latencies_ms, rank)
    }

    /// The fraction of primary traffic served by `version`.
    pub fn share_of(&self, version: VersionId) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        *self.per_version.get(&version).unwrap_or(&0) as f64 / self.requests as f64
    }

    /// The fraction of requests that produced at least one shadow copy
    /// (assuming at most one shadow rule, copies == shadowed requests).
    pub fn shadow_share(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.shadow_copies as f64 / self.requests as f64
    }

    /// Average proxy CPU milliseconds spent per routed request.
    pub fn proxy_cpu_ms_per_request(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.proxy_busy.as_secs_f64() * 1_000.0 / self.requests as f64
    }

    /// The fraction of primary requests shed or timed out by their backend.
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.shed + self.timed_out) as f64 / self.requests as f64
    }
}

/// A handle identifying one attached traffic stream within an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrafficHandle(pub(crate) usize);

impl fmt::Display for TrafficHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "traffic-{}", self.0)
    }
}

/// One attached traffic stream: the materialised arrival plan, its batch
/// index, the seeded RNG for backend behaviour, and the recorder feeding
/// the metric store. The proxy VM's CPU is *not* part of the stream — the
/// engine keys one [`CpuResource`] per service, so concurrent streams
/// through the same proxy contend for the same cores.
pub(crate) struct TrafficStream {
    profile: TrafficProfile,
    arrivals: ArrivalPlan,
    /// `(tick end, start index, end index)` per non-empty tick, precomputed
    /// from [`ArrivalPlan::batches`] so each engine event is a slice lookup.
    batches: Vec<(SimTime, usize, usize)>,
    rng: SimRng,
    /// A separate seeded RNG for shadow service-demand draws, so the
    /// presence or share of a dark launch never perturbs the primary
    /// stream's jitter/error sequence — when the shadow version serves no
    /// primary traffic, primary-visible outcomes are byte-identical with
    /// and without shadow traffic. (If the shadow target also serves a
    /// primary split, the shadow load still occupies the shared replicas,
    /// so primary queueing there degrades — deliberately.)
    shadow_rng: SimRng,
    recorder: TrafficSeriesRecorder,
    stats: TrafficStats,
    /// Scratch buffer reused across ticks to build the batch's requests.
    scratch: Vec<ProxyRequest>,
    versions: VersionSlots,
}

/// One version as a stream sees it, resolved on first sight.
#[derive(Debug)]
struct Slot {
    version: VersionId,
    model: BackendModel,
    recorder: VersionSlot,
    /// Primary requests of the current batch.
    requests: u64,
    /// Primary requests of the current batch shed or timed out.
    shed: u64,
    /// Shadow copies of the current batch.
    shadows: u64,
}

/// The versions a stream has met, each resolved once — backend model,
/// series label, recorder slot — so the per-request loop finds a version
/// by a linear scan of a few slots instead of map lookups.
#[derive(Debug)]
struct VersionSlots {
    slots: Vec<Slot>,
    /// Version → series label; versions the profile did not name are
    /// labelled with their id rendering.
    labels: BTreeMap<VersionId, String>,
    /// Version → backend model, resolved from the profile and the engine's
    /// capacity defaults.
    models: BTreeMap<VersionId, BackendModel>,
    /// The resolved model for versions the profile did not name.
    default_model: BackendModel,
}

impl VersionSlots {
    /// The index of `version`'s slot, filled on first sight.
    fn index(&mut self, version: VersionId, recorder: &mut TrafficSeriesRecorder) -> usize {
        if let Some(index) = self.slots.iter().position(|slot| slot.version == version) {
            return index;
        }
        let recorder = match self.labels.get(&version) {
            Some(label) => recorder.slot(label),
            None => recorder.slot(&version.to_string()),
        };
        self.slots.push(Slot {
            version,
            model: self
                .models
                .get(&version)
                .copied()
                .unwrap_or(self.default_model),
            recorder,
            requests: 0,
            shed: 0,
            shadows: 0,
        });
        self.slots.len() - 1
    }

    /// Folds the batch's per-version counts into `stats` and zeroes them.
    /// Only non-zero counts touch the maps, so a version enters a map
    /// exactly when routing it one request at a time would enter it.
    fn fold_batch(&mut self, stats: &mut TrafficStats) {
        for slot in &mut self.slots {
            for (map, count) in [
                (&mut stats.per_version, &mut slot.requests),
                (&mut stats.shed_per_version, &mut slot.shed),
                (&mut stats.shadow_per_version, &mut slot.shadows),
            ] {
                if *count > 0 {
                    *map.entry(slot.version).or_insert(0) += std::mem::take(count);
                }
            }
        }
    }
}

impl TrafficStream {
    /// Materialises a stream from its profile and the engine seed. The
    /// arrival plan derives from the seed's `"traffic"` stream (namespaced
    /// by stream index so two streams never replay the same sequence).
    pub(crate) fn new(
        profile: TrafficProfile,
        index: usize,
        seed: Seed,
        store: SharedMetricStore,
        backend_defaults: Option<BackendDefaults>,
    ) -> Self {
        let stream_seed = seed.stream(&format!("traffic-{index}"));
        let arrivals = profile.load.plan_seeded(stream_seed);
        // Batches partition the plan in order, so index ranges follow from a
        // running cursor over the batch sizes.
        let mut cursor = 0usize;
        let batches = arrivals
            .batches(profile.tick)
            .map(|batch| {
                let start = cursor;
                cursor += batch.arrivals.len();
                (batch.end, start, cursor)
            })
            .collect();
        let mut recorder = TrafficSeriesRecorder::new(store, profile.service_label.clone());
        recorder.register_versions(
            profile.version_labels.values().map(String::as_str),
            SimTime::ZERO.to_timestamp(),
        );
        let versions = VersionSlots {
            slots: Vec::new(),
            labels: profile.version_labels.clone(),
            models: profile
                .backends
                .iter()
                .map(|(version, model)| (*version, model.with_defaults(backend_defaults)))
                .collect(),
            default_model: profile.default_backend.with_defaults(backend_defaults),
        };
        Self {
            rng: SimRng::seeded(stream_seed.stream("backends").value()),
            shadow_rng: SimRng::seeded(stream_seed.stream("shadow-backends").value()),
            recorder,
            arrivals,
            batches,
            versions,
            profile,
            stats: TrafficStats::default(),
            scratch: Vec::new(),
        }
    }

    /// The service this stream targets.
    pub(crate) fn service(&self) -> ServiceId {
        self.profile.service
    }

    /// The proxy VM core count this stream's profile asks for.
    pub(crate) fn cores(&self) -> usize {
        self.profile.cores
    }

    /// The tick end times of every non-empty batch, for scheduling.
    pub(crate) fn batch_times(&self) -> Vec<SimTime> {
        self.batches.iter().map(|(end, _, _)| *end).collect()
    }

    /// The aggregate statistics so far.
    pub(crate) fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Routes the `batch`-th tick's arrivals through `proxy` at virtual
    /// time `at` (the tick's window end), charging routing cost to the
    /// service's shared proxy `cpu`, dispatching primary *and* shadow
    /// decisions into the service's backend servers in `fleet`, and
    /// records the outcomes.
    pub(crate) fn route_batch(
        &mut self,
        batch: usize,
        proxy: &ProxyHandle,
        cpu: &mut CpuResource,
        fleet: &mut BackendFleet,
        at: SimTime,
    ) {
        let Some(&(_, start, end)) = self.batches.get(batch) else {
            return;
        };
        let arrivals = &self.arrivals.arrivals()[start..end];
        self.scratch.clear();
        self.scratch.extend(
            arrivals
                .iter()
                .map(|arrival| ProxyRequest::from_user(arrival.user)),
        );
        // Routing needs only read access to the proxy, so concurrent
        // streams through the same proxy do not serialize on the handle.
        let routed = proxy.read().route_many_costed(self.scratch.iter());
        let service = self.profile.service;
        for (arrival, (decision, cost)) in arrivals.iter().zip(&routed) {
            let receipt = cpu.submit(arrival.at, *cost);
            self.stats.proxy_busy += *cost;
            let proxy_ms = (receipt.completed - arrival.at).as_secs_f64() * 1_000.0;
            let primary = self.versions.index(decision.primary, &mut self.recorder);
            let model = self.versions.slots[primary].model;
            // Service demand: the version's mean service time with a ±10%
            // deterministic jitter so latency series are not flat lines
            // (and queued servers see a demand distribution).
            let jitter = 0.9 + 0.2 * self.rng.uniform();
            let (latency_ms, outcome) = match model {
                BackendModel::Profile(profile) => (
                    proxy_ms + profile.service_time.as_secs_f64() * 1_000.0 * jitter,
                    ServeOutcome::Served,
                ),
                BackendModel::Queued(queued) => {
                    let server = fleet.ensure(service, decision.primary, &queued);
                    match server.dispatch(receipt.completed, queued.service_time.mul_f64(jitter)) {
                        // Shed is an immediate rejection: the caller only
                        // pays the routing latency.
                        BackendDispatch::Shed => (proxy_ms, ServeOutcome::Shed),
                        BackendDispatch::Admitted(backend)
                            if backend.latency() > queued.timeout =>
                        {
                            // The caller gives up at the deadline; the
                            // server still burns the admitted work.
                            (
                                proxy_ms + queued.timeout.as_secs_f64() * 1_000.0,
                                ServeOutcome::TimedOut,
                            )
                        }
                        BackendDispatch::Admitted(backend) => (
                            proxy_ms + backend.latency().as_secs_f64() * 1_000.0,
                            ServeOutcome::Served,
                        ),
                    }
                }
            };
            let success = match outcome {
                ServeOutcome::Served => !draw_error(&mut self.rng, model.error_rate()),
                ServeOutcome::Shed | ServeOutcome::TimedOut => false,
            };

            self.stats.requests += 1;
            if !success {
                self.stats.errors += 1;
            }
            match outcome {
                ServeOutcome::Served => {}
                ServeOutcome::Shed => self.stats.shed += 1,
                ServeOutcome::TimedOut => self.stats.timed_out += 1,
            }
            let slot = &mut self.versions.slots[primary];
            slot.requests += 1;
            self.stats.total_latency_ms += latency_ms;
            self.stats.latencies_ms.push(latency_ms);
            self.recorder
                .observe_request_at(slot.recorder, latency_ms, success);
            if outcome != ServeOutcome::Served {
                slot.shed += 1;
                self.recorder.observe_shed_at(slot.recorder);
            }
            for shadow in &decision.shadows {
                self.stats.shadow_copies += 1;
                // Shadow work charges the shadow version's replicas — a
                // dark launch visibly heats them — but its outcome never
                // surfaces to the caller: no latency, no error. The demand
                // draw comes from the dedicated shadow RNG so the primary
                // sequence is independent of the dark-launch share.
                let target = self.versions.index(shadow.target, &mut self.recorder);
                let slot = &mut self.versions.slots[target];
                slot.shadows += 1;
                self.recorder.observe_shadow_at(slot.recorder);
                if let BackendModel::Queued(queued) = slot.model {
                    let demand = queued
                        .service_time
                        .mul_f64(0.9 + 0.2 * self.shadow_rng.uniform());
                    let server = fleet.ensure(service, shadow.target, &queued);
                    if server.dispatch(receipt.completed, demand) == BackendDispatch::Shed {
                        self.stats.shadow_shed += 1;
                        self.recorder.observe_shed_at(slot.recorder);
                    }
                }
            }
        }
        self.versions.fold_batch(&mut self.stats);
        self.stats.ticks += 1;
        // Sample each backend's replica utilisation over the tick and
        // publish it per version; sampling also drains the replicas'
        // pending execution-interval lists. (With several streams on one
        // service, the first stream's tick consumes the window.)
        for (version, server) in fleet.servers_of_mut(service) {
            let percent = server.sample_utilization(at);
            let slot = self.versions.index(version, &mut self.recorder);
            self.recorder
                .observe_utilization_at(self.versions.slots[slot].recorder, percent);
            let peak = self.stats.peak_utilization.entry(version).or_insert(0.0);
            if percent > *peak {
                *peak = percent;
            }
        }
        // Drain the CPU's utilisation-sampling intervals: nothing samples
        // the traffic CPUs, and without the drain the interval list grows
        // by one entry per routed request.
        let _ = cpu.sample_utilization(at);
        self.recorder.flush(at.to_timestamp());
    }
}

/// How a primary request fared at its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeOutcome {
    /// Served (possibly slowly); the intrinsic error rate still applies.
    Served,
    /// Rejected immediately by a full backend queue.
    Shed,
    /// Admitted but finished past the backend's deadline.
    TimedOut,
}

/// Normalises a configured error rate at the draw point: `NaN` counts as
/// zero, anything else is clamped to `[0, 1]` (the public profile fields
/// allow direct construction with out-of-range values).
pub(crate) fn normalized_error_rate(error_rate: f64) -> f64 {
    if error_rate.is_nan() {
        0.0
    } else {
        error_rate.clamp(0.0, 1.0)
    }
}

/// Draws whether a served request fails its version's intrinsic error
/// rate. Out-of-range rates are a construction bug — loud in debug builds,
/// normalised in release.
fn draw_error(rng: &mut SimRng, error_rate: f64) -> bool {
    debug_assert!(
        (0.0..=1.0).contains(&error_rate),
        "backend error_rate {error_rate} outside [0, 1] — clamp it at construction"
    );
    rng.chance(normalized_error_rate(error_rate))
}

impl fmt::Debug for TrafficStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrafficStream")
            .field("service", &self.profile.service)
            .field("batches", &self.batches.len())
            .field("requests", &self.stats.requests)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_workload::LoadProfile;

    #[test]
    fn backend_profiles_clamp_and_default() {
        let healthy = BackendProfile::healthy(Duration::from_millis(5));
        assert_eq!(healthy.error_rate, 0.0);
        let bad = BackendProfile::defective(Duration::from_millis(50), 7.0);
        assert_eq!(bad.error_rate, 1.0);
        let nan = BackendProfile::defective(Duration::from_millis(50), f64::NAN);
        assert_eq!(nan.error_rate, 0.0);
        assert_eq!(
            BackendProfile::default().service_time,
            Duration::from_millis(10)
        );
    }

    #[test]
    fn profile_builders() {
        let service = ServiceId::new(3);
        let v = VersionId::new(1);
        let q = VersionId::new(2);
        let profile =
            TrafficProfile::new(service, LoadProfile::paper_profile(Duration::from_secs(10)))
                .with_tick(Duration::from_millis(500))
                .with_cores(2)
                .with_service_label("search")
                .with_backend(v, "v1", BackendProfile::healthy(Duration::from_millis(4)))
                .with_queued_backend(
                    q,
                    "v2",
                    QueuedBackend::new(Duration::from_millis(7)).with_replicas(3),
                )
                .with_default_backend(BackendProfile::healthy(Duration::from_millis(9)));
        assert_eq!(profile.service(), service);
        assert_eq!(profile.tick(), Duration::from_millis(500));
        assert_eq!(
            profile.backend_of(v).service_time(),
            Duration::from_millis(4)
        );
        assert!(matches!(
            profile.backend_of(q),
            BackendModel::Queued(queued) if queued.replicas == 3
        ));
        assert_eq!(
            profile.backend_of(VersionId::new(9)).service_time(),
            Duration::from_millis(9)
        );
    }

    #[test]
    fn engine_defaults_upgrade_profiles_but_not_explicit_queued_backends() {
        let defaults = BackendDefaults::new(4, 32, Duration::from_millis(300));
        let upgraded = BackendModel::Profile(BackendProfile::healthy(Duration::from_millis(8)))
            .with_defaults(Some(defaults));
        match upgraded {
            BackendModel::Queued(q) => {
                assert_eq!(q.service_time, Duration::from_millis(8));
                assert_eq!(q.replicas, 4);
                assert_eq!(q.queue_capacity, 32);
                assert_eq!(q.timeout, Duration::from_millis(300));
            }
            other => panic!("expected queued, got {other:?}"),
        }
        let explicit = BackendModel::Queued(QueuedBackend::new(Duration::from_millis(8)));
        assert_eq!(explicit.with_defaults(Some(defaults)), explicit);
        let untouched = BackendModel::Profile(BackendProfile::default());
        assert_eq!(untouched.with_defaults(None), untouched);
    }

    #[test]
    fn error_rates_normalise_at_the_draw_point() {
        assert_eq!(normalized_error_rate(0.25), 0.25);
        assert_eq!(normalized_error_rate(-1.0), 0.0);
        assert_eq!(normalized_error_rate(7.0), 1.0);
        assert_eq!(normalized_error_rate(f64::NAN), 0.0);
        let mut rng = SimRng::seeded(1);
        assert!(draw_error(&mut rng, 1.0));
        assert!(!draw_error(&mut rng, 0.0));
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = TrafficStats::default();
        assert_eq!(stats.mean_latency_ms(), 0.0);
        assert_eq!(stats.latency_quantile_ms(0.95), 0.0);
        assert_eq!(stats.share_of(VersionId::new(0)), 0.0);
        assert_eq!(stats.shadow_share(), 0.0);
        assert_eq!(stats.proxy_cpu_ms_per_request(), 0.0);
        assert_eq!(stats.shed_rate(), 0.0);
    }
}
