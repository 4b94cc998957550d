//! Queued per-version backend servers: load-dependent latency, bounded
//! queues, and overload shedding for the request-level traffic pipeline.
//!
//! The paper's dark-launch and canary claims rest on live traffic *loading
//! the application versions themselves*: a shadowed version must visibly
//! heat up, and an undersized canary must saturate and degrade. The plain
//! [`crate::traffic::BackendProfile`] models a version as a fixed mean
//! service time plus an error coin-flip, so no strategy can ever observe
//! queueing or saturation. This module adds the missing capacity model:
//!
//! * a [`QueuedBackend`] describes one version's server shape — mean
//!   service demand per request, intrinsic error rate, replica count,
//!   per-replica queue bound, and a request timeout;
//! * a [`VersionBackend`] is the running instance: one single-core
//!   [`CpuResource`] per replica, dispatched least-backlogged-first, with
//!   arrivals beyond the queue bound shed immediately;
//! * a [`BackendFleet`] keys the running servers by `(ServiceId,
//!   VersionId)` so every traffic stream of a service charges the same
//!   replicas — which is exactly what lets a 20% dark launch measurably
//!   heat the shadow version.
//!
//! Latency becomes load-dependent through [`WorkReceipt::queueing_delay`]:
//! below saturation a request starts almost immediately and its latency is
//! its service demand; past saturation the queue builds, latencies climb
//! towards the timeout, and once the per-replica queue bound is hit the
//! server sheds load. All of it is deterministic — the only randomness
//! (demand jitter, error draws) lives in the traffic stream's seeded RNGs.

use crate::traffic::normalized_error_rate;
use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_simnet::{CpuResource, SimTime, WorkReceipt};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::Duration;

/// Default per-replica bound on outstanding (queued + executing) requests.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Default request timeout.
pub const DEFAULT_BACKEND_TIMEOUT: Duration = Duration::from_millis(1_000);

/// The server shape of one service version: how much work a request costs,
/// how often it fails intrinsically, and how much capacity the version has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedBackend {
    /// Mean service demand of one request (per replica core).
    pub service_time: Duration,
    /// Intrinsic probability that a *served* request fails.
    pub error_rate: f64,
    /// Number of single-core replicas serving this version.
    pub replicas: usize,
    /// Per-replica bound on outstanding requests (queued + executing);
    /// arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Deadline from backend arrival to completion; requests finishing
    /// later count as timeout errors (the work is still charged — the
    /// server burns the cycles even when the caller has given up).
    pub timeout: Duration,
}

impl QueuedBackend {
    /// A healthy queued backend with the given mean service demand and the
    /// default replica/queue/timeout shape.
    pub fn new(service_time: Duration) -> Self {
        Self {
            service_time,
            error_rate: 0.0,
            replicas: 1,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            timeout: DEFAULT_BACKEND_TIMEOUT,
        }
    }

    /// Overrides the intrinsic error rate (builder style, clamped to
    /// `[0, 1]`).
    pub fn with_error_rate(mut self, error_rate: f64) -> Self {
        self.error_rate = normalized_error_rate(error_rate);
        self
    }

    /// Overrides the replica count (builder style, minimum 1).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Overrides the per-replica queue bound (builder style, minimum 1).
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity.max(1);
        self
    }

    /// Overrides the request timeout (builder style, minimum 1 ms).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout.max(Duration::from_millis(1));
        self
    }
}

/// Engine-level default capacity shape applied to versions that only
/// declare a plain [`crate::traffic::BackendProfile`]: the profile supplies
/// service time and error rate, these defaults supply the queueing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendDefaults {
    /// Replicas per version.
    pub replicas: usize,
    /// Per-replica queue bound.
    pub queue_capacity: usize,
    /// Request timeout.
    pub timeout: Duration,
}

impl Default for BackendDefaults {
    fn default() -> Self {
        Self {
            replicas: 1,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            timeout: DEFAULT_BACKEND_TIMEOUT,
        }
    }
}

impl BackendDefaults {
    /// Creates defaults with the given shape (each knob clamped to its
    /// minimum).
    pub fn new(replicas: usize, queue_capacity: usize, timeout: Duration) -> Self {
        Self {
            replicas: replicas.max(1),
            queue_capacity: queue_capacity.max(1),
            timeout: timeout.max(Duration::from_millis(1)),
        }
    }
}

/// The outcome of handing one request to a version's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendDispatch {
    /// The request was admitted; the receipt carries queueing delay and
    /// completion time. The caller applies the timeout policy.
    Admitted(WorkReceipt),
    /// Every replica's queue was full — the request was shed without
    /// charging any work.
    Shed,
}

/// One replica: a single-core queued server (the paper testbed's
/// `n1-standard-1` shape) plus the completion times of its outstanding
/// requests, so the queue bound is enforceable without a full event list.
#[derive(Debug, Clone)]
struct Replica {
    cpu: CpuResource,
    /// Completion times of admitted, not-yet-finished requests. Pushed in
    /// dispatch order; a single-core FIFO server completes in that order,
    /// so the front is always the earliest completion.
    inflight: VecDeque<SimTime>,
}

impl Replica {
    fn new() -> Self {
        Self {
            cpu: CpuResource::single_core(),
            inflight: VecDeque::new(),
        }
    }

    /// Drops completed entries and returns the number of requests still
    /// outstanding at `at`.
    fn outstanding(&mut self, at: SimTime) -> usize {
        while self.inflight.front().is_some_and(|done| *done <= at) {
            self.inflight.pop_front();
        }
        self.inflight.len()
    }
}

/// The running queued server of one service version.
pub struct VersionBackend {
    spec: QueuedBackend,
    replicas: Vec<Replica>,
    /// Requests shed because every replica's queue was full.
    shed: u64,
    /// Requests admitted (work charged to a replica).
    admitted: u64,
    /// Time and value of the last utilisation sample, so repeated samples
    /// at the same instant (several streams ticking one service) return
    /// the measured value instead of a bogus 0% over an empty window.
    last_sample: (SimTime, f64),
}

impl VersionBackend {
    /// Boots the version's replicas from its spec.
    pub fn new(spec: QueuedBackend) -> Self {
        let replicas = (0..spec.replicas.max(1)).map(|_| Replica::new()).collect();
        Self {
            spec,
            replicas,
            shed: 0,
            admitted: 0,
            last_sample: (SimTime::ZERO, 0.0),
        }
    }

    /// The server shape.
    pub fn spec(&self) -> &QueuedBackend {
        &self.spec
    }

    /// Requests shed so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Dispatches one request arriving at the backend at `at` with the
    /// given service `demand`: among the replicas whose queue
    /// (outstanding requests) still has room, the least-backlogged one
    /// admits it; the request is shed — no work charged — only when every
    /// replica's queue is at capacity.
    pub fn dispatch(&mut self, at: SimTime, demand: Duration) -> BackendDispatch {
        let mut best: Option<(usize, SimTime)> = None;
        for idx in 0..self.replicas.len() {
            if self.replicas[idx].outstanding(at) >= self.spec.queue_capacity {
                continue;
            }
            let start = self.replicas[idx].cpu.earliest_start(at);
            // Strict `<` keeps the lowest index on ties — deterministic.
            if best.is_none_or(|(_, s)| start < s) {
                best = Some((idx, start));
            }
        }
        let Some((idx, _)) = best else {
            self.shed += 1;
            return BackendDispatch::Shed;
        };
        let replica = &mut self.replicas[idx];
        let receipt = replica.cpu.submit(at, demand);
        replica.inflight.push_back(receipt.completed);
        self.admitted += 1;
        BackendDispatch::Admitted(receipt)
    }

    /// Utilisation in percent of the version's total replica capacity since
    /// the previous sample (see [`CpuResource::sample_utilization`]). The
    /// traffic stream samples once per tick, which also keeps the replicas'
    /// pending execution-interval lists drained. Repeated samples at (or
    /// before) the last sample time return the last measured value: when
    /// several streams of one service tick at the same boundary, the
    /// second sampler must not read 0% off an already-drained window.
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        if self.replicas.is_empty() {
            return 0.0;
        }
        let (last_at, last_value) = self.last_sample;
        if now <= last_at {
            return last_value;
        }
        let sum: f64 = self
            .replicas
            .iter_mut()
            .map(|r| r.cpu.sample_utilization(now))
            .sum();
        let value = sum / self.replicas.len() as f64;
        self.last_sample = (now, value);
        value
    }

    /// Average utilisation of the version's replicas from time zero to
    /// `now` (independent of the sampling windows).
    pub fn average_utilization(&self, now: SimTime) -> f64 {
        if self.replicas.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .replicas
            .iter()
            .map(|r| r.cpu.average_utilization(now))
            .sum();
        sum / self.replicas.len() as f64
    }
}

impl fmt::Debug for VersionBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionBackend")
            .field("spec", &self.spec)
            .field("admitted", &self.admitted)
            .field("shed", &self.shed)
            .finish()
    }
}

/// The engine's running backend servers, keyed by `(service, version)`.
/// Every traffic stream of a service dispatches into the same servers, so
/// primary and shadow load of concurrent streams contend realistically.
#[derive(Debug, Default)]
pub struct BackendFleet {
    servers: BTreeMap<(ServiceId, VersionId), VersionBackend>,
}

impl BackendFleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the running server of `(service, version)`, booting it from
    /// `spec` on first sight (later calls keep the existing server and its
    /// accumulated load — the first registration wins).
    pub fn ensure(
        &mut self,
        service: ServiceId,
        version: VersionId,
        spec: &QueuedBackend,
    ) -> &mut VersionBackend {
        self.servers
            .entry((service, version))
            .or_insert_with(|| VersionBackend::new(*spec))
    }

    /// The running server of `(service, version)`, if any.
    pub fn server(&self, service: ServiceId, version: VersionId) -> Option<&VersionBackend> {
        self.servers.get(&(service, version))
    }

    /// Iterates mutably over the running servers of one service.
    pub fn servers_of_mut(
        &mut self,
        service: ServiceId,
    ) -> impl Iterator<Item = (VersionId, &mut VersionBackend)> {
        self.servers
            .range_mut((service, VersionId::new(0))..=(service, VersionId::new(u64::MAX)))
            .map(|((_, version), server)| (*version, server))
    }

    /// Number of running version servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether no server has been booted yet.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ms: u64) -> QueuedBackend {
        QueuedBackend::new(Duration::from_millis(ms))
            .with_queue_capacity(2)
            .with_timeout(Duration::from_millis(100))
    }

    #[test]
    fn builders_clamp_degenerate_values() {
        let q = QueuedBackend::new(Duration::from_millis(5))
            .with_error_rate(7.0)
            .with_replicas(0)
            .with_queue_capacity(0)
            .with_timeout(Duration::ZERO);
        assert_eq!(q.error_rate, 1.0);
        assert_eq!(q.replicas, 1);
        assert_eq!(q.queue_capacity, 1);
        assert_eq!(q.timeout, Duration::from_millis(1));
        assert_eq!(
            QueuedBackend::new(Duration::ZERO)
                .with_error_rate(f64::NAN)
                .error_rate,
            0.0
        );
        let d = BackendDefaults::new(0, 0, Duration::ZERO);
        assert_eq!((d.replicas, d.queue_capacity), (1, 1));
    }

    #[test]
    fn idle_server_serves_at_service_demand() {
        let mut server = VersionBackend::new(spec(10));
        match server.dispatch(SimTime::from_secs(1), Duration::from_millis(10)) {
            BackendDispatch::Admitted(receipt) => {
                assert_eq!(receipt.queueing_delay(), Duration::ZERO);
                assert_eq!(receipt.latency(), Duration::from_millis(10));
            }
            BackendDispatch::Shed => panic!("idle server must admit"),
        }
        assert_eq!(server.admitted(), 1);
        assert_eq!(server.shed(), 0);
    }

    #[test]
    fn latency_grows_with_backlog_then_queue_sheds() {
        // Capacity 2 outstanding per replica: the third simultaneous
        // arrival is shed, and the second one queues behind the first.
        let mut server = VersionBackend::new(spec(10));
        let a = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        let b = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        let c = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        let BackendDispatch::Admitted(a) = a else {
            panic!("first admitted")
        };
        let BackendDispatch::Admitted(b) = b else {
            panic!("second admitted")
        };
        assert_eq!(a.queueing_delay(), Duration::ZERO);
        assert_eq!(b.queueing_delay(), Duration::from_millis(10));
        assert_eq!(c, BackendDispatch::Shed);
        assert_eq!(server.shed(), 1);
        // Once the backlog drains, the queue admits again.
        let d = server.dispatch(SimTime::from_millis(50), Duration::from_millis(10));
        assert!(matches!(d, BackendDispatch::Admitted(_)));
    }

    #[test]
    fn a_full_replica_overflows_to_one_with_queue_room() {
        // Replica A ends up time-least-backlogged with a full queue of
        // short jobs; the next arrival must land on B's free slot, not be
        // shed. Capacity 2, two replicas.
        let mut server = VersionBackend::new(spec(10).with_replicas(2));
        // A gets two 1 ms jobs (earliest free), B gets one 40 ms job.
        assert!(matches!(
            server.dispatch(SimTime::ZERO, Duration::from_millis(1)),
            BackendDispatch::Admitted(_)
        ));
        assert!(matches!(
            server.dispatch(SimTime::ZERO, Duration::from_millis(40)),
            BackendDispatch::Admitted(_)
        ));
        assert!(matches!(
            server.dispatch(SimTime::ZERO, Duration::from_millis(1)),
            BackendDispatch::Admitted(_)
        ));
        // A (free at 2 ms) is the time-least-backlogged but holds 2
        // outstanding jobs; B (free at 40 ms) has one slot left.
        let d = server.dispatch(SimTime::ZERO, Duration::from_millis(1));
        let BackendDispatch::Admitted(receipt) = d else {
            panic!("must overflow to the replica with queue room")
        };
        assert_eq!(receipt.started, SimTime::from_millis(40));
        // Now every queue is full → shed.
        assert_eq!(
            server.dispatch(SimTime::ZERO, Duration::from_millis(1)),
            BackendDispatch::Shed
        );
        assert_eq!(server.shed(), 1);
    }

    #[test]
    fn repeated_samples_at_one_instant_return_the_measured_value() {
        let mut server = VersionBackend::new(spec(10));
        server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        let first = server.sample_utilization(SimTime::from_millis(20));
        assert!((first - 50.0).abs() < 1e-9, "{first}");
        // A second stream sampling the shared server at the same tick
        // boundary must see the same measurement, not 0% of an empty
        // window.
        let again = server.sample_utilization(SimTime::from_millis(20));
        assert_eq!(again, first);
        // A genuinely later window measures afresh.
        let later = server.sample_utilization(SimTime::from_millis(40));
        assert_eq!(later, 0.0);
    }

    #[test]
    fn replicas_spread_simultaneous_load() {
        let mut server = VersionBackend::new(spec(10).with_replicas(2));
        let a = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        let b = server.dispatch(SimTime::ZERO, Duration::from_millis(10));
        for dispatch in [a, b] {
            let BackendDispatch::Admitted(receipt) = dispatch else {
                panic!("admitted")
            };
            assert_eq!(receipt.queueing_delay(), Duration::ZERO);
        }
        // 2 × 10 ms over 2 replicas in a 20 ms window → 50 %.
        let u = server.sample_utilization(SimTime::from_millis(20));
        assert!((u - 50.0).abs() < 1e-9, "{u}");
        assert!((server.average_utilization(SimTime::from_millis(20)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fleet_shares_servers_per_service_version() {
        let mut fleet = BackendFleet::new();
        let service = ServiceId::new(1);
        let v1 = VersionId::new(1);
        let v2 = VersionId::new(2);
        fleet
            .ensure(service, v1, &spec(10))
            .dispatch(SimTime::ZERO, Duration::from_millis(10));
        // Second ensure with a different spec keeps the booted server.
        let server = fleet.ensure(service, v1, &spec(99));
        assert_eq!(server.spec().service_time, Duration::from_millis(10));
        assert_eq!(server.admitted(), 1);
        fleet.ensure(service, v2, &spec(10));
        fleet.ensure(ServiceId::new(2), v1, &spec(10));
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.servers_of_mut(service).count(), 2);
        assert!(fleet.server(service, v1).is_some());
        assert!(fleet.server(service, VersionId::new(9)).is_none());
    }
}
