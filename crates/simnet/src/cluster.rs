//! VMs, containers, and the cluster.
//!
//! Mirrors the deployment model of the paper's evaluation: a Docker Swarm of
//! single-core VMs, one container per service/middleware component, with
//! cAdvisor scraping per-container resource usage into Prometheus. Here a
//! [`Cluster`] owns [`Vm`]s and [`Container`]s, routes compute work to the
//! hosting VM's CPU, and periodically exports utilisation samples into the
//! shared metric store.

use crate::cpu::{CpuResource, WorkReceipt};
use crate::network::NetworkModel;
use crate::rng::SimRng;
use crate::time::SimTime;
use bifrost_metrics::{ResourceCollector, ResourceSample, SharedMetricStore};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Identifies a virtual machine of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(u32);

impl VmId {
    /// Creates a VM id from its raw index.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// Identifies a container running on some VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(u32);

impl ContainerId {
    /// Creates a container id from its raw index.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "container-{}", self.0)
    }
}

/// A virtual machine: a named host with a CPU and a fixed memory capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    id: VmId,
    name: String,
    cpu: CpuResource,
    memory_bytes: u64,
}

impl Vm {
    /// The VM id.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// The VM name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The VM's CPU.
    pub fn cpu(&self) -> &CpuResource {
        &self.cpu
    }

    /// The VM's memory capacity in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }
}

/// What runs inside a container: a display name plus a baseline memory
/// footprint used for the memory series.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// The container/application name (used as the `container` label).
    pub name: String,
    /// Baseline resident memory in bytes.
    pub memory_bytes: u64,
}

impl InstanceSpec {
    /// Creates an instance spec with a 64 MiB baseline footprint.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            memory_bytes: 64 * 1024 * 1024,
        }
    }

    /// Overrides the memory footprint (builder style).
    pub fn with_memory_bytes(mut self, memory_bytes: u64) -> Self {
        self.memory_bytes = memory_bytes;
        self
    }
}

/// A container placed on a VM.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    id: ContainerId,
    vm: VmId,
    spec: InstanceSpec,
    work_items: u64,
    busy: Duration,
}

impl Container {
    /// The container id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The hosting VM.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The instance spec.
    pub fn spec(&self) -> &InstanceSpec {
        &self.spec
    }

    /// The container name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Number of work items executed by this container.
    pub fn work_items(&self) -> u64 {
        self.work_items
    }

    /// Total CPU time consumed by this container.
    pub fn busy(&self) -> Duration {
        self.busy
    }
}

/// The simulated cluster.
#[derive(Debug)]
pub struct Cluster {
    vms: BTreeMap<VmId, Vm>,
    containers: BTreeMap<ContainerId, Container>,
    network: NetworkModel,
    rng: SimRng,
    collector: ResourceCollector,
    /// Per-container busy time since the last scrape, used to compute
    /// utilisation attributed to individual containers sharing a VM core.
    busy_since_scrape: BTreeMap<ContainerId, Duration>,
    last_scrape: SimTime,
    next_vm: u32,
    next_container: u32,
}

impl Cluster {
    /// Creates a cluster exporting resource metrics into `store`, with
    /// deterministic randomness derived from `seed`.
    pub fn new(store: SharedMetricStore, seed: u64) -> Self {
        Self {
            vms: BTreeMap::new(),
            containers: BTreeMap::new(),
            network: NetworkModel::default(),
            rng: SimRng::seeded(seed),
            collector: ResourceCollector::new(store),
            busy_since_scrape: BTreeMap::new(),
            last_scrape: SimTime::ZERO,
            next_vm: 0,
            next_container: 0,
        }
    }

    /// Overrides the network model (builder style).
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Adds a VM with the given name, core count, and memory capacity.
    pub fn add_vm(&mut self, name: impl Into<String>, cores: usize, memory_bytes: u64) -> VmId {
        let id = VmId::new(self.next_vm);
        self.next_vm += 1;
        self.vms.insert(
            id,
            Vm {
                id,
                name: name.into(),
                cpu: CpuResource::new(cores),
                memory_bytes,
            },
        );
        id
    }

    /// Adds an `n1-standard-1`-like VM: one core, 3.75 GB memory.
    pub fn add_standard_vm(&mut self, name: impl Into<String>) -> VmId {
        self.add_vm(name, 1, 3_750_000_000)
    }

    /// Places a container on a VM.
    ///
    /// # Panics
    ///
    /// Panics if the VM does not exist (a programming error in deployment
    /// definitions, not a runtime condition).
    pub fn add_container(&mut self, vm: VmId, spec: InstanceSpec) -> ContainerId {
        assert!(self.vms.contains_key(&vm), "unknown VM {vm}");
        let id = ContainerId::new(self.next_container);
        self.next_container += 1;
        self.containers.insert(
            id,
            Container {
                id,
                vm,
                spec,
                work_items: 0,
                busy: Duration::ZERO,
            },
        );
        self.busy_since_scrape.insert(id, Duration::ZERO);
        id
    }

    /// Looks up a VM.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id)
    }

    /// Looks up a container.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    /// Finds a container by name.
    pub fn container_by_name(&self, name: &str) -> Option<&Container> {
        self.containers.values().find(|c| c.name() == name)
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Number of containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Whether two containers are placed on the same VM.
    pub fn colocated(&self, a: ContainerId, b: ContainerId) -> bool {
        match (self.containers.get(&a), self.containers.get(&b)) {
            (Some(a), Some(b)) => a.vm == b.vm,
            _ => false,
        }
    }

    /// Submits compute work to a container: the work contends for the hosting
    /// VM's CPU with everything else placed there.
    ///
    /// # Panics
    ///
    /// Panics if the container does not exist.
    pub fn execute(
        &mut self,
        container: ContainerId,
        arrival: SimTime,
        demand: Duration,
    ) -> WorkReceipt {
        let entry = self
            .containers
            .get_mut(&container)
            .unwrap_or_else(|| panic!("unknown container {container}"));
        let vm = self.vms.get_mut(&entry.vm).expect("container VM exists");
        let receipt = vm.cpu.submit(arrival, demand);
        entry.work_items += 1;
        entry.busy += demand;
        *self
            .busy_since_scrape
            .get_mut(&container)
            .expect("tracked container") += demand;
        receipt
    }

    /// The network latency for a message of `payload_bytes` between two
    /// containers (loopback if colocated).
    pub fn network_hop(
        &mut self,
        from: ContainerId,
        to: ContainerId,
        payload_bytes: usize,
    ) -> Duration {
        let same_vm = self.colocated(from, to);
        self.network.hop(same_vm, payload_bytes, &mut self.rng)
    }

    /// Mutable access to the deterministic RNG (for workload generators that
    /// want to share the cluster's random stream).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Scrapes per-container CPU utilisation and memory into the metric store
    /// (the cAdvisor role). Utilisation is attributed per container from its
    /// own busy time within the scrape window, relative to one core.
    pub fn scrape_resources(&mut self, now: SimTime) {
        let window = now - self.last_scrape;
        let window_secs = window.as_secs_f64();
        let samples: Vec<ResourceSample> = self
            .containers
            .values()
            .map(|container| {
                let busy = self
                    .busy_since_scrape
                    .get(&container.id)
                    .copied()
                    .unwrap_or(Duration::ZERO);
                let cpu_percent = if window_secs > 0.0 {
                    (busy.as_secs_f64() / window_secs * 100.0).min(100.0)
                } else {
                    0.0
                };
                ResourceSample::new(
                    container.name(),
                    cpu_percent,
                    container.spec.memory_bytes as f64,
                )
            })
            .collect();
        self.collector.scrape_all(now.to_timestamp(), &samples);
        for busy in self.busy_since_scrape.values_mut() {
            *busy = Duration::ZERO;
        }
        self.last_scrape = now;
    }

    /// The metric store resource samples are written to.
    pub fn metric_store(&self) -> &SharedMetricStore {
        self.collector.store()
    }

    /// Average CPU utilisation of the VM hosting `container` from time zero
    /// until `now`.
    pub fn vm_average_utilization(&self, container: ContainerId, now: SimTime) -> f64 {
        self.containers
            .get(&container)
            .and_then(|c| self.vms.get(&c.vm))
            .map(|vm| vm.cpu.average_utilization(now))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_metrics::{Aggregation, RangeQuery};

    fn cluster() -> (Cluster, ContainerId, ContainerId, ContainerId) {
        let store = SharedMetricStore::new();
        let mut cluster = Cluster::new(store, 42);
        let vm1 = cluster.add_standard_vm("vm-engine");
        let vm2 = cluster.add_standard_vm("vm-services");
        let engine = cluster.add_container(vm1, InstanceSpec::new("bifrost-engine"));
        let product = cluster.add_container(vm2, InstanceSpec::new("product"));
        let search = cluster.add_container(vm2, InstanceSpec::new("search"));
        (cluster, engine, product, search)
    }

    #[test]
    fn vm_and_container_bookkeeping() {
        let (cluster, engine, product, search) = cluster();
        assert_eq!(cluster.vm_count(), 2);
        assert_eq!(cluster.container_count(), 3);
        assert_eq!(cluster.container(engine).unwrap().name(), "bifrost-engine");
        assert!(cluster.container_by_name("product").is_some());
        assert!(cluster.container_by_name("nope").is_none());
        assert!(!cluster.colocated(engine, product));
        assert!(cluster.colocated(product, search));
        let vm = cluster.vm(cluster.container(engine).unwrap().vm()).unwrap();
        assert_eq!(vm.cpu().core_count(), 1);
        assert_eq!(vm.memory_bytes(), 3_750_000_000);
        assert!(vm.name().starts_with("vm-"));
    }

    #[test]
    #[should_panic(expected = "unknown VM")]
    fn adding_container_to_unknown_vm_panics() {
        let store = SharedMetricStore::new();
        let mut cluster = Cluster::new(store, 1);
        cluster.add_container(VmId::new(9), InstanceSpec::new("x"));
    }

    #[test]
    fn execute_contends_on_shared_vm() {
        let (mut cluster, _, product, search) = cluster();
        // product and search share a VM with one core: simultaneous work
        // queues.
        let a = cluster.execute(product, SimTime::ZERO, Duration::from_millis(10));
        let b = cluster.execute(search, SimTime::ZERO, Duration::from_millis(10));
        assert_eq!(a.queueing_delay(), Duration::ZERO);
        assert_eq!(b.queueing_delay(), Duration::from_millis(10));
        assert_eq!(cluster.container(product).unwrap().work_items(), 1);
        assert_eq!(
            cluster.container(product).unwrap().busy(),
            Duration::from_millis(10)
        );
    }

    #[test]
    fn colocated_hops_are_cheaper() {
        let (mut cluster, engine, product, search) = cluster();
        let mut remote = Duration::ZERO;
        let mut local = Duration::ZERO;
        for _ in 0..200 {
            remote += cluster.network_hop(engine, product, 1024);
            local += cluster.network_hop(product, search, 1024);
        }
        assert!(local < remote);
    }

    #[test]
    fn scrape_exports_cpu_and_memory_series() {
        let (mut cluster, engine, product, _) = cluster();
        cluster.execute(engine, SimTime::ZERO, Duration::from_millis(500));
        cluster.execute(product, SimTime::ZERO, Duration::from_millis(100));
        cluster.scrape_resources(SimTime::from_secs(1));

        let store = cluster.metric_store().clone();
        let engine_cpu = RangeQuery::new("container_cpu_utilization")
            .with_label("container", "bifrost-engine")
            .aggregate(Aggregation::Last);
        let value = store
            .evaluate(&engine_cpu, SimTime::from_secs(2).to_timestamp())
            .unwrap();
        assert!((value - 50.0).abs() < 1e-9, "{value}");

        // Second scrape window with no work → utilisation drops to zero.
        cluster.scrape_resources(SimTime::from_secs(2));
        let value = store
            .evaluate(&engine_cpu, SimTime::from_secs(3).to_timestamp())
            .unwrap();
        assert_eq!(value, 0.0);
    }

    #[test]
    fn vm_average_utilization_reports_hosting_vm() {
        let (mut cluster, engine, _, _) = cluster();
        cluster.execute(engine, SimTime::ZERO, Duration::from_millis(200));
        let util = cluster.vm_average_utilization(engine, SimTime::from_secs(1));
        assert!((util - 20.0).abs() < 1e-9);
        assert_eq!(
            cluster.vm_average_utilization(ContainerId::new(99), SimTime::from_secs(1)),
            0.0
        );
    }

    #[test]
    fn custom_vm_sizes() {
        let store = SharedMetricStore::new();
        let mut cluster = Cluster::new(store, 3).with_network(NetworkModel::default());
        let big = cluster.add_vm("big", 4, 16_000_000_000);
        assert_eq!(cluster.vm(big).unwrap().cpu().core_count(), 4);
        let c = cluster.add_container(big, InstanceSpec::new("db").with_memory_bytes(1_000));
        assert_eq!(cluster.container(c).unwrap().spec().memory_bytes, 1_000);
        assert!(cluster.rng_mut().uniform() < 1.0);
    }
}
