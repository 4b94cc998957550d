//! Network latency model between containers.
//!
//! The case-study application runs on a Docker Swarm where every service sits
//! in its own container on its own VM; requests hop between containers over
//! the cloud provider's network. The model captures per-hop latency as a
//! base latency plus a payload-size-dependent term plus jitter, with
//! colocated containers (same VM) getting a cheaper loopback path.

use crate::rng::SimRng;
use std::time::Duration;

/// Parameters of a single network hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed one-way latency in milliseconds.
    pub base_ms: f64,
    /// Additional milliseconds per kilobyte of payload.
    pub per_kb_ms: f64,
    /// Standard deviation of the jitter in milliseconds.
    pub jitter_ms: f64,
}

impl LatencyModel {
    /// A typical intra-zone cloud network hop (~0.5 ms).
    pub fn cloud_internal() -> Self {
        Self {
            base_ms: 0.5,
            per_kb_ms: 0.01,
            jitter_ms: 0.1,
        }
    }

    /// Loopback / same-VM hop (~0.05 ms).
    pub fn loopback() -> Self {
        Self {
            base_ms: 0.05,
            per_kb_ms: 0.001,
            jitter_ms: 0.01,
        }
    }

    /// The latency of one traversal carrying `payload_bytes`, with jitter
    /// drawn from `rng`.
    pub fn sample(&self, payload_bytes: usize, rng: &mut SimRng) -> Duration {
        let kb = payload_bytes as f64 / 1024.0;
        let ms = rng.normal(self.base_ms + self.per_kb_ms * kb, self.jitter_ms);
        Duration::from_secs_f64(ms.max(0.0) / 1_000.0)
    }

    /// The deterministic (jitter-free) latency of one traversal.
    pub fn expected(&self, payload_bytes: usize) -> Duration {
        let kb = payload_bytes as f64 / 1024.0;
        Duration::from_secs_f64((self.base_ms + self.per_kb_ms * kb).max(0.0) / 1_000.0)
    }
}

/// The cluster-wide network model: which latency applies between two
/// containers depending on placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Latency between containers on different VMs.
    pub remote: LatencyModel,
    /// Latency between containers on the same VM.
    pub local: LatencyModel,
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self {
            remote: LatencyModel::cloud_internal(),
            local: LatencyModel::loopback(),
        }
    }
}

impl NetworkModel {
    /// Creates a model with the given remote and local hop parameters.
    pub fn new(remote: LatencyModel, local: LatencyModel) -> Self {
        Self { remote, local }
    }

    /// The latency of a hop between two containers.
    pub fn hop(&self, same_vm: bool, payload_bytes: usize, rng: &mut SimRng) -> Duration {
        if same_vm {
            self.local.sample(payload_bytes, rng)
        } else {
            self.remote.sample(payload_bytes, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_latency_grows_with_payload() {
        let model = LatencyModel::cloud_internal();
        let small = model.expected(1_024);
        let large = model.expected(100 * 1_024);
        assert!(large > small);
        assert!(small >= Duration::from_micros(500));
    }

    #[test]
    fn sampled_latency_is_near_expected() {
        let model = LatencyModel::cloud_internal();
        let mut rng = SimRng::seeded(5);
        let n = 2_000;
        let mean_ms = (0..n)
            .map(|_| model.sample(10 * 1024, &mut rng).as_secs_f64() * 1_000.0)
            .sum::<f64>()
            / n as f64;
        let expected_ms = model.expected(10 * 1024).as_secs_f64() * 1_000.0;
        assert!(
            (mean_ms - expected_ms).abs() < 0.1,
            "mean {mean_ms} vs {expected_ms}"
        );
    }

    #[test]
    fn loopback_is_cheaper_than_remote() {
        let network = NetworkModel::default();
        let mut rng = SimRng::seeded(7);
        let local: Duration = (0..500).map(|_| network.hop(true, 1024, &mut rng)).sum();
        let remote: Duration = (0..500).map(|_| network.hop(false, 1024, &mut rng)).sum();
        assert!(local < remote);
    }

    #[test]
    fn custom_model_construction() {
        let model = NetworkModel::new(
            LatencyModel {
                base_ms: 2.0,
                per_kb_ms: 0.0,
                jitter_ms: 0.0,
            },
            LatencyModel::loopback(),
        );
        let mut rng = SimRng::seeded(1);
        let hop = model.hop(false, 0, &mut rng);
        assert!((hop.as_secs_f64() * 1000.0 - 2.0).abs() < 1e-9);
    }
}
