//! The proxy's per-request processing-cost model.
//!
//! The evaluation attributes a small constant overhead to every request that
//! traverses a Bifrost proxy (~8 ms in the paper's unoptimised Node.js
//! prototype on single-core cloud VMs), with cookie-based routing slightly
//! more expensive than header-based routing, sticky-session bookkeeping
//! adding a lookup, and dark launches multiplying the work by the number of
//! duplicated requests. The model parameters below are calibrated so that
//! the simulated Figure 6 / Table 1 reproduce the paper's shape: ~8 ms
//! canary/rollout overhead, ~4 ms during the A/B phase (load-sharing effect
//! handled by the application model), and a markedly higher dark-launch
//! overhead.

use bifrost_core::routing::RoutingMode;
use std::time::Duration;

/// Processing-cost parameters of a proxy instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Base cost of accepting and forwarding a request (milliseconds).
    pub forward_ms: f64,
    /// Additional cost of cookie parsing + `Set-Cookie` handling
    /// (milliseconds). Header-based routing skips this.
    pub cookie_ms: f64,
    /// Additional cost of a sticky-session table lookup (milliseconds).
    pub sticky_lookup_ms: f64,
    /// Cost of duplicating one request to a shadow version (milliseconds).
    pub shadow_copy_ms: f64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        Self::node_prototype()
    }
}

impl OverheadModel {
    /// Parameters calibrated to the paper's Node.js prototype on
    /// `n1-standard-1` instances (≈8 ms per proxied request with cookie
    /// routing, ≈18 ms during full traffic duplication with three shadowed
    /// hops).
    pub fn node_prototype() -> Self {
        Self {
            forward_ms: 5.5,
            cookie_ms: 2.0,
            sticky_lookup_ms: 0.5,
            shadow_copy_ms: 3.2,
        }
    }

    /// Parameters for a hypothetical optimised implementation (used by the
    /// ablation bench comparing routing modes and implementations).
    pub fn optimized() -> Self {
        Self {
            forward_ms: 1.0,
            cookie_ms: 0.4,
            sticky_lookup_ms: 0.1,
            shadow_copy_ms: 0.6,
        }
    }

    /// The CPU demand of handling one request with the given routing mode,
    /// sticky-session requirement, and number of shadow copies.
    pub fn request_cost(&self, mode: RoutingMode, sticky: bool, shadow_copies: usize) -> Duration {
        let mut ms = self.forward_ms;
        if mode == RoutingMode::CookieBased {
            ms += self.cookie_ms;
        }
        if sticky {
            ms += self.sticky_lookup_ms;
        }
        ms += self.shadow_copy_ms * shadow_copies as f64;
        Duration::from_secs_f64(ms / 1_000.0)
    }

    /// The cost of handling a request when no strategy is active (the proxy
    /// only forwards).
    pub fn passthrough_cost(&self) -> Duration {
        Duration::from_secs_f64(self.forward_ms / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cookie_routing_costs_more_than_header_routing() {
        let model = OverheadModel::node_prototype();
        let cookie = model.request_cost(RoutingMode::CookieBased, false, 0);
        let header = model.request_cost(RoutingMode::HeaderBased, false, 0);
        assert!(cookie > header);
        assert_eq!(header, Duration::from_secs_f64(5.5 / 1_000.0));
    }

    #[test]
    fn sticky_sessions_add_lookup_cost() {
        let model = OverheadModel::node_prototype();
        let sticky = model.request_cost(RoutingMode::CookieBased, true, 0);
        let plain = model.request_cost(RoutingMode::CookieBased, false, 0);
        assert!(sticky > plain);
    }

    #[test]
    fn shadow_copies_scale_cost_linearly() {
        let model = OverheadModel::node_prototype();
        let none = model.request_cost(RoutingMode::CookieBased, false, 0);
        let one = model.request_cost(RoutingMode::CookieBased, false, 1);
        let three = model.request_cost(RoutingMode::CookieBased, false, 3);
        let per_copy = Duration::from_secs_f64(model.shadow_copy_ms / 1_000.0);
        assert_eq!(one - none, per_copy);
        assert_eq!(three - none, per_copy * 3);
    }

    #[test]
    fn default_is_the_node_prototype_calibration() {
        assert_eq!(OverheadModel::default(), OverheadModel::node_prototype());
        // ~7.5 ms for cookie-routed canary traffic: within the paper's "at or
        // below 8 ms" envelope once the extra network hop is added.
        let cost = OverheadModel::default().request_cost(RoutingMode::CookieBased, false, 0);
        let ms = cost.as_secs_f64() * 1_000.0;
        assert!(ms > 6.0 && ms < 9.0, "{ms}");
    }

    #[test]
    fn optimized_model_is_cheaper_everywhere() {
        let node = OverheadModel::node_prototype();
        let fast = OverheadModel::optimized();
        for (mode, sticky, shadows) in [
            (RoutingMode::CookieBased, false, 0),
            (RoutingMode::CookieBased, true, 2),
            (RoutingMode::HeaderBased, false, 1),
        ] {
            assert!(
                fast.request_cost(mode, sticky, shadows) < node.request_cost(mode, sticky, shadows)
            );
        }
        assert!(fast.passthrough_cost() < node.passthrough_cost());
    }
}
