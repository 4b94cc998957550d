//! Processing-cost and behaviour models of the case-study services.
//!
//! The absolute numbers are calibrated so that the simulated baseline
//! response time lands in the low-20-millisecond range the paper reports for
//! its Google Cloud deployment, and so that the relative effects (proxy hop,
//! dark-launch duplication, A/B load sharing) reproduce the shape of
//! Figure 6 / Table 1.

use bifrost_workload::RequestKind;
use std::time::Duration;

/// CPU demand parameters of the application services (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCosts {
    /// nginx reverse-proxy processing per request.
    pub nginx_ms: f64,
    /// Product service base processing per request.
    pub product_ms: f64,
    /// Additional product-service milliseconds per kilobyte of response.
    pub product_per_kb_ms: f64,
    /// Search service processing per search query.
    pub search_ms: f64,
    /// Auth service processing per token validation.
    pub auth_ms: f64,
    /// MongoDB read cost.
    pub db_read_ms: f64,
    /// MongoDB write cost.
    pub db_write_ms: f64,
    /// Latency between the load generator and nginx (one way).
    pub client_link_ms: f64,
}

impl Default for ServiceCosts {
    fn default() -> Self {
        Self::calibrated()
    }
}

impl ServiceCosts {
    /// The calibration used by the evaluation reproduction.
    pub fn calibrated() -> Self {
        Self {
            nginx_ms: 0.8,
            product_ms: 9.0,
            product_per_kb_ms: 0.02,
            search_ms: 4.5,
            auth_ms: 2.5,
            db_read_ms: 2.0,
            db_write_ms: 4.0,
            client_link_ms: 1.0,
        }
    }

    /// Product-service CPU demand for one request of the given kind.
    pub fn product_demand(&self, kind: RequestKind) -> Duration {
        let kb = kind.response_bytes() as f64 / 1024.0;
        Duration::from_secs_f64((self.product_ms + self.product_per_kb_ms * kb) / 1_000.0)
    }

    /// MongoDB CPU demand for one request of the given kind.
    pub fn db_demand(&self, kind: RequestKind) -> Duration {
        let ms = if kind.is_write() {
            self.db_write_ms
        } else {
            self.db_read_ms
        };
        Duration::from_secs_f64(ms / 1_000.0)
    }

    /// Auth service CPU demand per request.
    pub fn auth_demand(&self) -> Duration {
        Duration::from_secs_f64(self.auth_ms / 1_000.0)
    }

    /// Search service CPU demand per search request.
    pub fn search_demand(&self) -> Duration {
        Duration::from_secs_f64(self.search_ms / 1_000.0)
    }

    /// nginx CPU demand per request.
    pub fn nginx_demand(&self) -> Duration {
        Duration::from_secs_f64(self.nginx_ms / 1_000.0)
    }

    /// One-way latency between the load generator and nginx.
    pub fn client_link(&self) -> Duration {
        Duration::from_secs_f64(self.client_link_ms / 1_000.0)
    }
}

/// Behaviour of one deployed version of a service: how its processing time
/// and error rate differ from the stable implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionBehavior {
    /// Multiplier applied to the service's base CPU demand (1.0 = identical
    /// to stable, 0.8 = 20 % faster).
    pub speed_factor: f64,
    /// Probability that a request served by this version fails with an HTTP
    /// 500 (feeds the error-count metrics the canary checks watch).
    pub error_rate: f64,
    /// Relative conversion strength used for the simulated business metric
    /// (items sold); only meaningful for product-service versions.
    pub conversion_factor: f64,
}

impl Default for VersionBehavior {
    fn default() -> Self {
        Self::stable()
    }
}

impl VersionBehavior {
    /// The stable version: nominal speed, negligible error rate.
    pub fn stable() -> Self {
        Self {
            speed_factor: 1.0,
            error_rate: 0.001,
            conversion_factor: 1.0,
        }
    }

    /// A healthy redesign: slightly faster, same negligible error rate,
    /// slightly better conversion.
    pub fn healthy_redesign() -> Self {
        Self {
            speed_factor: 0.9,
            error_rate: 0.001,
            conversion_factor: 1.1,
        }
    }

    /// A defective version: occasional errors and slower responses — used by
    /// rollback scenarios and failure-injection tests.
    pub fn defective() -> Self {
        Self {
            speed_factor: 1.6,
            error_rate: 0.12,
            conversion_factor: 0.7,
        }
    }

    /// Scales a base CPU demand by this version's speed factor.
    pub fn scale(&self, base: Duration) -> Duration {
        Duration::from_secs_f64(base.as_secs_f64() * self.speed_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_demand_grows_with_response_size() {
        let costs = ServiceCosts::calibrated();
        assert!(
            costs.product_demand(RequestKind::Products)
                > costs.product_demand(RequestKind::Details)
        );
        assert!(costs.db_demand(RequestKind::Buy) > costs.db_demand(RequestKind::Details));
        assert!(costs.auth_demand() > Duration::ZERO);
        assert!(costs.search_demand() > costs.nginx_demand());
        assert!(costs.client_link() > Duration::ZERO);
        assert_eq!(ServiceCosts::default(), ServiceCosts::calibrated());
    }

    #[test]
    fn baseline_sum_is_in_the_low_twenties() {
        // Sanity-check the calibration: the dominant CPU components of a
        // Details request (nginx + product + auth + db) plus ~6 network hops
        // and the client link should land near the paper's ~22 ms baseline.
        let costs = ServiceCosts::calibrated();
        let cpu_ms = costs.nginx_ms
            + costs.product_ms
            + costs.product_per_kb_ms * 2.0
            + costs.auth_ms
            + costs.db_read_ms;
        let network_ms = 2.0 * costs.client_link_ms + 6.0 * 0.5;
        let total = cpu_ms + network_ms;
        assert!(total > 15.0 && total < 25.0, "calibration drifted: {total}");
    }

    #[test]
    fn version_behaviors() {
        let stable = VersionBehavior::stable();
        let redesign = VersionBehavior::healthy_redesign();
        let broken = VersionBehavior::defective();
        assert_eq!(VersionBehavior::default(), stable);
        assert!(redesign.speed_factor < stable.speed_factor);
        assert!(broken.error_rate > redesign.error_rate);
        assert!(broken.conversion_factor < redesign.conversion_factor);
        let base = Duration::from_millis(10);
        assert_eq!(stable.scale(base), base);
        assert!(redesign.scale(base) < base);
        assert!(broken.scale(base) > base);
    }
}
