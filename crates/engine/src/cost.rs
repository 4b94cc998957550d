//! The engine's CPU cost model.
//!
//! Every action the engine performs is booked against its (single-core by
//! default) CPU. The per-action costs below are calibrated against the
//! paper's measurements on `n1-standard-1` instances: a four-phase strategy
//! with a handful of checks keeps the engine almost idle, around 100
//! identically-timed parallel strategies push the single core towards
//! saturation with a mean enactment delay in the single-digit seconds, and
//! 1600 parallel checks per phase produce a delay of several tens of
//! seconds.

use std::time::Duration;

/// CPU demand of the engine's individual actions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineCostModel {
    /// Cost of executing one check once: evaluating its metric function,
    /// excluding the per-query cost below (milliseconds).
    pub check_execution_ms: f64,
    /// Cost of one metric-provider query (HTTP round trip to Prometheus in
    /// the prototype) (milliseconds).
    pub metric_query_ms: f64,
    /// Cost of evaluating a completed state: aggregating check outcomes,
    /// applying the transition function (milliseconds).
    pub state_evaluation_ms: f64,
    /// Cost of building and pushing one proxy configuration update
    /// (milliseconds).
    pub proxy_update_ms: f64,
    /// Cost of admitting a newly scheduled strategy (parsing, instantiating
    /// runtime state) (milliseconds).
    pub strategy_admission_ms: f64,
}

impl Default for EngineCostModel {
    fn default() -> Self {
        Self::node_prototype()
    }
}

impl EngineCostModel {
    /// Calibration for the paper's Node.js prototype on a single-core cloud
    /// instance.
    pub fn node_prototype() -> Self {
        Self {
            check_execution_ms: 3.0,
            metric_query_ms: 10.0,
            state_evaluation_ms: 20.0,
            proxy_update_ms: 40.0,
            strategy_admission_ms: 80.0,
        }
    }

    /// A hypothetical optimised engine (ablation bench).
    pub fn optimized() -> Self {
        Self {
            check_execution_ms: 0.4,
            metric_query_ms: 1.2,
            state_evaluation_ms: 2.0,
            proxy_update_ms: 4.0,
            strategy_admission_ms: 8.0,
        }
    }

    /// CPU demand of one execution of a check with `queries` metric queries.
    pub fn check_cost(&self, queries: usize) -> Duration {
        Duration::from_secs_f64(
            (self.check_execution_ms + self.metric_query_ms * queries as f64) / 1_000.0,
        )
    }

    /// CPU demand of evaluating a completed state and deciding the
    /// transition.
    pub fn state_evaluation_cost(&self) -> Duration {
        Duration::from_secs_f64(self.state_evaluation_ms / 1_000.0)
    }

    /// CPU demand of pushing configuration updates to `proxies` proxies.
    pub fn proxy_update_cost(&self, proxies: usize) -> Duration {
        Duration::from_secs_f64(self.proxy_update_ms * proxies as f64 / 1_000.0)
    }

    /// CPU demand of admitting one strategy.
    pub fn admission_cost(&self) -> Duration {
        Duration::from_secs_f64(self.strategy_admission_ms / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_cost_scales_with_query_count() {
        let model = EngineCostModel::node_prototype();
        let none = model.check_cost(0);
        let one = model.check_cost(1);
        let five = model.check_cost(5);
        assert!(one > none);
        assert_eq!(
            (five - none).as_secs_f64(),
            5.0 * model.metric_query_ms / 1_000.0
        );
    }

    #[test]
    fn proxy_update_cost_scales_with_proxy_count() {
        let model = EngineCostModel::node_prototype();
        assert_eq!(model.proxy_update_cost(0), Duration::ZERO);
        assert_eq!(
            model.proxy_update_cost(3),
            Duration::from_secs_f64(3.0 * model.proxy_update_ms / 1_000.0)
        );
    }

    #[test]
    fn default_is_node_calibration_and_optimized_is_cheaper() {
        assert_eq!(
            EngineCostModel::default(),
            EngineCostModel::node_prototype()
        );
        let node = EngineCostModel::node_prototype();
        let fast = EngineCostModel::optimized();
        assert!(fast.check_cost(2) < node.check_cost(2));
        assert!(fast.state_evaluation_cost() < node.state_evaluation_cost());
        assert!(fast.proxy_update_cost(1) < node.proxy_update_cost(1));
        assert!(fast.admission_cost() < node.admission_cost());
    }
}
