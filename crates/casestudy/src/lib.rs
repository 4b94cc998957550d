//! # bifrost-casestudy
//!
//! The microservice-based case study application used throughout the paper's
//! evaluation, rebuilt on top of the simulation substrate, together with the
//! release strategies and deployments of the three experiments:
//!
//! * the **end-user overhead** experiment (Figure 6 / Table 1): a 7-service
//!   e-commerce application on 12 single-core VMs, a 35 req/s JMeter-style
//!   workload, and a four-phase release strategy (canary → dark launch →
//!   A/B test → gradual rollout) replacing the product service,
//! * the **parallel strategies** experiment (Figures 7–8): the engine on its
//!   own single-core VM enacting 1–200 copies of a trimmed strategy, and
//! * the **parallel checks** experiment (Figures 9–10): a trivial two-phase
//!   strategy with 8·n identical checks.
//!
//! The application topology mirrors the paper: an nginx entry point, an
//! HTML/JS frontend, three REST services (product, search, auth), MongoDB,
//! Prometheus (the shared metric store), and cAdvisor (the app's
//! per-container CPU scrape). The product service exists in three versions (stable,
//! product A, product B); the search service in two (stable, fastSearch).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod model;
pub mod overhead;
pub mod strategies;

pub use app::{CaseStudyApp, CaseStudyTopology, ProxyDeployment};
pub use model::{ServiceCosts, VersionBehavior};
pub use overhead::{OverheadExperiment, OverheadRun, PhasePlan, Variant};
pub use strategies::{
    evaluation_strategy, fastsearch_strategy, parallel_check_strategy, trimmed_strategy,
};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::app::{CaseStudyApp, CaseStudyTopology, ProxyDeployment};
    pub use crate::model::{ServiceCosts, VersionBehavior};
    pub use crate::overhead::{OverheadExperiment, OverheadRun, PhasePlan, Variant};
    pub use crate::strategies::{
        evaluation_strategy, fastsearch_strategy, parallel_check_strategy, trimmed_strategy,
    };
}
