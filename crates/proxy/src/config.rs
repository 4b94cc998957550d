//! The per-proxy routing configuration pushed by the engine.
//!
//! Whenever the automaton enters a new state, the engine translates the
//! state's routing rules for each affected service into a [`ProxyConfig`]
//! and pushes it to the service's proxy. The config is versioned so that
//! stale updates can be detected and so experiments can count configuration
//! churn.

use bifrost_core::ids::{ServiceId, VersionId};
use bifrost_core::routing::{DarkLaunchRoute, RoutingMode, TrafficSplit};
use bifrost_core::user::UserSelector;

/// One rule of a proxy configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyRule {
    /// Split live traffic across versions.
    Split {
        /// The traffic split across versions.
        split: TrafficSplit,
        /// Whether clients are pinned to their bucket via sticky sessions.
        sticky: bool,
        /// Which users the split applies to (others stay on the default
        /// version).
        selector: UserSelector,
        /// Cookie- vs header-based routing.
        mode: RoutingMode,
    },
    /// Duplicate a share of the traffic to a shadow version.
    Shadow {
        /// The dark-launch route (source, target, percentage).
        route: DarkLaunchRoute,
    },
}

impl ProxyRule {
    /// Convenience constructor for a split rule.
    pub fn split(
        split: TrafficSplit,
        sticky: bool,
        selector: UserSelector,
        mode: RoutingMode,
    ) -> Self {
        Self::Split {
            split,
            sticky,
            selector,
            mode,
        }
    }

    /// Convenience constructor for a shadow rule.
    pub fn shadow(route: DarkLaunchRoute) -> Self {
        Self::Shadow { route }
    }

    /// Whether this is a shadow (dark launch) rule.
    pub fn is_shadow(&self) -> bool {
        matches!(self, ProxyRule::Shadow { .. })
    }
}

/// The full routing configuration of one proxy at one point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyConfig {
    service: ServiceId,
    default_version: VersionId,
    rules: Vec<ProxyRule>,
    revision: u64,
}

impl ProxyConfig {
    /// Creates a configuration that routes everything to `default_version`
    /// (the behaviour of a proxy with no active strategy — "Bifrost
    /// inactive").
    pub fn new(service: ServiceId, default_version: VersionId) -> Self {
        Self {
            service,
            default_version,
            rules: Vec::new(),
            revision: 0,
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: ProxyRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Sets the revision (builder style); the engine bumps this on every
    /// push.
    pub fn with_revision(mut self, revision: u64) -> Self {
        self.revision = revision;
        self
    }

    /// The service this proxy fronts.
    pub fn service(&self) -> ServiceId {
        self.service
    }

    /// The version requests fall back to when no rule applies.
    pub fn default_version(&self) -> VersionId {
        self.default_version
    }

    /// The active rules.
    pub fn rules(&self) -> &[ProxyRule] {
        &self.rules
    }

    /// The configuration revision.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The first split rule, if any (a state installs at most one split per
    /// service).
    pub fn split_rule(&self) -> Option<&ProxyRule> {
        self.rules.iter().find(|r| !r.is_shadow())
    }

    /// All shadow rules.
    pub fn shadow_rules(&self) -> impl Iterator<Item = &ProxyRule> {
        self.rules.iter().filter(|r| r.is_shadow())
    }

    /// Whether any rule requires sticky sessions.
    pub fn requires_sticky_sessions(&self) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r, ProxyRule::Split { sticky: true, .. }))
    }

    /// Whether the configuration performs any traffic duplication.
    pub fn has_dark_launch(&self) -> bool {
        self.rules.iter().any(ProxyRule::is_shadow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_core::routing::Percentage;

    fn versions() -> (ServiceId, VersionId, VersionId) {
        (ServiceId::new(0), VersionId::new(0), VersionId::new(1))
    }

    #[test]
    fn inactive_config_routes_to_default() {
        let (service, stable, _) = versions();
        let config = ProxyConfig::new(service, stable);
        assert_eq!(config.service(), service);
        assert_eq!(config.default_version(), stable);
        assert!(config.rules().is_empty());
        assert!(config.split_rule().is_none());
        assert!(!config.requires_sticky_sessions());
        assert!(!config.has_dark_launch());
        assert_eq!(config.revision(), 0);
    }

    #[test]
    fn config_with_split_and_shadow_rules() {
        let (service, stable, canary) = versions();
        let split = TrafficSplit::canary(stable, canary, Percentage::new(5.0).unwrap()).unwrap();
        let config = ProxyConfig::new(service, stable)
            .with_rule(ProxyRule::split(
                split,
                true,
                UserSelector::All,
                RoutingMode::CookieBased,
            ))
            .with_rule(ProxyRule::shadow(DarkLaunchRoute::new(
                stable,
                canary,
                Percentage::full(),
            )))
            .with_revision(3);
        assert_eq!(config.rules().len(), 2);
        assert!(config.split_rule().is_some());
        assert_eq!(config.shadow_rules().count(), 1);
        assert!(config.requires_sticky_sessions());
        assert!(config.has_dark_launch());
        assert_eq!(config.revision(), 3);
    }

    #[test]
    fn rule_kind_predicates() {
        let (_, stable, canary) = versions();
        let shadow = ProxyRule::shadow(DarkLaunchRoute::new(stable, canary, Percentage::full()));
        assert!(shadow.is_shadow());
        let split = ProxyRule::split(
            TrafficSplit::ab(stable, canary).unwrap(),
            false,
            UserSelector::All,
            RoutingMode::HeaderBased,
        );
        assert!(!split.is_shadow());
    }
}
