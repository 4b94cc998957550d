//! The Bifrost proxy itself: per-request routing decisions.
//!
//! The decision process mirrors Section 4.2 of the paper:
//!
//! 1. With **header-based routing**, the proxy never decides itself — it
//!    routes on the value of the group header injected upstream (`A`/`B`
//!    select the first/second version of the split; anything else falls back
//!    to the default version).
//! 2. With **cookie-based routing**, the proxy buckets the client itself, on
//!    the first identity it has: the user id, then the carried session
//!    token, then a freshly minted token. An identified user's bucket is a
//!    pure draw on the user id, so it holds for the life of a configuration
//!    without any stored state. An anonymous client's token is hashed into
//!    the split; with sticky sessions a known token's stored binding wins,
//!    and a new binding is remembered and sent back as a `Set-Cookie`.
//! 3. Every applicable dark-launch rule adds a shadow copy of the request
//!    with the configured probability.
//!
//! Routing takes `&self`: the sticky-session table is sharded behind
//! striped locks (see [`crate::session`]) and each `lookup`/`bind` locks
//! only its token's shard, so concurrent callers holding read access to the
//! proxy route in parallel. Batch routing
//! ([`BifrostProxy::route_many_costed`]) routes in arrival order, takes the
//! token-generator lock at most once, and folds its counters into the one
//! statistics mutex once per batch.

use crate::config::{ProxyConfig, ProxyRule};
use crate::overhead::OverheadModel;
use crate::request::{ProxyRequest, RoutingDecision, ShadowCopy};
use crate::session::{SessionStore, SessionToken, TokenGenerator};
use bifrost_core::hash;
use bifrost_core::ids::{UserId, VersionId};
use bifrost_core::routing::{DarkLaunchRoute, RoutingMode, TrafficSplit};
use bifrost_core::user::{User, UserSelector};
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::time::Duration;

/// Counters describing what a proxy has done so far.
///
/// A proxy keeps one set behind one mutex. Batch routing tallies into a
/// local copy, counting versions in a short vector that it folds into
/// `per_version` once, and merges the copy in with [`ProxyStats::merge`],
/// whose aggregates are sums and `BTreeMap`-keyed tallies, so a batch
/// reports exactly the statistics of routing its requests one by one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Total requests routed.
    pub requests: u64,
    /// Requests per version (primary routing only, shadows excluded).
    pub per_version: BTreeMap<VersionId, u64>,
    /// Total shadow copies produced.
    pub shadow_copies: u64,
    /// Number of configuration updates received.
    pub config_updates: u64,
    /// Requests answered from the sticky-session table.
    pub sticky_hits: u64,
}

impl ProxyStats {
    /// Folds one routing decision into the counters.
    fn tally(&mut self, decision: &RoutingDecision) {
        self.count(decision);
        *self.per_version.entry(decision.primary).or_insert(0) += 1;
    }

    /// Folds one routing decision into every counter but `per_version` —
    /// the bookkeeping shared by single-request and batch routing.
    fn count(&mut self, decision: &RoutingDecision) {
        self.requests += 1;
        self.shadow_copies += decision.shadows.len() as u64;
        if decision.from_sticky_session {
            self.sticky_hits += 1;
        }
    }

    /// Folds another set of counters into this one. Per-version counters
    /// aggregate into the same `BTreeMap` (`VersionId`-ordered) regardless
    /// of the order sets are merged in.
    pub fn merge(&mut self, other: &ProxyStats) {
        self.requests += other.requests;
        self.shadow_copies += other.shadow_copies;
        self.config_updates += other.config_updates;
        self.sticky_hits += other.sticky_hits;
        for (version, count) in &other.per_version {
            *self.per_version.entry(*version).or_insert(0) += count;
        }
    }
}

/// The split rule of a configuration, pre-resolved for the per-request hot
/// path (no rule scanning, no `TrafficSplit` cloning per request).
#[derive(Debug, Clone)]
struct CompiledSplit {
    split: TrafficSplit,
    /// The split's versions in declaration order (header routing indexes
    /// into this).
    versions: Vec<VersionId>,
    sticky: bool,
    selector: UserSelector,
    mode: RoutingMode,
}

/// A [`ProxyConfig`] compiled once per configuration push, so routing a
/// request — and especially routing a *batch* of requests — performs no
/// per-request config lookups.
#[derive(Debug, Clone)]
struct CompiledRules {
    default_version: VersionId,
    split: Option<CompiledSplit>,
    shadows: Vec<DarkLaunchRoute>,
}

impl CompiledRules {
    fn compile(config: &ProxyConfig) -> Self {
        let split = config.split_rule().and_then(|rule| match rule {
            ProxyRule::Split {
                split,
                sticky,
                selector,
                mode,
            } => Some(CompiledSplit {
                versions: split.versions().collect(),
                split: split.clone(),
                sticky: *sticky,
                selector: selector.clone(),
                mode: *mode,
            }),
            ProxyRule::Shadow { .. } => None,
        });
        let shadows = config
            .shadow_rules()
            .filter_map(|rule| match rule {
                ProxyRule::Shadow { route } => Some(*route),
                ProxyRule::Split { .. } => None,
            })
            .collect();
        Self {
            default_version: config.default_version(),
            split,
            shadows,
        }
    }
}

/// The proxy's token generator, locked on the first mint and then held for
/// the rest of one routing call, so a batch takes the lock at most once and
/// a batch without anonymous clients never takes it. Tokens are minted in
/// arrival order, which keeps batch decisions identical to one-by-one
/// routing. Lock order: generator, then session shard.
struct LazyTokens<'a> {
    source: &'a Mutex<TokenGenerator>,
    guard: Option<MutexGuard<'a, TokenGenerator>>,
}

impl<'a> LazyTokens<'a> {
    fn new(source: &'a Mutex<TokenGenerator>) -> Self {
        Self {
            source,
            guard: None,
        }
    }

    fn mint(&mut self) -> SessionToken {
        self.guard
            .get_or_insert_with(|| self.source.lock())
            .next_token()
    }
}

/// A Bifrost proxy instance fronting one service.
#[derive(Debug)]
pub struct BifrostProxy {
    name: String,
    config: ProxyConfig,
    compiled: CompiledRules,
    sessions: SessionStore,
    tokens: Mutex<TokenGenerator>,
    overhead: OverheadModel,
    stats: Mutex<ProxyStats>,
}

impl BifrostProxy {
    /// Creates a proxy with the given initial configuration and the default
    /// session-shard count.
    pub fn new(name: impl Into<String>, config: ProxyConfig) -> Self {
        let name = name.into();
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        Self {
            name,
            compiled: CompiledRules::compile(&config),
            config,
            sessions: SessionStore::new(),
            tokens: Mutex::new(TokenGenerator::seeded(seed)),
            overhead: OverheadModel::default(),
            stats: Mutex::default(),
        }
    }

    /// Overrides the overhead model (builder style).
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Overrides the session-store shard count (builder style). Only valid
    /// before routing starts: the store is rebuilt empty.
    pub fn with_session_shards(mut self, shards: usize) -> Self {
        self.sessions = SessionStore::with_shards(shards);
        self
    }

    /// The proxy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The active configuration.
    pub fn config(&self) -> &ProxyConfig {
        &self.config
    }

    /// The routing statistics accumulated so far.
    pub fn stats(&self) -> ProxyStats {
        self.stats.lock().clone()
    }

    /// The overhead model in use.
    pub fn overhead(&self) -> &OverheadModel {
        &self.overhead
    }

    /// Applies a new configuration pushed by the engine. Sticky-session
    /// bindings are cleared because the new state defines new buckets.
    pub fn apply_config(&mut self, config: ProxyConfig) {
        self.sessions.clear();
        self.compiled = CompiledRules::compile(&config);
        self.config = config;
        self.stats.get_mut().config_updates += 1;
    }

    /// Whether any strategy-driven rules are currently installed.
    pub fn is_active(&self) -> bool {
        !self.config.rules().is_empty()
    }

    /// Routes one request and returns the decision.
    pub fn route(&self, request: &ProxyRequest) -> RoutingDecision {
        self.route_user(request, None)
    }

    /// Routes one request with the full user object available for selector
    /// evaluation (e.g. country filters). Without it only percentage/All
    /// selectors can match.
    pub fn route_user(&self, request: &ProxyRequest, user: Option<&User>) -> RoutingDecision {
        let mut tokens = LazyTokens::new(&self.tokens);
        let decision = route_one(&self.compiled, &self.sessions, &mut tokens, request, user);
        self.stats.lock().tally(&decision);
        decision
    }

    /// Routes one request and returns the decision together with its CPU
    /// cost — one call for callers that apply both (the application
    /// simulation and the traffic pipeline).
    pub fn route_costed(&self, request: &ProxyRequest) -> (RoutingDecision, Duration) {
        let decision = self.route(request);
        let cost = self.processing_cost(&decision);
        (decision, cost)
    }

    /// Routes a batch of requests through the compiled configuration and
    /// returns one `(decision, CPU cost)` pair per request, in order.
    ///
    /// This is the hot path of the request-level traffic simulation. The
    /// batch is routed in arrival order, so its decisions are exactly those
    /// of routing each request with [`Self::route_costed`]:
    ///
    /// - tokens for anonymous clients are minted inline, under a
    ///   token-generator lock taken at most once per batch;
    /// - a session shard is locked only for an actual lookup or bind, which
    ///   only anonymous clients under a sticky split perform;
    /// - counters are tallied locally, versions in a short vector, and
    ///   merged into the statistics mutex once per batch;
    /// - the CPU cost, which depends only on the configuration and the
    ///   number of shadow copies, is computed once per shadow-copy count.
    pub fn route_many_costed<'a, I>(&self, requests: I) -> Vec<(RoutingDecision, Duration)>
    where
        I: IntoIterator<Item = &'a ProxyRequest>,
    {
        let mut tokens = LazyTokens::new(&self.tokens);
        let mut tally = ProxyStats::default();
        let mut versions: Vec<(VersionId, u64)> = Vec::new();
        // Costs by shadow-copy count, filled on demand.
        let mut costs: Vec<Duration> = Vec::new();
        let routed = requests
            .into_iter()
            .map(|request| {
                let decision =
                    route_one(&self.compiled, &self.sessions, &mut tokens, request, None);
                tally.count(&decision);
                match versions.iter_mut().find(|(v, _)| *v == decision.primary) {
                    Some((_, count)) => *count += 1,
                    None => versions.push((decision.primary, 1)),
                }
                let shadows = decision.shadows.len();
                while costs.len() <= shadows {
                    costs.push(self.cost_with_shadows(costs.len()));
                }
                (decision, costs[shadows])
            })
            .collect();
        drop(tokens);
        for (version, count) in versions {
            *tally.per_version.entry(version).or_insert(0) += count;
        }
        self.stats.lock().merge(&tally);
        routed
    }

    /// The CPU demand of processing one request under the current
    /// configuration, given the routing decision produced for it.
    pub fn processing_cost(&self, decision: &RoutingDecision) -> Duration {
        self.cost_with_shadows(decision.shadows.len())
    }

    /// The CPU demand of one request with `shadow_copies` shadow copies
    /// under the current configuration.
    fn cost_with_shadows(&self, shadow_copies: usize) -> Duration {
        if !self.is_active() {
            return self.overhead.passthrough_cost();
        }
        let (mode, sticky) = match &self.compiled.split {
            Some(rule) => (rule.mode, rule.sticky),
            None => (RoutingMode::CookieBased, false),
        };
        self.overhead.request_cost(mode, sticky, shadow_copies)
    }

    /// Read access to the sticky-session table (for tests and dashboards).
    pub fn sessions(&self) -> &SessionStore {
        &self.sessions
    }
}

/// Routes one request against a compiled configuration, minting a token
/// from `tokens` only for an anonymous client that needs one.
fn route_one(
    compiled: &CompiledRules,
    sessions: &SessionStore,
    tokens: &mut LazyTokens<'_>,
    request: &ProxyRequest,
    user: Option<&User>,
) -> RoutingDecision {
    let mut decision = match &compiled.split {
        None => RoutingDecision::to(compiled.default_version),
        Some(rule) => {
            let selected = match (user, request.user) {
                (Some(user), _) => rule.selector.selects(user),
                (None, Some(user_id)) => rule.selector.selects(&User::new(user_id)),
                (None, None) => true,
            };
            if !selected {
                RoutingDecision::to(compiled.default_version)
            } else {
                match rule.mode {
                    RoutingMode::HeaderBased => route_by_header(compiled, rule, request),
                    RoutingMode::CookieBased => route_by_cookie(rule, sessions, tokens, request),
                }
            }
        }
    };

    if !compiled.shadows.is_empty() {
        // Percentage-based duplication: one draw per request, hashed from
        // the user/session identity so the same *clients* are consistently
        // duplicated. Anonymous requests reuse the cookie the split path
        // just minted, or mint a re-identification cookie here — never a
        // constant draw (a constant 0.0 used to shadow *every* anonymous
        // request regardless of the percentage). The hash is salted
        // differently than the split-bucketing draw: with the same draw for
        // both, "p% of the source's traffic" would silently become "the p%
        // of clients with the lowest bucket draw", which a split correlates
        // with the version assignment.
        let identity = match request.user {
            Some(user) => user.raw(),
            None => {
                let token = match request.session_token().or(decision.set_cookie) {
                    Some(token) => token,
                    None => {
                        // Cookieless anonymous client under a shadow-only
                        // config: set the cookie so return visits keep the
                        // same draw.
                        let token = tokens.mint();
                        decision.set_cookie = Some(token);
                        token
                    }
                };
                token.raw() as u64
            }
        };
        let draw = shadow_draw(identity);
        for route in &compiled.shadows {
            // Only traffic actually served by the route's source version is
            // duplicated. (Also matching the default version used to inflate
            // the shadow share: requests split onto *other* versions were
            // duplicated whenever the rule's source was the default.)
            if route.source == decision.primary && draw < route.percentage.fraction() {
                decision.shadows.push(ShadowCopy {
                    target: route.target,
                });
            }
        }
    }
    decision
}

fn route_by_header(
    compiled: &CompiledRules,
    rule: &CompiledSplit,
    request: &ProxyRequest,
) -> RoutingDecision {
    let versions = &rule.versions;
    let target = match request.group_header() {
        Some("A") | Some("a") => versions.first().copied(),
        Some("B") | Some("b") => versions.get(1).copied(),
        Some(other) => other
            .parse::<usize>()
            .ok()
            .and_then(|idx| versions.get(idx).copied()),
        None => None,
    };
    RoutingDecision::to(target.unwrap_or(compiled.default_version))
}

fn route_by_cookie(
    rule: &CompiledSplit,
    sessions: &SessionStore,
    tokens: &mut LazyTokens<'_>,
    request: &ProxyRequest,
) -> RoutingDecision {
    // An identified user is bucketed on their id, cookie or not: the draw
    // is stable for the life of the configuration, so there is nothing to
    // bind and no cookie to set. Bucketing them on a carried token would
    // re-draw them at every configuration change, moving canary users back
    // to stable when the canary grows.
    if let Some(user) = request.user {
        return RoutingDecision::to(rule.split.pick(user_draw(user)));
    }
    let carried = request.session_token();
    // A returning anonymous client with a bound session keeps its version.
    if let (true, Some(token)) = (rule.sticky, carried) {
        if let Some(version) = sessions.lookup(token) {
            let mut decision = RoutingDecision::to(version);
            decision.from_sticky_session = true;
            return decision;
        }
    }
    let token = carried.unwrap_or_else(|| tokens.mint());
    let version = rule.split.pick(token.bucket_draw());
    let mut decision = RoutingDecision::to(version);
    if rule.sticky {
        sessions.bind(token, version);
        decision.set_cookie = Some(token);
    } else if carried.is_none() {
        // Non-sticky cookie routing still sets the re-identification
        // cookie so that traffic shares stay consistent per client.
        decision.set_cookie = Some(token);
    }
    decision
}

/// Salt XORed into the identity for the dark-launch draw, decorrelating it
/// from the split-bucketing draw over the same identity.
const SHADOW_DRAW_SALT: u64 = 0x6C62_272E_07BB_0142;

/// Deterministically hashes a user id into `[0, 1)` for bucketing.
fn user_draw(user: UserId) -> f64 {
    hash::mix_unit(user.raw())
}

/// Deterministically hashes an identity into `[0, 1)` for the dark-launch
/// draw. Salted so it is decorrelated from [`user_draw`] /
/// [`SessionToken::bucket_draw`]: the same identity keeps a stable shadow
/// decision across requests, but whether a client is shadowed is
/// independent of which version the split bucketed it into.
fn shadow_draw(identity: u64) -> f64 {
    hash::mix_unit(identity ^ SHADOW_DRAW_SALT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost_core::ids::ServiceId;
    use bifrost_core::routing::{DarkLaunchRoute, Percentage, TrafficSplit};
    use bifrost_core::user::UserSelector;

    fn ids() -> (ServiceId, VersionId, VersionId) {
        (ServiceId::new(0), VersionId::new(0), VersionId::new(1))
    }

    fn canary_config(share: f64, sticky: bool, mode: RoutingMode) -> ProxyConfig {
        let (service, stable, canary) = ids();
        let split = TrafficSplit::canary(stable, canary, Percentage::new(share).unwrap()).unwrap();
        ProxyConfig::new(service, stable).with_rule(ProxyRule::split(
            split,
            sticky,
            UserSelector::All,
            mode,
        ))
    }

    #[test]
    fn inactive_proxy_forwards_to_default() {
        let (service, stable, _) = ids();
        let proxy = BifrostProxy::new("search-proxy", ProxyConfig::new(service, stable));
        assert!(!proxy.is_active());
        let decision = proxy.route(&ProxyRequest::from_user(UserId::new(1)));
        assert_eq!(decision.primary, stable);
        assert!(decision.shadows.is_empty());
        assert_eq!(
            proxy.processing_cost(&decision),
            proxy.overhead().passthrough_cost()
        );
        assert_eq!(proxy.stats().requests, 1);
        assert_eq!(proxy.name(), "search-proxy");
    }

    #[test]
    fn canary_split_approximates_share_over_users() {
        let proxy = BifrostProxy::new("p", canary_config(10.0, false, RoutingMode::CookieBased));
        let n = 20_000;
        let canary_hits = (0..n)
            .map(|i| proxy.route(&ProxyRequest::from_user(UserId::new(i))))
            .filter(|d| d.primary == VersionId::new(1))
            .count();
        let share = canary_hits as f64 / n as f64;
        assert!((share - 0.10).abs() < 0.01, "share {share}");
        assert_eq!(proxy.stats().requests, n);
        assert_eq!(
            proxy.stats().per_version[&VersionId::new(1)] as usize,
            canary_hits
        );
    }

    #[test]
    fn same_user_is_routed_consistently_without_sticky_sessions() {
        // Cookie-based bucketing hashes the user id, so repeated requests by
        // the same user land on the same version even without stickiness.
        let proxy = BifrostProxy::new("p", canary_config(50.0, false, RoutingMode::CookieBased));
        let first = proxy
            .route(&ProxyRequest::from_user(UserId::new(7)))
            .primary;
        for _ in 0..20 {
            assert_eq!(
                proxy
                    .route(&ProxyRequest::from_user(UserId::new(7)))
                    .primary,
                first
            );
        }
    }

    #[test]
    fn sticky_sessions_pin_anonymous_clients_via_cookie() {
        let proxy = BifrostProxy::new("p", canary_config(50.0, true, RoutingMode::CookieBased));
        // First request: anonymous, gets a Set-Cookie.
        let first = proxy.route(&ProxyRequest::new());
        let token = first.set_cookie.expect("cookie must be set");
        // Subsequent requests with the cookie keep the version and hit the
        // session table.
        for _ in 0..10 {
            let followup = proxy.route(&ProxyRequest::new().with_session(token));
            assert_eq!(followup.primary, first.primary);
            assert!(followup.from_sticky_session);
        }
        assert_eq!(proxy.stats().sticky_hits, 10);
        assert_eq!(proxy.sessions().len(), 1);
    }

    #[test]
    fn config_update_clears_sessions_and_counts() {
        let mut proxy = BifrostProxy::new("p", canary_config(50.0, true, RoutingMode::CookieBased));
        let first = proxy.route(&ProxyRequest::new());
        assert_eq!(proxy.sessions().len(), 1);
        proxy.apply_config(canary_config(80.0, true, RoutingMode::CookieBased));
        assert_eq!(proxy.sessions().len(), 0);
        assert_eq!(proxy.stats().config_updates, 1);
        // The old cookie no longer binds.
        let rerouted = proxy.route(&ProxyRequest::new().with_session(first.set_cookie.unwrap()));
        assert!(!rerouted.from_sticky_session);
    }

    #[test]
    fn header_routing_uses_upstream_group_header() {
        let (_, stable, canary) = ids();
        let proxy = BifrostProxy::new("p", canary_config(50.0, false, RoutingMode::HeaderBased));
        let a = proxy.route(&ProxyRequest::new().with_header("x-bifrost-group", "A"));
        let b = proxy.route(&ProxyRequest::new().with_header("x-bifrost-group", "B"));
        let by_index = proxy.route(&ProxyRequest::new().with_header("x-bifrost-group", "1"));
        let missing = proxy.route(&ProxyRequest::new());
        let garbage = proxy.route(&ProxyRequest::new().with_header("x-bifrost-group", "zzz"));
        assert_eq!(a.primary, stable);
        assert_eq!(b.primary, canary);
        assert_eq!(by_index.primary, canary);
        assert_eq!(missing.primary, stable);
        assert_eq!(garbage.primary, stable);
    }

    #[test]
    fn selector_excludes_users_from_the_experiment() {
        let (service, stable, canary) = ids();
        let split = TrafficSplit::canary(stable, canary, Percentage::new(100.0).unwrap()).unwrap();
        let config = ProxyConfig::new(service, stable).with_rule(ProxyRule::split(
            split,
            false,
            UserSelector::attribute("country", "US"),
            RoutingMode::CookieBased,
        ));
        let proxy = BifrostProxy::new("p", config);
        let us_user = User::new(UserId::new(1)).with_attribute("country", "US");
        let eu_user = User::new(UserId::new(2)).with_attribute("country", "EU");
        let us = proxy.route_user(&ProxyRequest::from_user(UserId::new(1)), Some(&us_user));
        let eu = proxy.route_user(&ProxyRequest::from_user(UserId::new(2)), Some(&eu_user));
        assert_eq!(us.primary, canary);
        assert_eq!(eu.primary, stable);
    }

    #[test]
    fn dark_launch_duplicates_all_traffic_at_100_percent() {
        let (service, stable, canary) = ids();
        let config = ProxyConfig::new(service, stable).with_rule(ProxyRule::shadow(
            DarkLaunchRoute::new(stable, canary, Percentage::full()),
        ));
        let proxy = BifrostProxy::new("p", config);
        for i in 0..100 {
            let decision = proxy.route(&ProxyRequest::from_user(UserId::new(i)));
            assert_eq!(decision.primary, stable);
            assert_eq!(decision.shadows, vec![ShadowCopy { target: canary }]);
        }
        assert_eq!(proxy.stats().shadow_copies, 100);
    }

    #[test]
    fn partial_dark_launch_duplicates_roughly_the_configured_share() {
        let (service, stable, canary) = ids();
        let config = ProxyConfig::new(service, stable).with_rule(ProxyRule::shadow(
            DarkLaunchRoute::new(stable, canary, Percentage::new(25.0).unwrap()),
        ));
        let proxy = BifrostProxy::new("p", config);
        let n = 20_000;
        let shadowed = (0..n)
            .map(|i| proxy.route(&ProxyRequest::from_user(UserId::new(i))))
            .filter(|d| !d.shadows.is_empty())
            .count();
        let share = shadowed as f64 / n as f64;
        assert!((share - 0.25).abs() < 0.02, "share {share}");
    }

    #[test]
    fn processing_cost_reflects_mode_and_shadows() {
        let proxy = BifrostProxy::new("p", canary_config(50.0, true, RoutingMode::CookieBased));
        let decision = proxy.route(&ProxyRequest::from_user(UserId::new(3)));
        let base_cost = proxy.processing_cost(&decision);
        assert!(base_cost > proxy.overhead().passthrough_cost());

        let (service, stable, canary) = ids();
        let dark = ProxyConfig::new(service, stable).with_rule(ProxyRule::shadow(
            DarkLaunchRoute::new(stable, canary, Percentage::full()),
        ));
        let dark_proxy =
            BifrostProxy::new("p2", dark).with_overhead(OverheadModel::node_prototype());
        let decision = dark_proxy.route(&ProxyRequest::from_user(UserId::new(3)));
        assert!(dark_proxy.processing_cost(&decision) > base_cost);
    }

    #[test]
    fn shard_count_is_configurable_and_stats_stay_striped() {
        let proxy = BifrostProxy::new("p", canary_config(50.0, true, RoutingMode::CookieBased))
            .with_session_shards(16);
        assert_eq!(proxy.sessions().shard_count(), 16);
        for _ in 0..200 {
            proxy.route(&ProxyRequest::new());
        }
        assert_eq!(proxy.stats().requests, 200);
        assert_eq!(proxy.sessions().len(), 200);
    }
}
