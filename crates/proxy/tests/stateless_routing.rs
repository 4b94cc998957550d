//! Store-free equivalence: every routing decision is a pure function of the
//! active configuration and the client's identity.
//!
//! The reference router below uses only public pieces — the configuration's
//! rules, [`TrafficSplit::pick`], the user-id draw ([`mix_unit`]),
//! [`SessionToken::bucket_draw`] and the salted dark-launch draw — and the
//! identity precedence user id > carried token > the cookie the proxy sets.
//! It never consults the session table. `BifrostProxy` must produce the
//! same `primary` and `shadows` through both `route` and
//! `route_many_costed`, over random configurations, configuration changes
//! mid-stream, and clients that send their cookies back.

use bifrost_core::hash::mix_unit;
use bifrost_core::ids::{ServiceId, UserId, VersionId};
use bifrost_core::routing::{DarkLaunchRoute, Percentage, RoutingMode, TrafficSplit};
use bifrost_core::user::{User, UserSelector};
use bifrost_proxy::{
    BifrostProxy, ProxyConfig, ProxyRequest, ProxyRule, RoutingDecision, SessionToken, ShadowCopy,
    TokenGenerator,
};
use bifrost_simnet::SimRng;
use proptest::prelude::*;

/// The salt the proxy XORs into an identity for the dark-launch draw.
const SHADOW_DRAW_SALT: u64 = 0x6C62_272E_07BB_0142;

const VERSIONS: u64 = 3;

fn version(rng: &mut SimRng) -> VersionId {
    VersionId::new(rng.index(VERSIONS as usize) as u64)
}

fn percentage(rng: &mut SimRng) -> Percentage {
    Percentage::new(rng.index(101) as f64).unwrap()
}

/// A random configuration: an optional cookie-routed split over one to
/// three versions (integer shares summing to 100), sticky or not, behind a
/// random selector, plus up to two dark-launch rules.
fn random_config(rng: &mut SimRng, revision: u64) -> ProxyConfig {
    let mut config = ProxyConfig::new(ServiceId::new(0), VersionId::new(0)).with_revision(revision);
    if rng.chance(0.8) {
        let count = 1 + rng.index(VERSIONS as usize);
        let mut left = 100;
        let shares = (0..count as u64)
            .map(|v| {
                let share = if v + 1 == count as u64 {
                    left
                } else {
                    rng.index(left + 1)
                };
                left -= share;
                (VersionId::new(v), Percentage::new(share as f64).unwrap())
            })
            .collect();
        let selector = match rng.index(4) {
            0 => UserSelector::All,
            1 => UserSelector::percentage(percentage(rng)),
            2 => UserSelector::Not(Box::new(UserSelector::percentage(percentage(rng)))),
            _ => UserSelector::attribute("country", "US"),
        };
        config = config.with_rule(ProxyRule::split(
            TrafficSplit::new(shares).unwrap(),
            rng.chance(0.5),
            selector,
            RoutingMode::CookieBased,
        ));
    }
    for _ in 0..rng.index(3) {
        let route = DarkLaunchRoute::new(version(rng), version(rng), percentage(rng));
        config = config.with_rule(ProxyRule::shadow(route));
    }
    config
}

/// The reference decision for `request` under `config`. `set_cookie` is the
/// token the proxy minted for an anonymous client, the only input the
/// reference cannot compute itself.
fn reference(
    config: &ProxyConfig,
    request: &ProxyRequest,
    set_cookie: Option<SessionToken>,
) -> (VersionId, Vec<ShadowCopy>) {
    let token = || {
        request
            .session_token()
            .or(set_cookie)
            .expect("an anonymous client routed on its identity is sent a cookie")
    };
    let primary = match config.split_rule() {
        Some(ProxyRule::Split {
            split, selector, ..
        }) if request
            .user
            .is_none_or(|user| selector.selects(&User::new(user))) =>
        {
            let draw = match request.user {
                Some(user) => mix_unit(user.raw()),
                None => token().bucket_draw(),
            };
            split.pick(draw)
        }
        _ => config.default_version(),
    };
    let mut shadows = Vec::new();
    if config.has_dark_launch() {
        let identity = match request.user {
            Some(user) => user.raw(),
            None => token().raw() as u64,
        };
        let draw = mix_unit(identity ^ SHADOW_DRAW_SALT);
        for rule in config.shadow_rules() {
            if let ProxyRule::Shadow { route } = rule {
                if route.source == primary && draw < route.percentage.fraction() {
                    shadows.push(ShadowCopy {
                        target: route.target,
                    });
                }
            }
        }
    }
    (primary, shadows)
}

fn check(
    config: &ProxyConfig,
    request: &ProxyRequest,
    decision: &RoutingDecision,
) -> Result<(), TestCaseError> {
    let (primary, shadows) = reference(config, request, decision.set_cookie);
    prop_assert!(
        decision.primary == primary && decision.shadows == shadows,
        "{request:?}: proxy {:?} {:?}, reference {primary:?} {shadows:?}",
        decision.primary,
        decision.shadows
    );
    if request.user.is_some() {
        prop_assert!(decision.set_cookie.is_none(), "identified user cookied");
        prop_assert!(!decision.from_sticky_session, "identified user looked up");
    }
    Ok(())
}

/// A random client: anonymous or identified, and either cookieless or
/// carrying a token — mostly one the proxy set earlier (possibly under an
/// earlier configuration), sometimes one it never issued.
fn random_request(
    rng: &mut SimRng,
    issued: &[SessionToken],
    foreign: &mut TokenGenerator,
) -> ProxyRequest {
    let request = if rng.chance(0.5) {
        ProxyRequest::new()
    } else {
        ProxyRequest::from_user(UserId::new(rng.index(200) as u64))
    };
    if rng.chance(0.4) {
        return request;
    }
    let token = if !issued.is_empty() && rng.chance(0.8) {
        issued[rng.index(issued.len())]
    } else {
        foreign.next_token()
    };
    request.with_session(token)
}

proptest! {
    #[test]
    fn proxy_routing_matches_the_store_free_reference(seed in 0u64..=u64::MAX) {
        let mut rng = SimRng::seeded(seed);
        let mut config = random_config(&mut rng, 0);
        let mut serial = BifrostProxy::new("same-seed", config.clone());
        let mut batched = BifrostProxy::new("same-seed", config.clone());
        let mut issued: Vec<SessionToken> = Vec::new();
        let mut foreign = TokenGenerator::seeded(!seed);
        for segment in 0..4u64 {
            if segment > 0 {
                config = random_config(&mut rng, segment);
                serial.apply_config(config.clone());
                batched.apply_config(config.clone());
            }
            let mut requests = Vec::new();
            for _ in 0..150 {
                let request = random_request(&mut rng, &issued, &mut foreign);
                let decision = serial.route(&request);
                check(&config, &request, &decision)?;
                issued.extend(decision.set_cookie);
                requests.push(request);
            }
            let mut rest = &requests[..];
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(1 + rng.index(rest.len().min(64)));
                for (request, (decision, _)) in batch.iter().zip(batched.route_many_costed(batch)) {
                    check(&config, request, &decision)?;
                }
                rest = tail;
            }
        }
        prop_assert_eq!(serial.stats(), batched.stats());
    }
}
