//! Requests as the proxy sees them, and the routing decisions it produces.

use crate::session::SessionToken;
use bifrost_core::ids::{UserId, VersionId};
use std::collections::BTreeMap;

/// Name of the cookie the proxy uses to re-identify clients.
pub const SESSION_COOKIE: &str = "bifrost-session";
/// Name of the header consulted for header-based routing (injected upstream,
/// e.g. by the login/auth service).
pub const GROUP_HEADER: &str = "x-bifrost-group";

/// A request as it arrives at a Bifrost proxy: the (simulated) client's user
/// id, its session token, other cookies, and selected headers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProxyRequest {
    /// The authenticated user issuing the request, if known.
    pub user: Option<UserId>,
    /// The session token carried in the [`SESSION_COOKIE`], parsed once when
    /// the request is built.
    pub session: Option<SessionToken>,
    /// Cookies sent by the client, other than the session cookie.
    pub cookies: BTreeMap<String, String>,
    /// Request headers relevant to routing.
    pub headers: BTreeMap<String, String>,
    /// Approximate request payload size in bytes (used by the simulation's
    /// latency model, not by routing).
    pub payload_bytes: usize,
}

impl ProxyRequest {
    /// Creates an empty (anonymous) request.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a request from an authenticated user.
    pub fn from_user(user: UserId) -> Self {
        Self {
            user: Some(user),
            ..Self::default()
        }
    }

    /// Adds the session cookie (builder style).
    pub fn with_session(mut self, token: SessionToken) -> Self {
        self.session = Some(token);
        self
    }

    /// Adds an arbitrary cookie (builder style). A [`SESSION_COOKIE`] value
    /// is parsed into [`Self::session`] here; a malformed one leaves the
    /// request without a session (the proxy then treats it as new).
    pub fn with_cookie(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        let name = name.into();
        let value = value.into();
        if name == SESSION_COOKIE {
            self.session = parse_token(&value);
        } else {
            self.cookies.insert(name, value);
        }
        self
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.insert(name.into(), value.into());
        self
    }

    /// Sets the payload size (builder style).
    pub fn with_payload_bytes(mut self, bytes: usize) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// The routing-group header value, if present.
    pub fn group_header(&self) -> Option<&str> {
        self.headers.get(GROUP_HEADER).map(String::as_str)
    }

    /// The session token carried by the request, if a valid session cookie is
    /// present.
    pub fn session_token(&self) -> Option<SessionToken> {
        self.session
    }
}

/// Parses the canonical UUID rendering produced by
/// [`SessionToken::to_string`] back into a token. Returns `None` for
/// malformed cookies.
fn parse_token(raw: &str) -> Option<SessionToken> {
    let hex: String = raw.chars().filter(|c| *c != '-').collect();
    if hex.len() != 32 {
        return None;
    }
    u128::from_str_radix(&hex, 16)
        .ok()
        .map(SessionToken::from_raw)
}

/// A duplicated ("shadowed") copy of the request produced by a dark-launch
/// route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowCopy {
    /// The version receiving the duplicated traffic.
    pub target: VersionId,
}

/// The outcome of the proxy's per-request decision process.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingDecision {
    /// The version serving the client-visible response.
    pub primary: VersionId,
    /// Shadow copies to be sent to dark-launched versions (responses
    /// discarded).
    pub shadows: Vec<ShadowCopy>,
    /// A cookie the proxy sets on the response (`Set-Cookie`), if any.
    pub set_cookie: Option<SessionToken>,
    /// Whether the decision was served from the sticky-session table.
    pub from_sticky_session: bool,
}

impl RoutingDecision {
    /// A decision routing to `primary` with no shadows and no cookie.
    pub fn to(primary: VersionId) -> Self {
        Self {
            primary,
            shadows: Vec::new(),
            set_cookie: None,
            from_sticky_session: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TokenGenerator;

    #[test]
    fn request_builders() {
        let request = ProxyRequest::from_user(UserId::new(4))
            .with_cookie("theme", "dark")
            .with_header(GROUP_HEADER, "B")
            .with_payload_bytes(512);
        assert_eq!(request.user, Some(UserId::new(4)));
        assert_eq!(request.group_header(), Some("B"));
        assert_eq!(request.payload_bytes, 512);
        assert!(request.session_token().is_none());
        assert!(ProxyRequest::new().user.is_none());
    }

    #[test]
    fn session_token_roundtrips_through_cookie() {
        let mut generator = TokenGenerator::seeded(9);
        let token = generator.next_token();
        let request = ProxyRequest::new().with_session(token);
        assert_eq!(request.session_token(), Some(token));
        let request = ProxyRequest::new().with_cookie(SESSION_COOKIE, token.to_string());
        assert_eq!(request.session_token(), Some(token));
    }

    #[test]
    fn malformed_cookies_are_ignored() {
        let request = ProxyRequest::new().with_cookie(SESSION_COOKIE, "not-a-uuid");
        assert!(request.session_token().is_none());
        let request = ProxyRequest::new().with_cookie(SESSION_COOKIE, "1234");
        assert!(request.session_token().is_none());
    }

    #[test]
    fn decision_constructor() {
        let d = RoutingDecision::to(VersionId::new(3));
        assert_eq!(d.primary, VersionId::new(3));
        assert!(d.shadows.is_empty());
        assert!(d.set_cookie.is_none());
        assert!(!d.from_sticky_session);
    }
}
