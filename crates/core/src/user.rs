//! Users, user attributes, and the user selection function `η`.
//!
//! A user `uₖ ∈ U` connected to the system always uses exactly one version of
//! a service; the selection function `η : U → V` decides which one. Bifrost
//! is agnostic about how users are filtered — the model supports random
//! percentage sampling, attribute filters (e.g. "US users"), and combinations
//! thereof, which covers the selection approaches used by the paper's running
//! example and by Facebook's Configurator.

use crate::hash;
use crate::ids::UserId;
use crate::routing::Percentage;
use std::collections::BTreeMap;

/// A single attribute of a user (e.g. `country = "US"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UserAttribute {
    key: String,
    value: String,
}

impl UserAttribute {
    /// Creates an attribute.
    pub fn new(key: impl Into<String>, value: impl Into<String>) -> Self {
        Self {
            key: key.into(),
            value: value.into(),
        }
    }

    /// The attribute key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The attribute value.
    pub fn value(&self) -> &str {
        &self.value
    }
}

/// A user of the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct User {
    id: UserId,
    attributes: BTreeMap<String, String>,
}

impl User {
    /// Creates a user with no attributes.
    pub fn new(id: UserId) -> Self {
        Self {
            id,
            attributes: BTreeMap::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.insert(key.into(), value.into());
        self
    }

    /// The user id.
    pub fn id(&self) -> UserId {
        self.id
    }

    /// Returns the value of an attribute, if present.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes.get(key).map(String::as_str)
    }

    /// All attributes of the user.
    pub fn attributes(&self) -> &BTreeMap<String, String> {
        &self.attributes
    }

    /// Whether the user matches the given attribute.
    pub fn matches(&self, attribute: &UserAttribute) -> bool {
        self.attribute(attribute.key()) == Some(attribute.value())
    }
}

/// The user selection function `η`: decides which users a routing rule
/// applies to.
///
/// Selectors compose: [`UserSelector::All`] matches everyone,
/// [`UserSelector::Attribute`] filters on a user attribute,
/// [`UserSelector::Percentage`] deterministically samples a fraction of the
/// population by hashing the user id (so the same user is consistently in or
/// out of the sample), and [`UserSelector::And`] intersects selectors (e.g.
/// "1 % of the US users").
#[derive(Debug, Clone, PartialEq)]
pub enum UserSelector {
    /// Matches every user.
    All,
    /// Matches users having the given attribute value.
    Attribute(UserAttribute),
    /// Matches a deterministic pseudo-random sample of the given size.
    Percentage(Percentage),
    /// Matches users that satisfy **all** nested selectors.
    And(Vec<UserSelector>),
    /// Matches users that satisfy **at least one** nested selector.
    Or(Vec<UserSelector>),
    /// Matches users that do **not** satisfy the nested selector.
    Not(Box<UserSelector>),
}

impl UserSelector {
    /// Convenience constructor for an attribute selector.
    pub fn attribute(key: impl Into<String>, value: impl Into<String>) -> Self {
        Self::Attribute(UserAttribute::new(key, value))
    }

    /// Convenience constructor for a percentage selector.
    pub fn percentage(p: Percentage) -> Self {
        Self::Percentage(p)
    }

    /// Evaluates the selector against a user.
    ///
    /// The percentage selector hashes the user id with a stable hash, so the
    /// decision is deterministic per user and independent of evaluation
    /// order — the property required for consistent canary group membership.
    pub fn selects(&self, user: &User) -> bool {
        match self {
            UserSelector::All => true,
            UserSelector::Attribute(attr) => user.matches(attr),
            UserSelector::Percentage(p) => {
                let bucket = stable_bucket(user.id());
                (bucket as f64) < p.value() / 100.0 * BUCKETS as f64
            }
            UserSelector::And(selectors) => selectors.iter().all(|s| s.selects(user)),
            UserSelector::Or(selectors) => selectors.iter().any(|s| s.selects(user)),
            UserSelector::Not(selector) => !selector.selects(user),
        }
    }
}

const BUCKETS: u64 = 10_000;

/// Deterministically maps a user id onto one of [`BUCKETS`] buckets with
/// the splitmix64 finalizer. This mirrors hashing a sticky cookie.
fn stable_bucket(user: UserId) -> u64 {
    hash::mix64(user.raw().wrapping_add(hash::GOLDEN_GAMMA)) % BUCKETS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_attributes() {
        let user = User::new(UserId::new(1))
            .with_attribute("country", "US")
            .with_attribute("plan", "pro");
        assert_eq!(user.attribute("country"), Some("US"));
        assert_eq!(user.attribute("missing"), None);
        assert!(user.matches(&UserAttribute::new("plan", "pro")));
        assert!(!user.matches(&UserAttribute::new("plan", "free")));
        assert_eq!(user.attributes().len(), 2);
    }

    /// `count` users with a `country` attribute drawn from a fixed
    /// distribution (60 % US, 25 % EU, 15 % APAC), seeded for
    /// reproducibility.
    fn synthetic_users(count: usize, seed: u64) -> Vec<User> {
        let mut state = seed;
        (0..count)
            .map(|i| {
                let roll = (hash::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                let country = if roll < 0.60 {
                    "US"
                } else if roll < 0.85 {
                    "EU"
                } else {
                    "APAC"
                };
                User::new(UserId::new(i as u64)).with_attribute("country", country)
            })
            .collect()
    }

    /// Fraction of `users` selected by `selector`.
    fn selected_fraction(users: &[User], selector: &UserSelector) -> f64 {
        users.iter().filter(|u| selector.selects(u)).count() as f64 / users.len() as f64
    }

    #[test]
    fn all_selector_matches_everyone() {
        let users = synthetic_users(100, 7);
        assert_eq!(selected_fraction(&users, &UserSelector::All), 1.0);
    }

    #[test]
    fn attribute_selector_filters() {
        let users = synthetic_users(2_000, 7);
        let us = selected_fraction(&users, &UserSelector::attribute("country", "US"));
        // 60 % +- sampling noise
        assert!(us > 0.5 && us < 0.7, "us fraction {us}");
    }

    #[test]
    fn percentage_selector_is_deterministic_and_close() {
        let users = synthetic_users(20_000, 3);
        let selector = UserSelector::percentage(Percentage::new(5.0).unwrap());
        let f1 = selected_fraction(&users, &selector);
        let f2 = selected_fraction(&users, &selector);
        assert_eq!(f1, f2, "selection must be deterministic");
        assert!((f1 - 0.05).abs() < 0.01, "fraction {f1} not near 5%");
    }

    #[test]
    fn percentage_selector_membership_is_monotone_in_percentage() {
        // A user selected at 5% must also be selected at 20%: this is the
        // property that makes gradual rollouts only ever *add* users.
        let users = synthetic_users(5_000, 11);
        let small = UserSelector::percentage(Percentage::new(5.0).unwrap());
        let large = UserSelector::percentage(Percentage::new(20.0).unwrap());
        for user in &users {
            if small.selects(user) {
                assert!(
                    large.selects(user),
                    "user {} lost during rollout",
                    user.id()
                );
            }
        }
    }

    #[test]
    fn and_or_not_compose() {
        let user_us = User::new(UserId::new(1)).with_attribute("country", "US");
        let user_eu = User::new(UserId::new(2)).with_attribute("country", "EU");

        let us = UserSelector::attribute("country", "US");
        let not_us = UserSelector::Not(Box::new(us.clone()));
        assert!(us.selects(&user_us));
        assert!(!us.selects(&user_eu));
        assert!(not_us.selects(&user_eu));

        let both = UserSelector::And(vec![UserSelector::All, us.clone()]);
        assert!(both.selects(&user_us));
        assert!(!both.selects(&user_eu));

        let either = UserSelector::Or(vec![us, UserSelector::attribute("country", "EU")]);
        assert!(either.selects(&user_us));
        assert!(either.selects(&user_eu));
    }

    #[test]
    fn percentage_membership_is_pinned() {
        // Which of user ids 0..10,000 a 5 % and a 20 % sample select
        // (count and id sum). Canary cohorts, and every seeded figure
        // built on them, must keep the same users across changes.
        for (percent, count, id_sum) in [(5.0, 510, 2_513_143), (20.0, 1_970, 9_768_668)] {
            let selector = UserSelector::percentage(Percentage::new(percent).unwrap());
            let selected: Vec<u64> = (0..10_000)
                .filter(|&id| selector.selects(&User::new(UserId::new(id))))
                .collect();
            assert_eq!(selected.len(), count, "{percent}%");
            assert_eq!(selected.iter().sum::<u64>(), id_sum, "{percent}%");
        }
    }
}
