//! Users, user attributes, populations, and the user selection function `η`.
//!
//! A user `uₖ ∈ U` connected to the system always uses exactly one version of
//! a service; the selection function `η : U → V` decides which one. Bifrost
//! is agnostic about how users are filtered — the model supports random
//! percentage sampling, attribute filters (e.g. "US users"), and combinations
//! thereof, which covers the selection approaches used by the paper's running
//! example and by Facebook's Configurator.

use crate::ids::UserId;
use crate::routing::Percentage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Deterministically maps a user id onto one of [`BUCKETS`] buckets using a
/// splitmix64-style finalizer. This mirrors hashing a sticky cookie.
fn stable_bucket(user: UserId) -> u64 {
    let mut z = user.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % BUCKETS
}

/// A population of users, used by the simulation substrate and by examples to
/// drive selection functions against realistic user bases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UserPopulation {
    users: Vec<User>,
}

impl UserPopulation {
    /// Creates an empty population.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates `count` synthetic users with a `country` attribute drawn
    /// from a fixed distribution (60 % US, 25 % EU, 15 % APAC), seeded for
    /// reproducibility.
    pub fn synthetic(count: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = (0..count)
            .map(|i| {
                let roll: f64 = rng.gen();
                let country = if roll < 0.60 {
                    "US"
                } else if roll < 0.85 {
                    "EU"
                } else {
                    "APAC"
                };
                User::new(UserId::new(i as u64)).with_attribute("country", country)
            })
            .collect();
        Self { users }
    }

    /// Adds a user to the population.
    pub fn push(&mut self, user: User) {
        self.users.push(user);
    }

    /// The users in the population.
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Returns the users selected by `selector`.
    pub fn select<'a>(&'a self, selector: &'a UserSelector) -> impl Iterator<Item = &'a User> {
        self.users.iter().filter(move |u| selector.selects(u))
    }

    /// Fraction of the population selected by `selector` (0.0–1.0).
    pub fn selected_fraction(&self, selector: &UserSelector) -> f64 {
        if self.users.is_empty() {
            return 0.0;
        }
        self.select(selector).count() as f64 / self.users.len() as f64
    }
}

impl FromIterator<User> for UserPopulation {
    fn from_iter<T: IntoIterator<Item = User>>(iter: T) -> Self {
        Self {
            users: iter.into_iter().collect(),
        }
    }
}

impl Extend<User> for UserPopulation {
    fn extend<T: IntoIterator<Item = User>>(&mut self, iter: T) {
        self.users.extend(iter);
    }
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

    #[test]
    fn all_selector_matches_everyone() {
        let pop = UserPopulation::synthetic(100, 7);
        assert_eq!(pop.selected_fraction(&UserSelector::All), 1.0);
    }

    #[test]
    fn attribute_selector_filters() {
        let pop = UserPopulation::synthetic(2_000, 7);
        let us = pop.selected_fraction(&UserSelector::attribute("country", "US"));
        // 60 % +- sampling noise
        assert!(us > 0.5 && us < 0.7, "us fraction {us}");
    }

    #[test]
    fn percentage_selector_is_deterministic_and_close() {
        let pop = UserPopulation::synthetic(20_000, 3);
        let selector = UserSelector::percentage(Percentage::new(5.0).unwrap());
        let f1 = pop.selected_fraction(&selector);
        let f2 = pop.selected_fraction(&selector);
        assert_eq!(f1, f2, "selection must be deterministic");
        assert!((f1 - 0.05).abs() < 0.01, "fraction {f1} not near 5%");
    }

    #[test]
    fn percentage_selector_membership_is_monotone_in_percentage() {
        // A user selected at 5% must also be selected at 20%: this is the
        // property that makes gradual rollouts only ever *add* users.
        let pop = UserPopulation::synthetic(5_000, 11);
        let small = UserSelector::percentage(Percentage::new(5.0).unwrap());
        let large = UserSelector::percentage(Percentage::new(20.0).unwrap());
        for user in pop.users() {
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
    fn population_collects_and_extends() {
        let mut pop: UserPopulation = (0..3).map(|i| User::new(UserId::new(i))).collect();
        pop.extend(vec![User::new(UserId::new(3))]);
        assert_eq!(pop.len(), 4);
        assert!(!pop.is_empty());
    }

    #[test]
    fn empty_population_fraction_is_zero() {
        let pop = UserPopulation::new();
        assert_eq!(pop.selected_fraction(&UserSelector::All), 0.0);
    }
}
