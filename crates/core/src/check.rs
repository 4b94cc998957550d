//! Checks: the data-driven decision primitives executed inside a state.
//!
//! A check `cᵢ` couples a metric evaluating function `f_cᵢ : Ωᵢ → {0, 1}`
//! with the monitoring data it reads and a [`Timer`] controlling its timed
//! (re-)execution. The model distinguishes *basic checks* (evaluated once at
//! the end of the state, via thresholds and an output mapping) from
//! *exception checks* (any single failing execution immediately moves the
//! automaton to a fallback state).
//!
//! The model itself does not fetch metrics; it only carries the
//! [`MetricQuery`] descriptors and the [`Validator`] that turns a metric
//! value into a 0/1 result. Fetching is the engine's job (via
//! `bifrost-metrics` providers).

use crate::error::ModelError;
use crate::ids::{CheckId, StateId};
use crate::outcome::OutcomeMapping;
use crate::timer::Timer;
use std::collections::BTreeMap;
use std::fmt;

/// A comparison applied to a scalar metric value, e.g. `"< 5"` in the DSL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Validator {
    /// Metric must be strictly less than the bound.
    LessThan(f64),
    /// Metric must be less than or equal to the bound.
    LessOrEqual(f64),
    /// Metric must be strictly greater than the bound.
    GreaterThan(f64),
    /// Metric must be greater than or equal to the bound.
    GreaterOrEqual(f64),
    /// Metric must equal the bound within the given absolute tolerance.
    Equals {
        /// The expected value.
        value: f64,
        /// Allowed absolute deviation.
        tolerance: f64,
    },
    /// Metric must lie within the inclusive range.
    Between(f64, f64),
}

impl Validator {
    /// Evaluates the validator against a metric value, yielding the 0/1
    /// result of a single check execution.
    pub fn evaluate(&self, value: f64) -> bool {
        match *self {
            Validator::LessThan(bound) => value < bound,
            Validator::LessOrEqual(bound) => value <= bound,
            Validator::GreaterThan(bound) => value > bound,
            Validator::GreaterOrEqual(bound) => value >= bound,
            Validator::Equals {
                value: expected,
                tolerance,
            } => (value - expected).abs() <= tolerance,
            Validator::Between(lo, hi) => value >= lo && value <= hi,
        }
    }

    /// Parses the compact DSL syntax (`"<150"`, `">= 3"`, `"=0"`, …).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Validation`] if the expression cannot be parsed.
    pub fn parse(expr: &str) -> Result<Self, ModelError> {
        let expr = expr.trim();
        let (op, rest) = if let Some(rest) = expr.strip_prefix("<=") {
            ("<=", rest)
        } else if let Some(rest) = expr.strip_prefix(">=") {
            (">=", rest)
        } else if let Some(rest) = expr.strip_prefix("==") {
            ("==", rest)
        } else if let Some(rest) = expr.strip_prefix('<') {
            ("<", rest)
        } else if let Some(rest) = expr.strip_prefix('>') {
            (">", rest)
        } else if let Some(rest) = expr.strip_prefix('=') {
            ("=", rest)
        } else {
            return Err(ModelError::Validation(format!(
                "validator '{expr}' must start with <, <=, >, >=, = or =="
            )));
        };
        let value: f64 = rest.trim().parse().map_err(|_| {
            ModelError::Validation(format!("validator '{expr}' has a non-numeric bound"))
        })?;
        Ok(match op {
            "<" => Validator::LessThan(value),
            "<=" => Validator::LessOrEqual(value),
            ">" => Validator::GreaterThan(value),
            ">=" => Validator::GreaterOrEqual(value),
            _ => Validator::Equals {
                value,
                tolerance: 1e-9,
            },
        })
    }
}

impl fmt::Display for Validator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Validator::LessThan(b) => write!(f, "< {b}"),
            Validator::LessOrEqual(b) => write!(f, "<= {b}"),
            Validator::GreaterThan(b) => write!(f, "> {b}"),
            Validator::GreaterOrEqual(b) => write!(f, ">= {b}"),
            Validator::Equals { value, .. } => write!(f, "= {value}"),
            Validator::Between(lo, hi) => write!(f, "in [{lo}, {hi}]"),
        }
    }
}

/// How the samples fetched for a metric query are reduced to the scalar that
/// the [`Validator`] is applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueryAggregation {
    /// Use the most recent sample.
    #[default]
    Last,
    /// Average over the queried window.
    Mean,
    /// Sum over the queried window.
    Sum,
    /// Maximum over the queried window.
    Max,
    /// Minimum over the queried window.
    Min,
    /// Number of samples in the window.
    Count,
    /// Increase of a counter over the window (last − first, clamped at 0).
    Rate,
}

/// A named query against a metrics provider (`Ωᵢ ⊆ Ω` of a check), e.g. the
/// `request_errors{instance="search:80"}` Prometheus query of Listing 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricQuery {
    /// The provider to query (e.g. `"prometheus"`).
    provider: String,
    /// The name under which the fetched value is exposed to the validator
    /// (e.g. `"search_error"`).
    name: String,
    /// The metric/series name queried from the provider (e.g.
    /// `"request_errors"`).
    metric: String,
    /// Label selectors (e.g. `instance = "search:80"`).
    labels: BTreeMap<String, String>,
    /// How the fetched window is reduced to a scalar.
    aggregation: QueryAggregation,
    /// The look-back window in seconds (0 = only the latest sample).
    window_secs: u64,
}

impl MetricQuery {
    /// Creates a query for `metric` against `provider`, exposed as `name`.
    pub fn new(
        provider: impl Into<String>,
        name: impl Into<String>,
        metric: impl Into<String>,
    ) -> Self {
        Self {
            provider: provider.into(),
            name: name.into(),
            metric: metric.into(),
            labels: BTreeMap::new(),
            aggregation: QueryAggregation::default(),
            window_secs: 0,
        }
    }

    /// Adds a label selector (builder style).
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.insert(key.into(), value.into());
        self
    }

    /// Sets the aggregation (builder style).
    pub fn with_aggregation(mut self, aggregation: QueryAggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Sets the look-back window in seconds (builder style).
    pub fn with_window_secs(mut self, window_secs: u64) -> Self {
        self.window_secs = window_secs;
        self
    }

    /// The provider name.
    pub fn provider(&self) -> &str {
        &self.provider
    }

    /// The exposed name of the query result.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The metric/series name.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// The label selectors.
    pub fn labels(&self) -> &BTreeMap<String, String> {
        &self.labels
    }

    /// The aggregation applied to the fetched window.
    pub fn aggregation(&self) -> QueryAggregation {
        self.aggregation
    }

    /// The look-back window in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }
}

/// The evaluation specification of a check: which metrics to fetch and how to
/// turn them into a 0/1 result.
///
/// The common case ties one query to one validator, but a check may fetch
/// several metrics and require all (or any) of the validators to pass, which
/// covers cross-version comparisons used for A/B test evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSpec {
    queries: Vec<(MetricQuery, Validator)>,
    require_all: bool,
}

impl CheckSpec {
    /// A spec with a single metric query and validator.
    pub fn single(query: MetricQuery, validator: Validator) -> Self {
        Self {
            queries: vec![(query, validator)],
            require_all: true,
        }
    }

    /// A spec whose execution succeeds only if **all** validators pass.
    pub fn all_of(queries: Vec<(MetricQuery, Validator)>) -> Self {
        Self {
            queries,
            require_all: true,
        }
    }

    /// A spec whose execution succeeds if **any** validator passes.
    pub fn any_of(queries: Vec<(MetricQuery, Validator)>) -> Self {
        Self {
            queries,
            require_all: false,
        }
    }

    /// The metric queries and their validators.
    pub fn queries(&self) -> &[(MetricQuery, Validator)] {
        &self.queries
    }

    /// Whether all validators must pass (vs any).
    pub fn requires_all(&self) -> bool {
        self.require_all
    }

    /// Evaluates the spec against already-fetched metric values, keyed by the
    /// query's exposed [`MetricQuery::name`]. Missing values count as a
    /// failing validator.
    pub fn evaluate(&self, values: &BTreeMap<String, f64>) -> bool {
        let mut results = self.queries.iter().map(|(query, validator)| {
            values
                .get(query.name())
                .map(|v| validator.evaluate(*v))
                .unwrap_or(false)
        });
        if self.require_all {
            results.all(|r| r)
        } else {
            results.any(|r| r)
        }
    }
}

/// Distinguishes basic from exception checks, carrying the kind-specific
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckKind {
    /// Basic check: the per-execution results are summed up at the end of
    /// the state and mapped through an output mapping.
    Basic(BasicCheck),
    /// Exception check: a single failing execution immediately transitions
    /// the automaton to the fallback state.
    Exception(ExceptionCheck),
}

/// Kind-specific configuration of a basic check.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicCheck {
    /// The output mapping applied to the aggregated execution sum.
    pub mapping: OutcomeMapping,
}

/// Kind-specific configuration of an exception check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExceptionCheck {
    /// The state the automaton falls back to when an execution fails.
    pub fallback: StateId,
}

/// A complete check `cᵢ`: spec (metric function), timer, and kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    id: CheckId,
    name: String,
    spec: CheckSpec,
    timer: Timer,
    kind: CheckKind,
}

impl Check {
    /// Creates a basic check.
    pub fn basic(
        id: CheckId,
        name: impl Into<String>,
        spec: CheckSpec,
        timer: Timer,
        mapping: OutcomeMapping,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            spec,
            timer,
            kind: CheckKind::Basic(BasicCheck { mapping }),
        }
    }

    /// Creates an exception check with the given fallback state.
    pub fn exception(
        id: CheckId,
        name: impl Into<String>,
        spec: CheckSpec,
        timer: Timer,
        fallback: StateId,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            spec,
            timer,
            kind: CheckKind::Exception(ExceptionCheck { fallback }),
        }
    }

    /// The check id.
    pub fn id(&self) -> CheckId {
        self.id
    }

    /// The human-readable check name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The evaluation spec.
    pub fn spec(&self) -> &CheckSpec {
        &self.spec
    }

    /// The timer controlling re-execution.
    pub fn timer(&self) -> &Timer {
        &self.timer
    }

    /// The check kind (basic vs exception).
    pub fn kind(&self) -> &CheckKind {
        &self.kind
    }

    /// Whether this is an exception check.
    pub fn is_exception(&self) -> bool {
        matches!(self.kind, CheckKind::Exception(_))
    }

    /// The fallback state if this is an exception check.
    pub fn fallback(&self) -> Option<StateId> {
        match &self.kind {
            CheckKind::Exception(e) => Some(e.fallback),
            CheckKind::Basic(_) => None,
        }
    }

    /// Maps the aggregated execution sum to the check's contribution to the
    /// state outcome. For basic checks this applies the output mapping; for
    /// exception checks the aggregated sum is used directly (the paper: "if
    /// all n function executions are successful, the aggregated outcome value
    /// of an exception check equals n").
    pub fn map_aggregate(&self, aggregated: i64) -> i64 {
        match &self.kind {
            CheckKind::Basic(basic) => basic.mapping.map(aggregated),
            CheckKind::Exception(_) => aggregated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::Thresholds;
    use std::time::Duration;

    fn timer() -> Timer {
        Timer::from_secs(5, 12).unwrap()
    }

    fn error_query() -> MetricQuery {
        MetricQuery::new("prometheus", "search_error", "request_errors")
            .with_label("instance", "search:80")
            .with_aggregation(QueryAggregation::Sum)
            .with_window_secs(60)
    }

    #[test]
    fn validator_evaluation() {
        assert!(Validator::LessThan(5.0).evaluate(4.9));
        assert!(!Validator::LessThan(5.0).evaluate(5.0));
        assert!(Validator::LessOrEqual(5.0).evaluate(5.0));
        assert!(Validator::GreaterThan(5.0).evaluate(5.1));
        assert!(Validator::GreaterOrEqual(5.0).evaluate(5.0));
        assert!(Validator::Equals {
            value: 3.0,
            tolerance: 0.01
        }
        .evaluate(3.005));
        assert!(!Validator::Equals {
            value: 3.0,
            tolerance: 0.01
        }
        .evaluate(3.5));
        assert!(Validator::Between(1.0, 2.0).evaluate(1.5));
        assert!(!Validator::Between(1.0, 2.0).evaluate(2.5));
    }

    #[test]
    fn validator_parse_dsl_syntax() {
        assert_eq!(Validator::parse("<5").unwrap(), Validator::LessThan(5.0));
        assert_eq!(
            Validator::parse("< 150").unwrap(),
            Validator::LessThan(150.0)
        );
        assert_eq!(
            Validator::parse(">=3").unwrap(),
            Validator::GreaterOrEqual(3.0)
        );
        assert_eq!(
            Validator::parse("<= 0.5").unwrap(),
            Validator::LessOrEqual(0.5)
        );
        assert_eq!(
            Validator::parse("> 10").unwrap(),
            Validator::GreaterThan(10.0)
        );
        assert!(matches!(
            Validator::parse("=0").unwrap(),
            Validator::Equals { .. }
        ));
        assert!(matches!(
            Validator::parse("== 7").unwrap(),
            Validator::Equals { .. }
        ));
        assert!(Validator::parse("~5").is_err());
        assert!(Validator::parse("<abc").is_err());
    }

    #[test]
    fn validator_display() {
        assert_eq!(Validator::LessThan(5.0).to_string(), "< 5");
        assert_eq!(Validator::Between(1.0, 2.0).to_string(), "in [1, 2]");
    }

    #[test]
    fn metric_query_builder() {
        let q = error_query();
        assert_eq!(q.provider(), "prometheus");
        assert_eq!(q.name(), "search_error");
        assert_eq!(q.metric(), "request_errors");
        assert_eq!(q.labels()["instance"], "search:80");
        assert_eq!(q.aggregation(), QueryAggregation::Sum);
        assert_eq!(q.window_secs(), 60);
    }

    #[test]
    fn check_spec_single_evaluation() {
        let spec = CheckSpec::single(error_query(), Validator::LessThan(5.0));
        let mut values = BTreeMap::new();
        values.insert("search_error".to_string(), 3.0);
        assert!(spec.evaluate(&values));
        values.insert("search_error".to_string(), 12.0);
        assert!(!spec.evaluate(&values));
    }

    #[test]
    fn check_spec_missing_metric_fails() {
        let spec = CheckSpec::single(error_query(), Validator::LessThan(5.0));
        assert!(!spec.evaluate(&BTreeMap::new()));
    }

    #[test]
    fn check_spec_all_vs_any() {
        let q1 = MetricQuery::new("prometheus", "a", "metric_a");
        let q2 = MetricQuery::new("prometheus", "b", "metric_b");
        let all = CheckSpec::all_of(vec![
            (q1.clone(), Validator::LessThan(5.0)),
            (q2.clone(), Validator::LessThan(5.0)),
        ]);
        let any = CheckSpec::any_of(vec![
            (q1, Validator::LessThan(5.0)),
            (q2, Validator::LessThan(5.0)),
        ]);
        let mut values = BTreeMap::new();
        values.insert("a".to_string(), 1.0);
        values.insert("b".to_string(), 10.0);
        assert!(!all.evaluate(&values));
        assert!(any.evaluate(&values));
        assert!(all.requires_all());
        assert!(!any.requires_all());
    }

    #[test]
    fn basic_check_maps_aggregate() {
        let mapping =
            OutcomeMapping::new(Thresholds::new(vec![75, 95]).unwrap(), vec![-5, 4, 5]).unwrap();
        let check = Check::basic(
            CheckId::new(0),
            "response-time",
            CheckSpec::single(error_query(), Validator::LessThan(150.0)),
            Timer::new(Duration::from_secs(600), 100).unwrap(),
            mapping,
        );
        assert!(!check.is_exception());
        assert_eq!(check.fallback(), None);
        assert_eq!(check.map_aggregate(100), 5);
        assert_eq!(check.map_aggregate(80), 4);
        assert_eq!(check.map_aggregate(10), -5);
        assert_eq!(check.name(), "response-time");
        assert_eq!(check.timer().repetitions(), 100);
        assert_eq!(check.spec().queries().len(), 1);
    }

    #[test]
    fn exception_check_reports_fallback_and_identity_mapping() {
        let check = Check::exception(
            CheckId::new(1),
            "error-spike",
            CheckSpec::single(error_query(), Validator::LessThan(100.0)),
            timer(),
            StateId::new(9),
        );
        assert!(check.is_exception());
        assert_eq!(check.fallback(), Some(StateId::new(9)));
        // Exception checks contribute their raw success count.
        assert_eq!(check.map_aggregate(12), 12);
        assert!(matches!(check.kind(), CheckKind::Exception(_)));
    }
}
