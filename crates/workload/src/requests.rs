//! The request types of the case-study workload and their mix.

use bifrost_simnet::SimRng;

/// The four request types of the JMeter test suite, each touching different
/// parts of the case-study application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestKind {
    /// `POST /products/{id}/buy`: writes to the database, empty response
    /// body.
    Buy,
    /// `GET /products/{id}`: reads one product, small response body.
    Details,
    /// `GET /products`: reads all products including buyers, large response
    /// body.
    Products,
    /// `GET /products/search?q=…`: product service calls the search service,
    /// small response body.
    Search,
}

impl RequestKind {
    /// All request kinds, in a stable order.
    pub const ALL: [RequestKind; 4] = [
        RequestKind::Buy,
        RequestKind::Details,
        RequestKind::Products,
        RequestKind::Search,
    ];

    /// A short name used in metrics labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Buy => "buy",
            RequestKind::Details => "details",
            RequestKind::Products => "products",
            RequestKind::Search => "search",
        }
    }

    /// Approximate request payload size in bytes.
    pub fn request_bytes(self) -> usize {
        match self {
            RequestKind::Buy => 512,
            RequestKind::Details => 128,
            RequestKind::Products => 128,
            RequestKind::Search => 196,
        }
    }

    /// Approximate response payload size in bytes.
    pub fn response_bytes(self) -> usize {
        match self {
            RequestKind::Buy => 64,
            RequestKind::Details => 2 * 1024,
            RequestKind::Products => 64 * 1024,
            RequestKind::Search => 4 * 1024,
        }
    }

    /// Whether the request writes to the database.
    pub fn is_write(self) -> bool {
        matches!(self, RequestKind::Buy)
    }

    /// Whether the request fans out to the search service.
    pub fn touches_search(self) -> bool {
        matches!(self, RequestKind::Search)
    }
}

/// A probability mix over request kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMix {
    weights: [(RequestKind, f64); 4],
}

impl Default for RequestMix {
    fn default() -> Self {
        Self::paper_mix()
    }
}

impl RequestMix {
    /// The evaluation's mix: the four request types are exercised evenly.
    pub fn paper_mix() -> Self {
        Self {
            weights: [
                (RequestKind::Buy, 0.25),
                (RequestKind::Details, 0.25),
                (RequestKind::Products, 0.25),
                (RequestKind::Search, 0.25),
            ],
        }
    }

    /// A read-heavy mix (used by ablation benches).
    pub fn read_heavy() -> Self {
        Self {
            weights: [
                (RequestKind::Buy, 0.05),
                (RequestKind::Details, 0.40),
                (RequestKind::Products, 0.15),
                (RequestKind::Search, 0.40),
            ],
        }
    }

    /// Creates a custom mix. Weights are normalised; non-positive totals fall
    /// back to the default mix.
    pub fn custom(buy: f64, details: f64, products: f64, search: f64) -> Self {
        let total = buy + details + products + search;
        if total <= 0.0 {
            return Self::paper_mix();
        }
        Self {
            weights: [
                (RequestKind::Buy, buy / total),
                (RequestKind::Details, details / total),
                (RequestKind::Products, products / total),
                (RequestKind::Search, search / total),
            ],
        }
    }

    /// The probability of a given kind.
    pub fn probability(&self, kind: RequestKind) -> f64 {
        self.weights
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// Draws a request kind.
    pub fn sample(&self, rng: &mut SimRng) -> RequestKind {
        let draw = rng.uniform();
        let mut cumulative = 0.0;
        for (kind, weight) in &self.weights {
            cumulative += weight;
            if draw < cumulative {
                return *kind;
            }
        }
        RequestKind::Search
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_properties() {
        assert_eq!(RequestKind::ALL.len(), 4);
        assert!(RequestKind::Buy.is_write());
        assert!(!RequestKind::Details.is_write());
        assert!(RequestKind::Search.touches_search());
        assert!(!RequestKind::Products.touches_search());
        assert!(RequestKind::Products.response_bytes() > RequestKind::Details.response_bytes());
        assert_eq!(RequestKind::Buy.name(), "buy");
        assert!(RequestKind::Buy.request_bytes() > 0);
    }

    #[test]
    fn default_mix_is_even_and_normalised() {
        let mix = RequestMix::default();
        let total: f64 = RequestKind::ALL.iter().map(|k| mix.probability(*k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for kind in RequestKind::ALL {
            assert!((mix.probability(kind) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn custom_mix_normalises_and_handles_degenerate_input() {
        let mix = RequestMix::custom(1.0, 1.0, 2.0, 0.0);
        assert!((mix.probability(RequestKind::Products) - 0.5).abs() < 1e-12);
        assert_eq!(mix.probability(RequestKind::Search), 0.0);
        assert_eq!(
            RequestMix::custom(0.0, 0.0, 0.0, 0.0),
            RequestMix::paper_mix()
        );
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mix = RequestMix::read_heavy();
        let mut rng = SimRng::seeded(13);
        let n = 50_000;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..n {
            *counts.entry(mix.sample(&mut rng)).or_insert(0usize) += 1;
        }
        for kind in RequestKind::ALL {
            let expected = mix.probability(kind);
            let measured = *counts.get(&kind).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (measured - expected).abs() < 0.01,
                "{kind:?}: {measured} vs {expected}"
            );
        }
    }
}
