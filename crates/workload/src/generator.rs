//! The open-loop arrival process: when requests arrive and what kind they
//! are.

use crate::requests::{RequestKind, RequestMix};
use bifrost_core::ids::UserId;
use bifrost_core::seed::Seed;
use bifrost_simnet::{SimRng, SimTime};
use std::time::Duration;

/// The load profile of an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Steady-state request rate (requests per second).
    pub requests_per_second: f64,
    /// Ramp-up period during which the rate grows linearly from zero.
    pub ramp_up: Duration,
    /// Total duration of traffic generation (including the ramp-up).
    pub duration: Duration,
    /// The request mix.
    pub mix: RequestMix,
    /// Size of the simulated user population issuing the requests.
    pub user_count: u64,
    /// Whether arrivals are jittered (exponential inter-arrival times) or
    /// perfectly periodic.
    pub poisson_arrivals: bool,
}

impl LoadProfile {
    /// The paper's profile: 30 s ramp-up, 35 req/s steady state, even mix.
    pub fn paper_profile(duration: Duration) -> Self {
        Self {
            requests_per_second: 35.0,
            ramp_up: Duration::from_secs(30),
            duration,
            mix: RequestMix::paper_mix(),
            user_count: 1_000,
            poisson_arrivals: false,
        }
    }

    /// Overrides the request rate (builder style).
    pub fn with_rate(mut self, requests_per_second: f64) -> Self {
        self.requests_per_second = requests_per_second;
        self
    }

    /// Overrides the user population size (builder style).
    pub fn with_users(mut self, user_count: u64) -> Self {
        self.user_count = user_count.max(1);
        self
    }

    /// Switches to exponential (Poisson) inter-arrival times (builder style).
    pub fn with_poisson_arrivals(mut self, poisson: bool) -> Self {
        self.poisson_arrivals = poisson;
        self
    }

    /// Overrides the request mix (builder style).
    pub fn with_mix(mut self, mix: RequestMix) -> Self {
        self.mix = mix;
        self
    }

    /// Generates the full arrival plan for the profile.
    ///
    /// A `requests_per_second` that is negative (including `-0.0`), NaN or
    /// infinite yields an empty plan; a rate of zero still emits the ramp-up
    /// arrivals. Users are drawn as if `user_count` were at least 1.
    pub fn plan(&self, rng: &mut SimRng) -> ArrivalPlan {
        let mut arrivals = Vec::new();
        if !(self.requests_per_second.is_finite() && self.requests_per_second.is_sign_positive()) {
            return ArrivalPlan { arrivals };
        }
        let users = self.user_count.max(1);
        let mut now = 0.0f64;
        let end = self.duration.as_secs_f64();
        let ramp = self.ramp_up.as_secs_f64();
        while now < end {
            // Current target rate: linear ramp, then steady state.
            let rate = if now < ramp && ramp > 0.0 {
                (self.requests_per_second * (now / ramp)).max(1.0)
            } else {
                self.requests_per_second
            };
            let gap = if self.poisson_arrivals {
                rng.exponential(1.0 / rate)
            } else {
                1.0 / rate
            };
            now += gap;
            if now >= end {
                break;
            }
            let kind = self.mix.sample(rng);
            let user = UserId::new((rng.uniform() * users as f64) as u64 % users);
            arrivals.push(Arrival {
                at: SimTime::from_secs_f64(now),
                kind,
                user,
            });
        }
        ArrivalPlan { arrivals }
    }

    /// Generates the arrival plan from a [`Seed`], decorrelated into the
    /// `"workload"` stream. This is the entry point the multi-trial runner
    /// uses: the same seed always yields the same plan, and different layers
    /// seeded from the same trial seed consume distinct random sequences.
    pub fn plan_seeded(&self, seed: Seed) -> ArrivalPlan {
        let mut rng = SimRng::seeded(seed.stream("workload").value());
        self.plan(&mut rng)
    }
}

/// One planned request arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request arrives at the application entry point.
    pub at: SimTime,
    /// The request type.
    pub kind: RequestKind,
    /// The user issuing the request.
    pub user: UserId,
}

/// A complete, time-ordered arrival plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalPlan {
    arrivals: Vec<Arrival>,
}

impl ArrivalPlan {
    /// The arrivals in time order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of planned requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Iterates the plan as per-tick batches: consecutive arrivals whose
    /// timestamps fall into the same `tick`-sized window are grouped into
    /// one [`ArrivalBatch`]. Empty windows are skipped. This is how the
    /// engine's traffic simulation consumes a plan — one scheduler event
    /// per non-empty tick instead of one per request.
    pub fn batches(&self, tick: Duration) -> TickBatches<'_> {
        TickBatches {
            arrivals: &self.arrivals,
            tick_micros: tick.as_micros().max(1) as u64,
            cursor: 0,
        }
    }

    /// The average request rate over the window `[from, to)`.
    pub fn rate_between(&self, from: SimTime, to: SimTime) -> f64 {
        let window = (to - from).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        let count = self
            .arrivals
            .iter()
            .filter(|a| a.at >= from && a.at < to)
            .count();
        count as f64 / window
    }
}

/// One tick's worth of arrivals (see [`ArrivalPlan::batches`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalBatch<'a> {
    /// The tick index (`floor(arrival time / tick)`), shared by every
    /// arrival in the batch.
    pub index: u64,
    /// The end of the tick window (exclusive): all arrivals in the batch
    /// have happened by this virtual time.
    pub end: SimTime,
    /// The arrivals of the tick, in time order.
    pub arrivals: &'a [Arrival],
}

/// Iterator over the non-empty per-tick batches of an [`ArrivalPlan`].
#[derive(Debug, Clone)]
pub struct TickBatches<'a> {
    arrivals: &'a [Arrival],
    tick_micros: u64,
    cursor: usize,
}

impl<'a> Iterator for TickBatches<'a> {
    type Item = ArrivalBatch<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let first = self.arrivals.get(self.cursor)?;
        let index = first.at.as_micros() / self.tick_micros;
        let start = self.cursor;
        let mut end = self.cursor + 1;
        while self
            .arrivals
            .get(end)
            .is_some_and(|a| a.at.as_micros() / self.tick_micros == index)
        {
            end += 1;
        }
        self.cursor = end;
        Some(ArrivalBatch {
            index,
            end: SimTime::from_micros((index + 1) * self.tick_micros),
            arrivals: &self.arrivals[start..end],
        })
    }
}

impl IntoIterator for ArrivalPlan {
    type Item = Arrival;
    type IntoIter = std::vec::IntoIter<Arrival>;

    fn into_iter(self) -> Self::IntoIter {
        self.arrivals.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_produces_expected_rate() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(120));
        let mut rng = SimRng::seeded(1);
        let plan = profile.plan(&mut rng);
        assert!(!plan.is_empty());
        // After ramp-up the steady-state rate is ~35 req/s.
        let steady = plan.rate_between(SimTime::from_secs(60), SimTime::from_secs(120));
        assert!((steady - 35.0).abs() < 2.0, "steady rate {steady}");
        // During the first seconds of the ramp the rate is much lower.
        let early = plan.rate_between(SimTime::ZERO, SimTime::from_secs(10));
        assert!(early < 20.0, "early rate {early}");
        // Arrivals are time-ordered.
        assert!(plan.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn poisson_arrivals_have_similar_mean_rate() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(200))
            .with_poisson_arrivals(true)
            .with_rate(20.0);
        let mut rng = SimRng::seeded(5);
        let plan = profile.plan(&mut rng);
        let rate = plan.rate_between(SimTime::from_secs(40), SimTime::from_secs(200));
        assert!((rate - 20.0).abs() < 2.0, "rate {rate}");
    }

    #[test]
    fn users_are_drawn_from_the_population() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(60)).with_users(10);
        let mut rng = SimRng::seeded(3);
        let plan = profile.plan(&mut rng);
        assert!(plan.arrivals().iter().all(|a| a.user.raw() < 10));
        let distinct: std::collections::BTreeSet<_> =
            plan.arrivals().iter().map(|a| a.user).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(90));
        let a = profile.plan(&mut SimRng::seeded(7));
        let b = profile.plan(&mut SimRng::seeded(7));
        assert_eq!(a, b);
        let c = profile.plan(&mut SimRng::seeded(8));
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_plan_is_deterministic_and_stream_scoped() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(90));
        let a = profile.plan_seeded(Seed::new(7));
        let b = profile.plan_seeded(Seed::new(7));
        assert_eq!(a, b);
        assert_ne!(a, profile.plan_seeded(Seed::new(8)));
        // The workload stream is decorrelated from the raw seed: using the
        // raw value directly yields a different plan.
        assert_ne!(a, profile.plan(&mut SimRng::seeded(7)));
    }

    #[test]
    fn mix_override_changes_composition() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(300))
            .with_mix(RequestMix::custom(0.0, 0.0, 0.0, 1.0));
        let mut rng = SimRng::seeded(2);
        let plan = profile.plan(&mut rng);
        assert!(plan
            .arrivals()
            .iter()
            .all(|a| a.kind == RequestKind::Search));
        assert_eq!(plan.len(), plan.into_iter().count());
    }

    #[test]
    fn batches_partition_the_plan_by_tick() {
        let profile =
            LoadProfile::paper_profile(Duration::from_secs(60)).with_poisson_arrivals(true);
        let plan = profile.plan(&mut SimRng::seeded(9));
        let tick = Duration::from_secs(1);
        let batches: Vec<_> = plan.batches(tick).collect();
        // Every arrival appears exactly once, in order.
        let total: usize = batches.iter().map(|b| b.arrivals.len()).sum();
        assert_eq!(total, plan.len());
        // Tick indices are strictly increasing and each batch's arrivals fall
        // inside its window.
        assert!(batches.windows(2).all(|w| w[0].index < w[1].index));
        for batch in &batches {
            let start_us = batch.index * 1_000_000;
            let end_us = (batch.index + 1) * 1_000_000;
            assert_eq!(batch.end, SimTime::from_micros(end_us));
            assert!(batch
                .arrivals
                .iter()
                .all(|a| (start_us..end_us).contains(&a.at.as_micros())));
        }
        // A tick wider than the plan yields a single batch.
        assert_eq!(plan.batches(Duration::from_secs(3_600)).count(), 1);
        // An empty plan yields no batches.
        let empty = ArrivalPlan {
            arrivals: Vec::new(),
        };
        assert_eq!(empty.batches(tick).count(), 0);
    }

    #[test]
    fn degenerate_rate_window() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(30));
        let plan = profile.plan(&mut SimRng::seeded(1));
        assert_eq!(
            plan.rate_between(SimTime::from_secs(10), SimTime::from_secs(10)),
            0.0
        );
    }
}
