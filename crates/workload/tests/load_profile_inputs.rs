//! Regression tests for `LoadProfile::plan` on out-of-range public fields.
//!
//! Before the fix, an infinite rate (or a negative one without ramp-up)
//! looped forever while allocating, a NaN rate emitted an arrival computed
//! from a NaN time, and `user_count: 0` panicked on `% 0`.

use bifrost_simnet::SimRng;
use bifrost_workload::LoadProfile;
use std::time::Duration;

fn profile(requests_per_second: f64, ramp_up_secs: u64) -> LoadProfile {
    LoadProfile {
        requests_per_second,
        ramp_up: Duration::from_secs(ramp_up_secs),
        ..LoadProfile::paper_profile(Duration::from_secs(60))
    }
}

#[test]
fn infinite_rate_yields_an_empty_plan() {
    for ramp_up_secs in [0, 10] {
        let plan = profile(f64::INFINITY, ramp_up_secs).plan(&mut SimRng::seeded(1));
        assert!(
            plan.is_empty(),
            "ramp {ramp_up_secs}s: {} arrivals",
            plan.len()
        );
    }
}

#[test]
fn negative_rate_yields_an_empty_plan() {
    for rate in [-5.0, -0.0, f64::NEG_INFINITY] {
        let plan = profile(rate, 0).plan(&mut SimRng::seeded(1));
        assert!(plan.is_empty(), "rate {rate}: {} arrivals", plan.len());
    }
}

#[test]
fn nan_rate_yields_an_empty_plan() {
    for ramp_up_secs in [0, 10] {
        let plan = profile(f64::NAN, ramp_up_secs).plan(&mut SimRng::seeded(1));
        assert!(
            plan.is_empty(),
            "ramp {ramp_up_secs}s: {} arrivals",
            plan.len()
        );
    }
}

#[test]
fn zero_user_count_draws_as_a_single_user() {
    let zero = LoadProfile {
        user_count: 0,
        ..profile(35.0, 30)
    };
    let one = LoadProfile {
        user_count: 1,
        ..profile(35.0, 30)
    };
    let plan = zero.plan(&mut SimRng::seeded(1));
    assert!(!plan.is_empty());
    assert_eq!(plan, one.plan(&mut SimRng::seeded(1)));
}

#[test]
fn zero_rate_keeps_only_the_ramp_up_arrivals() {
    assert!(profile(0.0, 0).plan(&mut SimRng::seeded(1)).is_empty());
    let plan = profile(0.0, 10).plan(&mut SimRng::seeded(1));
    // The ramp floors the rate at 1 req/s until the ramp ends; the zero
    // steady-state rate then ends the plan.
    assert_eq!(plan.len(), 10);
    assert!(plan.arrivals().iter().all(|a| a.at.as_secs_f64() <= 10.0));
}
