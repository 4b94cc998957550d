//! # bifrost-simnet
//!
//! The deterministic simulation substrate that stands in for the paper's
//! Google Cloud / Docker Swarm testbed. It models:
//!
//! * **virtual time** ([`SimTime`], microsecond resolution),
//! * a single-core (or multi-core) **CPU** whose contention produces
//!   queueing delay and utilisation ([`CpuResource`]), and
//! * a seeded **random stream** for jitter and sampling ([`SimRng`], an
//!   in-crate xoshiro256** whose sequence every seeded result is pinned to).
//!
//! The substitution argument: the paper's evaluation measures *relative*
//! effects — an extra proxy hop per request, the saturation point of a
//! single-core engine, the enactment delay caused by serialising concurrent
//! check executions on one core. A calibrated discrete-event model of
//! exactly those mechanisms reproduces the shape of the results without
//! cloud access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod rng;
pub mod time;

pub use cpu::{CpuResource, WorkReceipt};
pub use rng::SimRng;
pub use time::SimTime;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cpu::{CpuResource, WorkReceipt};
    pub use crate::rng::SimRng;
    pub use crate::time::SimTime;
}
