//! CPU contention model.
//!
//! Every container owns a [`CpuResource`] with one or more cores. Work is
//! submitted as `(arrival time, service demand)`; the resource assigns it to
//! the earliest-available core, producing a start time (possibly delayed by
//! queueing) and a completion time. The resource also tracks accumulated
//! busy time so utilisation over arbitrary windows can be reported — this is
//! the mechanism behind Figures 7–10 (engine CPU utilisation and enactment
//! delay as a function of parallel strategies / checks on a single-core VM).
//!
//! Dispatch is a discrete-event pop-min: the cores sit in a min-heap keyed
//! by `(free_at, core index)`, so picking the earliest-free core and
//! re-queueing it at its new completion time costs O(log cores) instead of
//! a scan over every core. Among cores free at the same instant the lowest
//! index wins.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// The result of submitting a piece of work to a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkReceipt {
    /// When the work arrived.
    pub arrived: SimTime,
    /// When a core actually started executing it.
    pub started: SimTime,
    /// When it completed.
    pub completed: SimTime,
}

impl WorkReceipt {
    /// Time spent waiting for a free core.
    pub fn queueing_delay(&self) -> Duration {
        self.started - self.arrived
    }

    /// Total latency from arrival to completion.
    pub fn latency(&self) -> Duration {
        self.completed - self.arrived
    }
}

/// A processor with `cores` identical cores executing work in FIFO order per
/// core. Work is dispatched to the earliest-available core, the lowest core
/// index breaking ties, by popping the minimum of a heap of
/// `(free_at, core index)` pairs — O(log cores) per submission.
#[derive(Debug, Clone)]
pub struct CpuResource {
    /// Every core as `(earliest time it becomes idle again, core index)`,
    /// smallest pair on top.
    cores: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Total busy time accumulated across all cores.
    busy: Duration,
    /// Execution intervals `(start, end)` not yet fully attributed to a
    /// utilisation sampling window.
    pending_intervals: Vec<(SimTime, SimTime)>,
    /// Time of the last utilisation sample.
    last_sample_at: SimTime,
    /// Number of work items executed.
    executed: u64,
}

/// Two CPUs are equal when every core (by index) frees up at the same time
/// and the accounting matches; the heap's internal layout, which depends on
/// the order the cores were re-queued in, does not count.
impl PartialEq for CpuResource {
    fn eq(&self, other: &Self) -> bool {
        self.busy == other.busy
            && self.executed == other.executed
            && self.last_sample_at == other.last_sample_at
            && self.pending_intervals == other.pending_intervals
            && self.core_free_times() == other.core_free_times()
    }
}

impl CpuResource {
    /// Creates a CPU with the given number of cores (minimum 1).
    pub fn new(cores: usize) -> Self {
        Self {
            cores: (0..cores.max(1))
                .map(|index| Reverse((SimTime::ZERO, index)))
                .collect(),
            busy: Duration::ZERO,
            pending_intervals: Vec::new(),
            last_sample_at: SimTime::ZERO,
            executed: 0,
        }
    }

    /// A single-core CPU — the `n1-standard-1` instances of the paper's
    /// testbed.
    pub fn single_core() -> Self {
        Self::new(1)
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The time each core becomes idle again, indexed by core.
    pub fn core_free_times(&self) -> Vec<SimTime> {
        let mut free = vec![SimTime::ZERO; self.cores.len()];
        for Reverse((free_at, index)) in &self.cores {
            free[*index] = *free_at;
        }
        free
    }

    /// Number of work items executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Total busy time accumulated across all cores.
    pub fn total_busy(&self) -> Duration {
        self.busy
    }

    /// Submits work arriving at `arrival` with the given service `demand`.
    /// Returns when the work started and completed.
    pub fn submit(&mut self, arrival: SimTime, demand: Duration) -> WorkReceipt {
        let mut core = self.cores.peek_mut().expect("at least one core");
        let Reverse((free_at, _)) = &mut *core;
        let started = (*free_at).max(arrival);
        let completed = started + demand;
        // Re-keying the top core sifts it down when the guard drops.
        *free_at = completed;
        drop(core);
        self.busy += demand;
        if !demand.is_zero() {
            self.pending_intervals.push((started, completed));
        }
        self.executed += 1;
        WorkReceipt {
            arrived: arrival,
            started,
            completed,
        }
    }

    /// The earliest time at which a newly arriving item could start.
    pub fn earliest_start(&self, arrival: SimTime) -> SimTime {
        let Reverse((free_at, _)) = self.cores.peek().expect("at least one core");
        (*free_at).max(arrival)
    }

    /// The time at which all queued work is finished.
    pub fn drained_at(&self) -> SimTime {
        self.cores
            .iter()
            .map(|Reverse((free_at, _))| *free_at)
            .max()
            .expect("at least one core")
    }

    /// Utilisation in percent of total core capacity since the previous call
    /// to this method, sampled at `now`. The first call measures from time
    /// zero.
    ///
    /// The measurement is based on the *actual execution intervals* of the
    /// submitted work: demand that was submitted earlier but executes inside
    /// the current window (because the core was backlogged) counts towards
    /// this window, and demand still queued at `now` is carried over to later
    /// windows — which is what a cAdvisor-style sampler observes.
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        let window_start = self.last_sample_at;
        let window = now - window_start;
        let mut busy_in_window = Duration::ZERO;
        // Compacts in place: attributed intervals drop out, and the tails
        // of intervals running past `now` stay for future windows.
        self.pending_intervals.retain_mut(|(start, end)| {
            let overlap_start = (*start).max(window_start);
            let overlap_end = (*end).min(now);
            if overlap_end > overlap_start {
                busy_in_window += overlap_end - overlap_start;
            }
            *start = (*start).max(now);
            *end > now
        });
        let utilization = if window.is_zero() {
            0.0
        } else {
            let capacity = window.as_secs_f64() * self.cores.len() as f64;
            (busy_in_window.as_secs_f64() / capacity * 100.0).min(100.0)
        };
        self.last_sample_at = now;
        utilization
    }

    /// Average utilisation from time zero until `now` (ignores sampling
    /// state).
    pub fn average_utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let capacity = elapsed * self.cores.len() as f64;
        (self.busy.as_secs_f64() / capacity * 100.0).min(100.0 * self.cores.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_on_idle_core_starts_immediately() {
        let mut cpu = CpuResource::single_core();
        let r = cpu.submit(SimTime::from_millis(100), Duration::from_millis(20));
        assert_eq!(r.started, SimTime::from_millis(100));
        assert_eq!(r.completed, SimTime::from_millis(120));
        assert_eq!(r.queueing_delay(), Duration::ZERO);
        assert_eq!(r.latency(), Duration::from_millis(20));
        assert_eq!(cpu.executed(), 1);
        assert_eq!(cpu.core_count(), 1);
    }

    #[test]
    fn contention_serialises_work_on_single_core() {
        let mut cpu = CpuResource::single_core();
        // Two items arrive at the same instant; the second must wait.
        let a = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        let b = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        assert_eq!(a.queueing_delay(), Duration::ZERO);
        assert_eq!(b.queueing_delay(), Duration::from_millis(10));
        assert_eq!(b.completed, SimTime::from_millis(20));
        assert_eq!(cpu.drained_at(), SimTime::from_millis(20));
        assert_eq!(cpu.total_busy(), Duration::from_millis(20));
    }

    #[test]
    fn multi_core_runs_work_in_parallel() {
        let mut cpu = CpuResource::new(2);
        let a = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        let b = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        let c = cpu.submit(SimTime::ZERO, Duration::from_millis(10));
        assert_eq!(a.queueing_delay(), Duration::ZERO);
        assert_eq!(b.queueing_delay(), Duration::ZERO);
        assert_eq!(c.queueing_delay(), Duration::from_millis(10));
        assert_eq!(cpu.earliest_start(SimTime::ZERO), SimTime::from_millis(10));
    }

    #[test]
    fn zero_core_request_clamps_to_one() {
        let cpu = CpuResource::new(0);
        assert_eq!(cpu.core_count(), 1);
    }

    #[test]
    fn utilization_sampling_windows() {
        let mut cpu = CpuResource::single_core();
        // 50 ms of work in a 100 ms window → 50 %.
        cpu.submit(SimTime::ZERO, Duration::from_millis(50));
        let u = cpu.sample_utilization(SimTime::from_millis(100));
        assert!((u - 50.0).abs() < 1e-9, "{u}");
        // Next window has no work → 0 %.
        let u = cpu.sample_utilization(SimTime::from_millis(200));
        assert_eq!(u, 0.0);
        // Saturated window is capped at 100 %.
        for _ in 0..20 {
            cpu.submit(SimTime::from_millis(200), Duration::from_millis(50));
        }
        let u = cpu.sample_utilization(SimTime::from_millis(300));
        assert_eq!(u, 100.0);
    }

    #[test]
    fn average_utilization_over_experiment() {
        let mut cpu = CpuResource::single_core();
        cpu.submit(SimTime::ZERO, Duration::from_millis(250));
        assert!((cpu.average_utilization(SimTime::from_secs(1)) - 25.0).abs() < 1e-9);
        assert_eq!(cpu.average_utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn queueing_delay_grows_with_offered_load() {
        // The mechanism behind Figure 8/10: identical work arriving at the
        // same instant on one core queues linearly.
        let mut cpu = CpuResource::single_core();
        let receipts: Vec<WorkReceipt> = (0..100)
            .map(|_| cpu.submit(SimTime::ZERO, Duration::from_millis(5)))
            .collect();
        let delays: Vec<Duration> = receipts.iter().map(|r| r.queueing_delay()).collect();
        assert_eq!(delays[0], Duration::ZERO);
        assert_eq!(delays[99], Duration::from_millis(495));
        // Monotone non-decreasing delay.
        assert!(delays.windows(2).all(|w| w[0] <= w[1]));
    }
}
