//! Property test of [`CpuResource`]'s heap dispatch against a reference
//! linear scan: for any sequence of `(arrival, demand)` submissions — with
//! zero demands, equal arrival times and 1–64 cores — the heap picks the
//! same core as "first earliest-free core by index", so every receipt, the
//! per-core free times, the queue probes and the utilisation samples match
//! the scan exactly.

use bifrost_simnet::{CpuResource, SimTime, WorkReceipt};
use proptest::collection::vec as any_vec;
use proptest::prelude::*;
use std::time::Duration;

/// The dispatch rule as a plain scan over every core: the first core (by
/// index) among those that free up earliest takes the work.
struct ScanCpu {
    cores: Vec<SimTime>,
    busy: Duration,
    pending: Vec<(SimTime, SimTime)>,
    last_sample_at: SimTime,
}

impl ScanCpu {
    fn new(cores: usize) -> Self {
        Self {
            cores: vec![SimTime::ZERO; cores],
            busy: Duration::ZERO,
            pending: Vec::new(),
            last_sample_at: SimTime::ZERO,
        }
    }

    fn submit(&mut self, arrival: SimTime, demand: Duration) -> WorkReceipt {
        let (idx, earliest) = self
            .cores
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(_, t)| *t)
            .expect("at least one core");
        let started = earliest.max(arrival);
        let completed = started + demand;
        self.cores[idx] = completed;
        self.busy += demand;
        if !demand.is_zero() {
            self.pending.push((started, completed));
        }
        WorkReceipt {
            arrived: arrival,
            started,
            completed,
        }
    }

    fn earliest_start(&self, arrival: SimTime) -> SimTime {
        self.cores.iter().copied().min().expect("core").max(arrival)
    }

    fn drained_at(&self) -> SimTime {
        self.cores.iter().copied().max().expect("core")
    }

    fn sample_utilization(&mut self, now: SimTime) -> f64 {
        let window_start = self.last_sample_at;
        let window = now - window_start;
        let mut busy_in_window = Duration::ZERO;
        let mut remaining = Vec::new();
        for (start, end) in self.pending.drain(..) {
            let overlap_start = start.max(window_start);
            let overlap_end = end.min(now);
            if overlap_end > overlap_start {
                busy_in_window += overlap_end - overlap_start;
            }
            if end > now {
                remaining.push((start.max(now), end));
            }
        }
        self.pending = remaining;
        self.last_sample_at = now;
        if window.is_zero() {
            0.0
        } else {
            let capacity = window.as_secs_f64() * self.cores.len() as f64;
            (busy_in_window.as_secs_f64() / capacity * 100.0).min(100.0)
        }
    }
}

proptest! {
    /// Heap dispatch is indistinguishable from the scan, tie-break included:
    /// small gap and demand ranges make equal arrivals, zero demands and
    /// cores freeing up at the same instant common.
    #[test]
    fn heap_dispatch_matches_linear_scan(
        cores in 1usize..65,
        // Arrival gaps (ms since the previous arrival); 0 repeats an
        // arrival time.
        gaps in any_vec(0u64..4, 1..300),
        // Service demands (ms); 0 is a zero-demand item.
        demands in any_vec(0u64..6, 1..300),
        // A 0 samples utilisation after the submission at that position.
        sample_marks in any_vec(0u64..6, 1..300),
    ) {
        let mut heap = CpuResource::new(cores);
        let mut scan = ScanCpu::new(cores);
        let mut at = SimTime::ZERO;
        let mut submitted = 0u64;
        for (step, (gap_ms, demand_ms)) in gaps.into_iter().zip(demands).enumerate() {
            at += Duration::from_millis(gap_ms);
            let demand = Duration::from_millis(demand_ms);
            prop_assert_eq!(heap.earliest_start(at), scan.earliest_start(at));
            let (h, s) = (heap.submit(at, demand), scan.submit(at, demand));
            prop_assert!(h == s, "receipt {:?} vs {:?} at step {}", h, s, step);
            submitted += 1;
            let free = heap.core_free_times();
            prop_assert!(free == scan.cores, "cores {:?} vs {:?} at step {}", free, scan.cores, step);
            prop_assert_eq!(heap.drained_at(), scan.drained_at());
            prop_assert_eq!(heap.total_busy(), scan.busy);
            if sample_marks.get(step) == Some(&0) {
                let now = at + Duration::from_millis(gap_ms);
                let (h, s) = (heap.sample_utilization(now), scan.sample_utilization(now));
                prop_assert!(h.to_bits() == s.to_bits(), "utilisation {} vs {} at step {}", h, s, step);
            }
        }
        prop_assert_eq!(heap.executed(), submitted);
        let end = heap.drained_at() + Duration::from_millis(1);
        prop_assert_eq!(
            heap.sample_utilization(end).to_bits(),
            scan.sample_utilization(end).to_bits()
        );
    }
}

#[test]
fn equality_compares_core_free_times_by_index() {
    let run = |demands: [u64; 3]| {
        let mut cpu = CpuResource::new(3);
        for demand in demands {
            cpu.submit(SimTime::ZERO, Duration::from_millis(demand));
        }
        // Attributes every interval, so only the cores' state differs.
        cpu.sample_utilization(SimTime::from_millis(10));
        cpu
    };
    let a = run([5, 3, 1]);
    assert_eq!(a, run([5, 3, 1]));
    assert_eq!(
        a.core_free_times(),
        [5, 3, 1].map(SimTime::from_millis).to_vec()
    );
    // The same free times on different cores make a different CPU.
    assert_ne!(a, run([1, 3, 5]));
}
