//! Pins that [`TrafficStats::latency_quantile_ms`] selects without copying
//! the latency vector: with a million latencies (8 MB), each call may
//! allocate less than 1 MB in total. A counting global allocator measures
//! it, so this file holds a single test and nothing else allocates
//! concurrently.

use bifrost_engine::TrafficStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator and counts the bytes it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn quantiles_of_a_million_latencies_allocate_under_one_megabyte_each() {
    // Latencies from 1 to about 1,000 ms, from a fixed linear congruential
    // sequence.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let latencies_ms: Vec<f64> = (0..1_000_000)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            1.0 + (state >> 11) as f64 / (1u64 << 53) as f64 * 999.0
        })
        .collect();
    let stats = TrafficStats {
        latencies_ms,
        ..TrafficStats::default()
    };
    for q in [0.5, 0.95, 0.99] {
        let before = ALLOCATED.load(Ordering::Relaxed);
        let value = stats.latency_quantile_ms(q);
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
        assert!(
            allocated < 1 << 20,
            "p{} allocated {allocated} bytes",
            q * 100.0
        );
        let mut copy = stats.latencies_ms.clone();
        let rank = (q * (copy.len() - 1) as f64).round() as usize;
        let want = *copy.select_nth_unstable_by(rank, f64::total_cmp).1;
        assert_eq!(value.to_bits(), want.to_bits());
    }
}
