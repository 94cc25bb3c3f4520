//! Steady-state allocation counts of the serving round loop, measured
//! with a counting global allocator.
//!
//! A traffic-free fleet (programs with no instructions, so every slot is
//! a dummy) is warmed until the calendar's ring buckets have reached
//! their peak sizes; after that, rounds must not allocate at all under
//! `ParallelKind::Serial` (serial and staged pipelines alike), and a
//! threaded round may allocate only occasionally — the standard
//! library's mpsc channels allocate a block every few dozen messages —
//! never once per round.
//!
//! Everything runs inside one `#[test]` so no other test thread of this
//! binary allocates while a window is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use otc_core::RatePolicy;
use otc_host::{
    HostConfig, MultiTenantHost, ParallelKind, PipelineConfig, SchedulerKind, TenantSpec,
};
use otc_workloads::SpecBenchmark;

/// Counts every allocation and reallocation the process makes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fleet size.
const K: usize = 64;
/// Shard pool size.
const SHARDS: usize = 4;
/// Rounds stepped before counting.
const WARMUP_ROUNDS: usize = 2_000;
/// Rounds counted.
const MEASURED_ROUNDS: u64 = 200;

/// A warmed host: `K` traffic-free tenants on four static rates.
fn warmed_host(pipeline: PipelineConfig, parallel: ParallelKind) -> MultiTenantHost {
    let mut host = MultiTenantHost::new(HostConfig {
        n_shards: SHARDS,
        pipeline,
        parallel,
        scheduler: SchedulerKind::Calendar,
        ..HostConfig::small()
    })
    .expect("valid config");
    let olat = host.capacity_model().olat();
    for i in 0..K {
        host.add_tenant(&TenantSpec {
            name: format!("t{i}"),
            benchmark: SpecBenchmark::Mcf,
            // Slot periods (rate + OLAT) of 2^15..=2^18 cycles: the
            // fleet's slot pattern repeats every 2^18 cycles, a divisor
            // of the calendar ring's span, so every ring bucket sees its
            // peak occupancy well inside the warm-up.
            policy: RatePolicy::Static {
                rate: (1u64 << (15 + i % 4)) - olat,
            },
            instructions: 0,
        })
        .expect("fleet fits the pool");
    }
    for _ in 0..WARMUP_ROUNDS {
        host.step_round();
    }
    host
}

/// Slots served so far, real and all.
fn served(host: &MultiTenantHost) -> (u64, u64) {
    let tenants = host.report().tenants;
    let real = tenants.iter().map(|t| t.real_served).sum();
    (real, tenants.iter().map(|t| t.slots_served).sum())
}

/// Allocations made by `MEASURED_ROUNDS` further rounds of `host`.
fn allocations_over_window(host: &mut MultiTenantHost) -> u64 {
    let (_, slots_before) = served(host);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_ROUNDS {
        host.step_round();
    }
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    // Guard against a vacuous pass: the window really served slots, and
    // every one of them was a dummy.
    let (real, slots) = served(host);
    let slots = slots - slots_before;
    assert_eq!(real, 0, "the fleet is meant to carry no traffic");
    assert!(
        slots > MEASURED_ROUNDS * K as u64 / 8,
        "only {slots} slots served"
    );
    made
}

#[test]
fn traffic_free_rounds_do_not_allocate() {
    for (label, pipeline) in [
        ("serial", PipelineConfig::serial()),
        ("staged", PipelineConfig::staged()),
    ] {
        let mut host = warmed_host(pipeline, ParallelKind::Serial);
        let made = allocations_over_window(&mut host);
        assert_eq!(
            made, 0,
            "{label} pipeline under Serial: {made} allocations in {MEASURED_ROUNDS} rounds"
        );
    }
    let mut host = warmed_host(PipelineConfig::serial(), ParallelKind::Threads(2));
    let made = allocations_over_window(&mut host);
    assert!(
        made < MEASURED_ROUNDS,
        "Threads(2): {made} allocations in {MEASURED_ROUNDS} rounds (one or more per round)"
    );
}
