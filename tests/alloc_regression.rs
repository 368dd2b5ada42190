//! Allocation-count regression test (`--features alloc-counter`).
//!
//! The hot step loop must not touch the heap once warm: packets are
//! `Copy`, routes live in the append-only `RouteTable`, and the
//! engine's transit scratch buffers are reused across steps. A counting
//! global allocator (wrapping the system allocator) measures a drain
//! workload — the steady state of every instability iteration — and
//! asserts zero allocations per step after warm-up. Any future change
//! that sneaks a per-step allocation into send/receive (a route clone,
//! a fresh scratch `Vec`, an accidental `Arc` bump-and-drop) fails here
//! before it shows up in the benchmark's `sim.*_ns_per_step` figures
//! (`crates/benchmark`).
#![cfg(feature = "alloc-counter")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aqt_graph::{topologies, Route};
use aqt_protocols::Fifo;
use aqt_sim::{Engine, EngineConfig, RingSink, TelemetryConfig};

/// System allocator with a global counter on every acquiring call
/// (alloc, alloc_zeroed, realloc). Deallocations are free of interest:
/// the invariant is "no per-step heap traffic", and acquisitions are
/// the side that both grows and churns.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
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
static GLOBAL: CountingAlloc = CountingAlloc;

/// The benchmark's drain workload: 20 000 unit-route packets seeded on
/// the first edge of `line(256)`, drained one send/absorb per step.
/// After a short warm-up (scratch buffers at capacity, metrics
/// settled), 2 000 further steps must perform zero heap allocations.
#[test]
fn steady_state_drain_steps_do_not_allocate() {
    let graph = Arc::new(topologies::line(256));
    let e0 = graph.edge_ids().next().expect("line has edges");
    let unit = Route::single(&graph, e0).expect("unit route");
    let mut eng = Engine::new(
        Arc::clone(&graph),
        Fifo,
        EngineConfig {
            // backlog sampling appends to a series; keep the measured
            // window free of the sampler so the assertion is exact
            sample_every: 0,
            ..Default::default()
        },
    );
    eng.seed_cohort(unit, 0, 20_000).expect("seeding");

    eng.run_quiet(100).expect("warm-up");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    eng.run_quiet(2_000).expect("measured drain");
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state drain must be allocation-free: {} allocations in 2000 steps",
        after - before
    );
    assert_eq!(eng.metrics().absorbed(), 2_100, "drain actually progressed");
}

/// The same drain with telemetry *enabled* — counters on, a 256-step
/// window, and a preallocated ring sink. The instrumented loop must
/// stay allocation-free too: counters are plain field increments, the
/// window deltas go into a scratch buffer sized at attach time, and
/// the ring sink stores `Copy` records in a buffer allocated up
/// front. ~8 window emissions land inside the measured 2 000 steps,
/// so the zero-allocation assertion covers the slow path as well as
/// the per-step fast path.
#[test]
fn telemetry_enabled_drain_steps_do_not_allocate() {
    let graph = Arc::new(topologies::line(256));
    let e0 = graph.edge_ids().next().expect("line has edges");
    let unit = Route::single(&graph, e0).expect("unit route");
    let mut eng = Engine::new(
        Arc::clone(&graph),
        Fifo,
        EngineConfig {
            sample_every: 0,
            ..Default::default()
        },
    );
    eng.attach_telemetry(TelemetryConfig::default().with_window(256));
    eng.set_telemetry_sink(Box::new(RingSink::with_capacity(64)));
    eng.seed_cohort(unit, 0, 20_000).expect("seeding");

    eng.run_quiet(100).expect("warm-up");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    eng.run_quiet(2_000).expect("measured drain");
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "telemetry-enabled drain must be allocation-free: {} allocations in 2000 steps",
        after - before
    );
    let counters = eng.telemetry().counters();
    assert_eq!(counters.steps, 2_100, "telemetry counted every step");
    assert!(
        counters.packets_absorbed >= 2_100,
        "telemetry observed the drain"
    );
}
