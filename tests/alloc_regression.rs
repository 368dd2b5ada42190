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
//! (`crates/benchmark`). The stores that grow with a run are gated too:
//! interned routes share one arena, and a graph is a handful of flat
//! arrays, so neither costs an allocation per item. A packet buffer of
//! at least 4,096 packets gives memory back at most once per halving of
//! its length (`aqt_sim::buffer`'s tests pin that policy).
#![cfg(feature = "alloc-counter")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use aqt_graph::{topologies, EdgeId, GEpsilon, Route};
use aqt_protocols::Fifo;
use aqt_sim::{
    Engine, EngineConfig, JsonlSink, ObserveConfig, Provenance, Ratio, RingSink, RouteTable,
    Schedule, SentinelConfig, TelemetryConfig, TelemetrySink, Time,
};

/// System allocator with a per-thread counter on every acquiring call
/// (alloc, alloc_zeroed, realloc). Deallocations are free of interest:
/// the invariant is "no per-step heap traffic", and acquisitions are
/// the side that both grows and churns. The count is per thread because
/// the tests of this file run concurrently: one test's set-up must not
/// land in another's measured window.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Allocations made by this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

    let before = allocations();
    eng.run_quiet(2_000).expect("measured drain");
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state drain must be allocation-free: {} allocations in 2000 steps",
        after - before
    );
    assert_eq!(eng.metrics().absorbed(), 2_100, "drain actually progressed");
}

/// The same drain with telemetry *enabled* — counters on, a 256-step
/// window — into `sink`, stamped with `provenance`. Returns the
/// allocations of 2 000 steps measured after `warm_up` steps, and the
/// engine for progress checks.
fn telemetry_drain_allocations(
    sink: Box<dyn TelemetrySink>,
    provenance: Provenance,
    warm_up: Time,
) -> (u64, Engine<Fifo>) {
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
    eng.attach_telemetry(
        TelemetryConfig::default()
            .with_window(256)
            .with_provenance(provenance),
    );
    eng.set_telemetry_sink(sink);
    eng.seed_cohort(unit, 0, 20_000).expect("seeding");

    eng.run_quiet(warm_up).expect("warm-up");

    let before = allocations();
    eng.run_quiet(2_000).expect("measured drain");
    let after = allocations();
    (after - before, eng)
}

/// The instrumented loop must stay allocation-free too: counters are
/// plain field increments, the window deltas go into a scratch buffer
/// sized at attach time, and the ring sink stores record kinds (static
/// strings) in a buffer allocated up front. ~8 window emissions land
/// inside the measured 2 000 steps, so the zero-allocation assertion
/// covers the slow path as well as the per-step fast path.
#[test]
fn telemetry_enabled_drain_steps_do_not_allocate() {
    let (allocations, eng) = telemetry_drain_allocations(
        Box::new(RingSink::with_capacity(64)),
        Provenance::default(),
        100,
    );
    assert_eq!(
        allocations, 0,
        "telemetry-enabled drain must be allocation-free: {allocations} allocations in 2000 steps",
    );
    let counters = eng.telemetry_counters();
    assert_eq!(counters.steps, 2_100, "telemetry counted every step");
    assert!(
        counters.packets_absorbed >= 2_100,
        "telemetry observed the drain"
    );
}

/// The JSONL sink reuses one line buffer, so once the first window
/// record has grown it, every record — including the escaped protocol
/// name of its provenance — is written without touching the heap.
#[test]
fn jsonl_sink_drain_steps_do_not_allocate() {
    let provenance = Provenance {
        protocol: "FIFO".into(),
        ..Provenance::default()
    };
    let (allocations, eng) = telemetry_drain_allocations(
        Box::new(JsonlSink::from_writer(std::io::sink())),
        provenance,
        300,
    );
    assert_eq!(
        allocations, 0,
        "JSONL-sink drain must be allocation-free: {allocations} allocations in 2000 steps",
    );
    assert_eq!(eng.telemetry_counters().windows_emitted, 8);
}

/// The drain with the observatory and the sentinel attached: backlog
/// ticks every 64 steps into the preallocated columnar store, 1-in-64
/// lifecycle spans staged in the preallocated scratch and flushed into
/// a ring sink, and the default sentinel's cheap O(E) rounds. Ticks,
/// span flushes and the rounds at steps 1024 and 2048 all land inside
/// the measured window, so the probe schedule's slow path is covered.
#[test]
fn observatory_and_sentinel_drain_steps_do_not_allocate() {
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
    eng.attach_sentinel(SentinelConfig::default());
    eng.attach_observatory(
        ObserveConfig::default()
            .with_cadence(64)
            .with_span_sample_every(64),
    );
    eng.set_telemetry_sink(Box::new(RingSink::with_capacity(64)));
    eng.seed_cohort(unit, 0, 20_000).expect("seeding");

    eng.run_quiet(100).expect("warm-up");

    let before = allocations();
    eng.run_quiet(2_000).expect("measured drain");
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "observatory + sentinel drain must be allocation-free: {} allocations in 2000 steps",
        after - before
    );
    assert_eq!(eng.sentinel().expect("attached").checks_run(), 2);
    assert_eq!(eng.observatory().ticks(), 2_100 / 64);
    assert!(eng.observatory().spans_emitted() > 0, "spans were flushed");
}

/// Allocations made by building, hashing and replaying the Lemma 3.6
/// shape on `line(8)` with streams `duration` steps long: one long stream over every edge at
/// rate 1/2 from step 1, a rate-1/3 thinning stream on each of
/// `e1..e4` starting a step apart, and a rate-1/7 top-up count stream
/// on `e5..e7` from step 10, after an `Extend` at step 1. Every edge
/// carries less than rate 1, so the queues stay short and their buffers
/// stop growing early. Returns the allocations and the packets injected.
fn stream_replay_allocations(duration: u64) -> (u64, u64) {
    let graph = Arc::new(topologies::line(8));
    let edges: Vec<EdgeId> = graph.edge_ids().collect();

    let before = allocations();
    let mut s = Schedule::new();
    s.extend_ending_at(1, vec![edges[0]], vec![edges[1]], edges[0]);
    let long = Route::new(&graph, edges.clone()).expect("line path");
    s.inject_stream(1, duration, Ratio::new(1, 2), &long, 0);
    for (start, &e) in (1..).zip(&edges[1..=4]) {
        let single = Route::single(&graph, e).expect("unit route");
        s.inject_stream(start, duration, Ratio::new(1, 3), &single, 1);
    }
    let topup = Route::new(&graph, edges[5..].to_vec()).expect("line path");
    s.inject_count(10, duration / 7, Ratio::new(1, 7), &topup, 2);
    let mut eng = Engine::new(
        Arc::clone(&graph),
        Fifo,
        EngineConfig {
            sample_every: 0,
            ..Default::default()
        },
    );
    let until = s.horizon() + 16;
    std::hint::black_box(s.content_hash());
    s.replay(&mut eng, until).expect("replay");
    let after = allocations();
    (after - before, eng.metrics().injected())
}

/// A stream is one op whatever its length, its content hash walks its
/// packets without buffering them, and replaying streams keeps one
/// cursor per live stream and reuses two per-step buffers. So neither
/// building, hashing nor replaying a multi-stream schedule allocates per
/// packet or per step: doubling the streams' length (2 000 more steps,
/// about 3 950 more packets) adds no allocation. One op per packet
/// would grow the op list by one more doubling here.
#[test]
fn steady_state_stream_replay_does_not_allocate() {
    let (short, short_packets) = stream_replay_allocations(2_000);
    let (long, long_packets) = stream_replay_allocations(4_000);
    assert!(
        long_packets > short_packets + 3_900,
        "the longer run injects more"
    );
    assert_eq!(
        long, short,
        "stream build, hash and replay must not allocate per step: {short} allocations for 2000 steps, {long} for 4000"
    );
}

/// Allocations made by `f`.
fn allocations_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = allocations();
    std::hint::black_box(f());
    allocations() - before
}

/// Interned routes live back to back in one arena with an intrusive
/// hash chain, so a table's allocations grow with the log of its size
/// (vector doublings), not with its route count: 4,096 distinct routes
/// of 64 edges take at most 64. A boxed slice and a chain `Vec` per
/// route would take at least 8,192.
#[test]
fn interning_routes_allocates_per_doubling_not_per_route() {
    let edges: Vec<EdgeId> = (0..4_096 + 64).map(EdgeId).collect();
    let n = allocations_of(|| {
        let mut t = RouteTable::new();
        for start in 0..4_096 {
            t.intern(&edges[start..start + 64]);
        }
        assert_eq!(t.len(), 4_096);
        t
    });
    assert!(n <= 64, "4,096 interned routes took {n} allocations");
}

/// A graph keeps its names in one `String` and its adjacency in
/// compressed sparse rows, so building `G_ε` at n = 10, M = 9 (173
/// nodes, 191 edges) takes at most 120 allocations, and the 2-edge
/// line, sized exactly up front, at most 8.
#[test]
fn graphs_build_without_an_allocation_per_node() {
    let n = allocations_of(|| GEpsilon::new(10, 9));
    assert!(n <= 120, "GEpsilon::new(10, 9) took {n} allocations");
    let n = allocations_of(|| topologies::line(2));
    assert!(n <= 8, "topologies::line(2) took {n} allocations");
}
