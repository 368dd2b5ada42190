//! Checkpoint/snapshot schema-versioning and corruption tests: a
//! capture from a different format version must be refused with a
//! typed [`SimError::SchemaMismatch`], and a structurally corrupted
//! payload must fail *closed* — the target engine keeps its exact
//! pre-restore state instead of being partially overwritten.

use std::sync::Arc;

use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::Fifo;
use aqt_sim::{
    checkpoint, fnv1a_u64s, snapshot, AdversaryModelSpec, ConstraintSpec, Engine, EngineConfig,
    Injection, Ratio, SimError, SNAPSHOT_SCHEMA_VERSION, TELEMETRY_SCHEMA_VERSION,
};
use proptest::prelude::*;

/// A length-3 route around `ring(6)` starting at edge `start`.
fn ring_route(g: &Arc<Graph>, start: u64) -> Route {
    let ids = vec![
        EdgeId((start % 6) as u32),
        EdgeId(((start + 1) % 6) as u32),
        EdgeId(((start + 2) % 6) as u32),
    ];
    Route::new(g, ids).expect("contiguous ring edges")
}

/// An engine with a little traffic in flight, so captures are
/// non-trivial.
fn busy_engine(g: &Arc<Graph>) -> Engine<Fifo> {
    let mut eng = Engine::new(Arc::clone(g), Fifo, EngineConfig::default());
    for t in 1..=10u64 {
        eng.step([Injection::new(ring_route(g, t), 0)]).unwrap();
    }
    eng
}

/// A checkpoint stamped with a bumped schema version restores as
/// `SimError::SchemaMismatch` carrying both versions — the fixture for
/// any future `SNAPSHOT_SCHEMA_VERSION` bump.
#[test]
fn bumped_schema_version_fails_restore_with_typed_error() {
    let g = Arc::new(topologies::ring(6));
    let eng = busy_engine(&g);

    let mut ck = checkpoint::checkpoint(&eng);
    ck.snapshot.schema = SNAPSHOT_SCHEMA_VERSION + 1;

    let mut target = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    let before = snapshot::capture(&target);
    match checkpoint::restore(&mut target, &ck) {
        Err(SimError::SchemaMismatch { found, expected }) => {
            assert_eq!(found, SNAPSHOT_SCHEMA_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_SCHEMA_VERSION);
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
    assert_eq!(
        snapshot::capture(&target),
        before,
        "a refused restore must not touch the engine"
    );

    // The raw snapshot path refuses the same stamp.
    let mut snap = snapshot::capture(&eng);
    snap.schema = SNAPSHOT_SCHEMA_VERSION + 1;
    let mut target = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    assert!(snapshot::restore(&mut target, &snap).is_err());
}

/// Every class of payload corruption is rejected before any engine
/// mutation: after the failed restore the target's state is
/// bit-identical to what it was before.
#[test]
fn corrupted_payloads_fail_closed() {
    let g = Arc::new(topologies::ring(6));
    let eng = busy_engine(&g);
    let good = snapshot::capture(&eng);
    assert!(
        good.buffers.iter().any(|b| !b.is_empty()),
        "fixture needs in-flight packets"
    );
    let busy_edge = good.buffers.iter().position(|b| !b.is_empty()).unwrap();

    // Each corruption is a closure over a fresh copy of the capture.
    type Corruption = Box<dyn Fn(&mut snapshot::Snapshot)>;
    let corruptions: Vec<(&str, Corruption)> = vec![
        (
            "hop out of route range",
            Box::new(move |s| s.buffers[busy_edge][0].hop = 99),
        ),
        (
            "packet stored at the wrong buffer",
            Box::new(move |s| {
                let p = s.buffers[busy_edge][0].clone();
                s.buffers[(busy_edge + 1) % 6].push(p);
            }),
        ),
        (
            "route through a nonexistent edge",
            Box::new(move |s| {
                let ri = s.buffers[busy_edge][0].route as usize;
                let mut route: Vec<EdgeId> = s.routes[ri].to_vec();
                route.push(EdgeId(99));
                // keep hops pointing at the stored edges
                s.routes[ri] = route.into();
            }),
        ),
        (
            "packet referencing a missing route-table entry",
            Box::new(move |s| {
                s.buffers[busy_edge][0].route = s.routes.len() as u32;
            }),
        ),
        (
            "arrival after the snapshot clock",
            Box::new(move |s| s.buffers[busy_edge][0].arrived_at = s.time + 1),
        ),
        (
            "injection after arrival",
            Box::new(move |s| {
                let p = &mut s.buffers[busy_edge][0];
                p.injected_at = p.arrived_at + 1;
            }),
        ),
        (
            "packet id above the watermark",
            Box::new(move |s| s.buffers[busy_edge][0].id = s.next_id + 5),
        ),
        (
            "buffer count does not match the graph",
            Box::new(move |s| {
                s.buffers.push(Vec::new());
            }),
        ),
    ];

    for (what, corrupt) in corruptions {
        let mut snap = good.clone();
        corrupt(&mut snap);
        assert_ne!(snap, good, "{what}: the corruption must change the capture");

        let mut target = busy_engine(&g);
        // Advance the target so a partial restore would be visible.
        target.run_quiet(3).unwrap();
        let before = snapshot::capture(&target);

        let err = snapshot::restore(&mut target, &snap)
            .expect_err(&format!("{what}: corrupt payload must be rejected"));
        assert!(
            err.to_string().contains("corrupt snapshot") || err.to_string().contains("buffers"),
            "{what}: unexpected error text: {err}"
        );
        assert_eq!(
            snapshot::capture(&target),
            before,
            "{what}: failed restore must leave the engine untouched"
        );
    }
}

/// A payload from the pre-interning format (schema 2: routes stored
/// inline per packet, no route table) is refused with
/// `SimError::SchemaMismatch` before any engine mutation. The wire
/// format of schema 2 cannot be represented by today's `Snapshot`
/// struct, so the fixture is a current capture carrying the old stamp —
/// exactly what a resurrected schema-2 checkpoint would present first,
/// and the version gate must fire before any payload interpretation.
#[test]
fn pre_interning_schema_2_payload_is_rejected_without_mutation() {
    let g = Arc::new(topologies::ring(6));
    let eng = busy_engine(&g);

    let mut ck = checkpoint::checkpoint(&eng);
    assert_eq!(ck.snapshot.schema, SNAPSHOT_SCHEMA_VERSION);
    assert_eq!(
        SNAPSHOT_SCHEMA_VERSION, 6,
        "removing the checkpoint's parallel-stepping stamp bumped the snapshot schema to 6"
    );
    ck.snapshot.schema = 2; // the pre-interning format stamp

    let mut target = busy_engine(&g);
    target.run_quiet(2).unwrap();
    let before = snapshot::capture(&target);
    let routes_before = target.routes().len();
    match checkpoint::restore(&mut target, &ck) {
        Err(SimError::SchemaMismatch { found, expected }) => {
            assert_eq!(found, 2);
            assert_eq!(expected, SNAPSHOT_SCHEMA_VERSION);
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
    assert_eq!(
        snapshot::capture(&target),
        before,
        "rejected pre-interning payload must not touch the engine"
    );
    assert_eq!(
        target.routes().len(),
        routes_before,
        "no routes may be interned from a rejected payload"
    );

    let mut snap = snapshot::capture(&eng);
    snap.schema = 2;
    let mut target = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    assert!(snapshot::restore(&mut target, &snap).is_err());

    // The previous stamp fails closed too: a schema-5 checkpoint still
    // expects its parallel-stepping stamp to be checked.
    ck.snapshot.schema = 5;
    let mut target = busy_engine(&g);
    assert!(matches!(
        checkpoint::restore(&mut target, &ck),
        Err(SimError::SchemaMismatch { found: 5, .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Route-table serialization round-trips: an arbitrary mix of
    /// (shared and distinct) routes seeded into an engine survives
    /// capture -> restore with the canonical route table intact — every
    /// packet resolves to the same edges, and the capture of the
    /// restored engine is bit-identical. The restored engine then steps
    /// identically to the original, so the interned table is not just
    /// stored but *live*.
    #[test]
    fn route_table_roundtrips_through_snapshots(
        seeds in prop::collection::vec(0u64..72, 1..12),
        steps in 0u64..12,
    ) {
        let g = Arc::new(topologies::ring(6));
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        // decode each scalar into (start 0..6, len 1..=3, cohort n 1..=4)
        for &v in &seeds {
            let (start, len, n) = (v % 6, 1 + (v / 6) % 3, 1 + v / 18);
            let ids: Vec<EdgeId> = (0..len).map(|k| EdgeId(((start + k) % 6) as u32)).collect();
            let route = Route::new(&g, ids).expect("contiguous ring edges");
            eng.seed_cohort(route, start as u32, n).unwrap();
        }
        eng.run_quiet(steps).unwrap();
        let snap = snapshot::capture(&eng);

        // each live distinct route appears exactly once in the table
        let live: std::collections::HashSet<u32> =
            snap.buffers.iter().flatten().map(|p| p.route).collect();
        proptest::prop_assert_eq!(live.len(), snap.routes.len());

        let mut restored = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        snapshot::restore(&mut restored, &snap).unwrap();
        proptest::prop_assert_eq!(&snapshot::capture(&restored), &snap);

        // the restored table is live: both engines advance identically
        eng.run_quiet(6).unwrap();
        restored.run_quiet(6).unwrap();
        proptest::prop_assert_eq!(snapshot::capture(&eng), snapshot::capture(&restored));
    }
}

/// Golden values for the adversary-constraint wire format. These pins
/// are the serialization contract: the canonical `words()` encodings
/// feed scenario fingerprints and checkpoint equality, the `Display`
/// forms land in violation reports and experiment tables, and the
/// `to_rust()` forms are emitted into committed regression tests.
/// Changing any of them silently re-keys every stored fingerprint —
/// bump the schema and update these values deliberately instead.
#[test]
fn constraint_spec_serialized_forms_are_pinned() {
    let rate = ConstraintSpec::Rate(Ratio::new(1, 2));
    let window = ConstraintSpec::Window {
        window: 8,
        rate: Ratio::new(1, 4),
    };
    let burst = ConstraintSpec::BurstLocal {
        rho: Ratio::new(1, 2),
        sigma: 3,
        locality: 8,
    };
    let buffer = ConstraintSpec::BufferBound { bound: 3 };

    // Canonical 5-word encodings: [tag, ...params].
    assert_eq!(rate.words(), [1, 1, 2, 0, 0]);
    assert_eq!(window.words(), [2, 8, 1, 4, 0]);
    assert_eq!(burst.words(), [3, 1, 2, 3, 8]);
    assert_eq!(buffer.words(), [4, 3, 0, 0, 0]);

    // Display forms.
    assert_eq!(rate.to_string(), "rate(1/2)");
    assert_eq!(window.to_string(), "window(w=8, r=1/4)");
    assert_eq!(burst.to_string(), "burst_local(rho=1/2, sigma=3, L=8)");
    assert_eq!(buffer.to_string(), "buffer_bound(B=3)");

    // Emitted Rust forms.
    assert_eq!(rate.to_rust(), "ConstraintSpec::Rate(Ratio::new(1, 2))");
    assert_eq!(
        window.to_rust(),
        "ConstraintSpec::Window { window: 8, rate: Ratio::new(1, 4) }"
    );
    assert_eq!(
        burst.to_rust(),
        "ConstraintSpec::BurstLocal { rho: Ratio::new(1, 2), sigma: 3, locality: 8 }"
    );
    assert_eq!(buffer.to_rust(), "ConstraintSpec::BufferBound { bound: 3 }");

    // Model fingerprints: FNV-1a over [member count] ++ member words,
    // pinned both structurally and as literal values.
    let single = AdversaryModelSpec::rate(Ratio::new(1, 2));
    assert_eq!(single.fingerprint(), fnv1a_u64s([1u64, 1, 1, 2, 0, 0]));
    assert_eq!(single.fingerprint(), 0x3e36_921a_1361_8d06);
    let composed = AdversaryModelSpec::window(8, Ratio::new(1, 4)).and(buffer);
    assert_eq!(composed.fingerprint(), 0x31a9_8b39_6f39_24cf);
    assert_eq!(
        AdversaryModelSpec::burst_local(Ratio::new(1, 2), 3, 8).fingerprint(),
        0xc5a0_7860_9418_b28f
    );
    assert_eq!(
        composed.to_string(),
        "window(w=8, r=1/4) ∘ buffer_bound(B=3)"
    );

    // The schema stamps that gate persisted payloads carrying models.
    assert_eq!(SNAPSHOT_SCHEMA_VERSION, 6);
    assert_eq!(TELEMETRY_SCHEMA_VERSION, 8);
}

/// A checkpoint taken under one adversary model must not restore into
/// an engine validating a different one: validator state would not
/// match the engine's configuration and violations would be computed
/// under a silently different regime. The gate compares full member
/// specs, so even a same-kind parameter drift fails closed.
#[test]
fn checkpoint_with_mismatched_model_fails_closed() {
    let g = Arc::new(topologies::ring(6));
    let spec_a = AdversaryModelSpec::rate(Ratio::new(1, 2));
    let spec_b = AdversaryModelSpec::rate(Ratio::new(1, 3));

    let mut eng = Engine::new(
        Arc::clone(&g),
        Fifo,
        EngineConfig {
            validate: Some(spec_a),
            ..EngineConfig::default()
        },
    );
    eng.step([Injection::new(ring_route(&g, 1), 0)]).unwrap();
    let ck = checkpoint::checkpoint(&eng);

    for other in [Some(spec_b), None] {
        let mut target = Engine::new(
            Arc::clone(&g),
            Fifo,
            EngineConfig {
                validate: other.clone(),
                ..EngineConfig::default()
            },
        );
        let before = snapshot::capture(&target);
        let err = checkpoint::restore(&mut target, &ck).unwrap_err();
        assert!(matches!(err, SimError::Checkpoint(_)), "got {err:?}");
        assert!(
            err.to_string().contains("adversary-model"),
            "error names the gate: {err}"
        );
        assert_eq!(
            snapshot::capture(&target),
            before,
            "refused model-mismatch restore must not touch the engine ({other:?})"
        );
    }

    // Matching spec restores fine.
    let mut target = Engine::new(
        Arc::clone(&g),
        Fifo,
        EngineConfig {
            validate: Some(AdversaryModelSpec::rate(Ratio::new(1, 2))),
            ..EngineConfig::default()
        },
    );
    checkpoint::restore(&mut target, &ck).unwrap();
    assert_eq!(target.time(), eng.time());
}

/// Closed-loop checkpoints round-trip through the full stack: capture
/// a mid-storm `WorkloadCheckpoint`, restore it into a fresh driver,
/// and resumed execution is bit-identical to the uninterrupted run —
/// client state machines, retry timers, RNG, admission queue, the
/// request ledger, and the engine underneath.
#[test]
fn workload_checkpoint_resumes_mid_storm_bit_identically() {
    use aqt_workload::{ClosedLoop, RetryPolicy, Shed};

    // A stormy configuration (immediate retries through an outage), so
    // the capture lands with non-trivial queue + retry-timer state.
    let mut cfg = aqt_workload::baseline_config(0xCCED);
    cfg.clients.retry = RetryPolicy::Immediate;
    cfg.clients.timeout = 5;
    cfg.service.shed = Shed::RejectOldest;
    cfg.service.pause = Some((40, 70));

    let mut a = ClosedLoop::on_line(cfg.clone());
    a.run(55).unwrap();
    let ck = a.checkpoint();
    assert_eq!(ck.version, aqt_workload::WORKLOAD_SCHEMA_VERSION);
    assert!(
        ck.state.counters.attempts_retried > 0,
        "the fixture must capture a storm in progress"
    );
    a.run(200).unwrap();

    let mut b = ClosedLoop::on_line(cfg);
    b.restore(&ck).unwrap();
    assert_eq!(b.state(), ck.state, "restore lands exactly on the capture");
    b.run(200).unwrap();

    assert_eq!(a.state(), b.state(), "resumed run diverged");
    assert_eq!(a.counters(), b.counters());
    assert_eq!(
        snapshot::capture(a.engine()),
        snapshot::capture(b.engine()),
        "the engines underneath must also be bit-identical"
    );
}

/// A workload checkpoint from an unknown schema version is refused
/// with the typed `WorkloadError::SchemaMismatch` before any state —
/// workload or engine — is touched, and the embedded engine
/// checkpoint's own version gate still fires through the workload
/// restore path.
#[test]
fn workload_checkpoint_schema_gates_fail_closed() {
    use aqt_workload::{ClosedLoop, WorkloadError, WORKLOAD_SCHEMA_VERSION};

    let cfg = aqt_workload::baseline_config(0xFA11);
    let mut a = ClosedLoop::on_line(cfg.clone());
    a.run(80).unwrap();

    // Unknown workload schema version.
    let mut ck = a.checkpoint();
    ck.version = WORKLOAD_SCHEMA_VERSION + 1;
    let mut b = ClosedLoop::on_line(cfg.clone());
    let state_before = b.state();
    let engine_before = snapshot::capture(b.engine());
    match b.restore(&ck) {
        Err(WorkloadError::SchemaMismatch { found, expected }) => {
            assert_eq!(found, WORKLOAD_SCHEMA_VERSION + 1);
            assert_eq!(expected, WORKLOAD_SCHEMA_VERSION);
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
    assert_eq!(b.state(), state_before, "refused restore must not mutate");
    assert_eq!(snapshot::capture(b.engine()), engine_before);

    // Unknown *engine* snapshot version inside a valid workload stamp:
    // the inner gate fires and surfaces as the same typed error.
    let mut ck = a.checkpoint();
    ck.engine.snapshot.schema = SNAPSHOT_SCHEMA_VERSION + 1;
    let mut b = ClosedLoop::on_line(cfg);
    let engine_before = snapshot::capture(b.engine());
    match b.restore(&ck) {
        Err(WorkloadError::SchemaMismatch { found, expected }) => {
            assert_eq!(found, SNAPSHOT_SCHEMA_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_SCHEMA_VERSION);
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
    assert_eq!(
        snapshot::capture(b.engine()),
        engine_before,
        "the engine gate must fire before any engine mutation"
    );
}

/// The checkpoint path routes the same payload validation: a corrupted
/// checkpoint is refused with `SimError::Checkpoint` and no partial
/// state lands in the engine.
#[test]
fn corrupted_checkpoint_payload_fails_closed() {
    let g = Arc::new(topologies::ring(6));
    let eng = busy_engine(&g);
    let mut ck = checkpoint::checkpoint(&eng);
    let busy_edge = ck
        .snapshot
        .buffers
        .iter()
        .position(|b| !b.is_empty())
        .expect("traffic in flight");
    ck.snapshot.buffers[busy_edge][0].hop = 99;

    let mut target = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    let before = snapshot::capture(&target);
    let err = checkpoint::restore(&mut target, &ck).unwrap_err();
    assert!(matches!(err, SimError::Checkpoint(_)), "got {err:?}");
    assert_eq!(snapshot::capture(&target), before);
}
