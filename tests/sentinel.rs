//! Runtime-verification integration tests: the sentinel's invariants
//! stay silent on known-good runs (the Theorem 3.17 replay, a stable
//! `r ≤ 1/d` cell with its theorem certificate), catch deliberately
//! corrupted state within one cadence window with a replayable repro
//! bundle, survive checkpoint/resume, and feed the sweep harness's
//! quarantine lane. The lockstep differential oracle must match the
//! optimized pipeline bit-for-bit on the recorded instability run and
//! catch a protocol whose declared discipline lies about its `select`.

use std::collections::VecDeque;
use std::sync::Arc;

use aqt_core::instability::{InstabilityConfig, InstabilityConstruction};
use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::{classify, Fifo};
use aqt_sim::{
    checkpoint, snapshot, Discipline, Engine, EngineConfig, EngineError, Injection, InvariantKind,
    Packet, Protocol, SentinelConfig, Severity, SimError, Time,
};

/// A length-3 route around `ring(6)` starting at edge `start`.
fn ring_route(g: &Arc<Graph>, start: u64) -> Route {
    let ids = vec![
        EdgeId((start % 6) as u32),
        EdgeId(((start + 1) % 6) as u32),
        EdgeId(((start + 2) % 6) as u32),
    ];
    Route::new(g, ids).expect("contiguous ring edges")
}

/// The recorded Theorem 3.17 run used by several tests below.
fn recorded_instability() -> (
    InstabilityConstruction,
    aqt_core::instability::InstabilityRun,
) {
    let mut cfg = InstabilityConfig::new(1, 4);
    cfg.iterations = 1;
    cfg.s0_safety = 1.0;
    cfg.m_override = Some(4);
    cfg.record_ops = true;
    cfg.validate = false;
    let construction = InstabilityConstruction::new(cfg);
    let run = construction.run().expect("legal adversary");
    (construction, run)
}

/// The instability replay with every invariant at `Halt` and the
/// differential oracle diffing at `k = 1` must finish violation-free
/// and land on exactly the backlog the driver measured. This is the
/// ISSUE's "zero violations on the Theorem 3.17 replay" gate and the
/// "oracle at k=1 matches bit-for-bit" gate in one run.
#[test]
fn instability_replay_is_clean_under_full_sentinel_and_oracle() {
    let (construction, run) = recorded_instability();
    let graph = Arc::new(construction.geps.graph.clone());
    let ingress = construction.geps.ingress();
    let unit = Route::single(&graph, ingress).expect("unit route");

    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    eng.attach_sentinel(SentinelConfig::all_halt().with_cadence(16).with_seed(1));
    eng.attach_oracle(Box::new(Fifo), 1);
    for _ in 0..run.s_star {
        eng.seed(unit.clone(), 0).expect("seeding");
    }
    run.recorded
        .replay(&mut eng, run.total_steps)
        .expect("no invariant may trip on a known-good run");

    let s_end = run.iterations.last().expect("one iteration").s_end;
    assert_eq!(eng.backlog(), s_end);
    let sentinel = eng.sentinel().expect("attached");
    assert!(sentinel.is_clean());
    assert!(sentinel.checks_run() > 0, "the sentinel must actually run");
}

/// A stable cell: FIFO (time-priority, `d = 3`) under a `(w=8, r=1/4)`
/// injection pattern, with the Theorem 4.3 certificate (`⌈wr⌉ = 2`)
/// enforced at `Halt`. The run must stay clean — the measured waits
/// never exceed the theorem bound.
#[test]
fn stability_cell_is_clean_under_certificate() {
    let g = Arc::new(topologies::ring(6));
    let spec = classify(&Fifo).certificate_spec(8, aqt_sim::Ratio::new(1, 4), 3, 0);
    assert_eq!(spec.bound(), Some(2), "⌈8·(1/4)⌉");

    let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    eng.attach_sentinel(
        SentinelConfig::all_halt()
            .with_cadence(16)
            .with_certificate(spec),
    );
    eng.attach_oracle(Box::new(Fifo), 16);
    // One route every 4 steps, rotating start: every edge appears at
    // most twice (= ⌊8·1/4⌋) in any 8-step window — a legal (w,r)
    // pattern, verified by the validator proptests elsewhere.
    for t in 1..=2048u64 {
        if t % 4 == 0 {
            eng.step([Injection::new(ring_route(&g, t / 4), 0)])
                .expect("stable cell must stay clean");
        } else {
            eng.step(std::iter::empty::<Injection>())
                .expect("stable cell must stay clean");
        }
    }
    assert!(eng.sentinel().unwrap().is_clean());
    assert!(eng.metrics().max_buffer_wait() <= 2);
    assert!(eng.metrics().absorbed() > 0);
}

/// Deliberate corruption: restore a snapshot whose `injected` counter
/// was tampered with. The conservation invariant must halt the run
/// within one cadence window, and the attached repro bundle must
/// replay — restoring its snapshot reproduces the inconsistent books.
#[test]
fn tampered_counter_is_caught_within_one_cadence_window() {
    let g = Arc::new(topologies::ring(6));
    let cadence: Time = 16;
    let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    eng.attach_sentinel(
        SentinelConfig::all_halt()
            .with_cadence(cadence)
            .with_seed(42),
    );
    for t in 1..=40u64 {
        eng.step([Injection::new(ring_route(&g, t), 0)]).unwrap();
    }

    // Tamper: books now claim 3 phantom injections.
    let mut snap = snapshot::capture(&eng);
    snap.injected += 3;
    snapshot::restore(&mut eng, &snap).expect("payload is structurally valid");
    let tampered_at = eng.time();

    let mut caught = None;
    for _ in 0..=cadence {
        match eng.step(std::iter::empty::<Injection>()) {
            Ok(()) => {}
            Err(EngineError::Invariant(report)) => {
                caught = Some(*report);
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    let report = caught.expect("conservation must trip within one cadence window");
    assert_eq!(report.violation.kind, InvariantKind::Conservation);
    assert!(report.violation.time <= tampered_at + cadence);
    assert_eq!(report.bundle.seed, Some(42));
    assert_eq!(report.bundle.step, report.violation.time);

    // Replayability: the bundle's snapshot restores into a fresh
    // engine and exhibits the same broken books.
    let mut fresh = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    snapshot::restore(&mut fresh, &report.bundle.snapshot).unwrap();
    // Recount the live packets from the buffers (the derived backlog
    // counter would balance trivially — it is computed from the very
    // counters that were tampered with).
    let live: u64 = g.edge_ids().map(|e| fresh.queue_len(e) as u64).sum();
    let m = fresh.metrics();
    assert_ne!(
        m.injected() + m.duplicated(),
        m.absorbed() + m.dropped() + live,
        "the repro bundle must reproduce the inconsistency"
    );
}

/// At `Quarantine` severity the same corruption is recorded — with its
/// repro bundle — but the run continues to completion.
#[test]
fn quarantine_severity_accumulates_without_halting() {
    let g = Arc::new(topologies::ring(6));
    let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    eng.attach_sentinel(
        SentinelConfig::default()
            .with_severity(Severity::Quarantine)
            .with_cadence(8),
    );
    for t in 1..=20u64 {
        eng.step([Injection::new(ring_route(&g, t), 0)]).unwrap();
    }
    let mut snap = snapshot::capture(&eng);
    snap.injected += 1;
    snapshot::restore(&mut eng, &snap).unwrap();
    for _ in 0..32u64 {
        eng.step(std::iter::empty::<Injection>())
            .expect("quarantine never halts");
    }
    let sentinel = eng.sentinel().unwrap();
    assert!(!sentinel.is_clean());
    let q = sentinel.quarantined();
    assert!(!q.is_empty());
    assert_eq!(q[0].violation.kind, InvariantKind::Conservation);
    // Repeated cadences re-observe the standing violation.
    assert!(q.len() >= 2, "got {} quarantined reports", q.len());
}

/// Sentinel state (checks run, baselines) survives checkpoint/resume,
/// and a checkpoint that disagrees with the engine about whether a
/// sentinel is attached is rejected.
#[test]
fn sentinel_state_survives_checkpoint_resume() {
    let g = Arc::new(topologies::ring(6));
    let cfg = SentinelConfig::all_halt().with_cadence(8);
    let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    eng.attach_sentinel(cfg.clone());
    for t in 1..=32u64 {
        eng.step([Injection::new(ring_route(&g, t), 0)]).unwrap();
    }
    let checks_before = eng.sentinel().unwrap().checks_run();
    assert!(checks_before > 0);
    let ck = checkpoint::checkpoint(&eng);

    // Resume pattern: same construction (sentinel attached), restore.
    let mut resumed = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    resumed.attach_sentinel(cfg.clone());
    checkpoint::restore(&mut resumed, &ck).unwrap();
    assert_eq!(resumed.sentinel().unwrap().checks_run(), checks_before);
    assert_eq!(
        resumed.sentinel().unwrap().state(),
        eng.sentinel().unwrap().state()
    );
    // The resumed run keeps verifying cleanly.
    for t in 33..=64u64 {
        resumed
            .step([Injection::new(ring_route(&g, t), 0)])
            .unwrap();
    }
    assert!(resumed.sentinel().unwrap().checks_run() > checks_before);

    // Presence mismatch: engine without a sentinel cannot restore a
    // checkpoint that carries sentinel state (and vice versa).
    let mut bare = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    let err = checkpoint::restore(&mut bare, &ck).unwrap_err();
    assert!(matches!(err, SimError::Checkpoint(_)), "got {err:?}");

    let plain_ck =
        checkpoint::checkpoint(&Engine::new(Arc::clone(&g), Fifo, EngineConfig::default()));
    let mut armed = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    armed.attach_sentinel(cfg);
    let err = checkpoint::restore(&mut armed, &plain_ck).unwrap_err();
    assert!(matches!(err, SimError::Checkpoint(_)), "got {err:?}");
}

/// `run_sim_sweep`: a job whose engine halts on an invariant breach
/// lands in the quarantine lane with its repro bundle attached; the
/// healthy jobs still return results.
#[test]
fn sim_sweep_quarantines_invariant_breaches_with_bundles() {
    let tampers: Vec<bool> = vec![false, true, false, false];
    let report = aqt_sim::run_sim_sweep(tampers, 0, None, |_, &tamper| {
        let g = Arc::new(topologies::ring(6));
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        eng.attach_sentinel(SentinelConfig::all_halt().with_cadence(8).with_seed(7));
        for t in 1..=16u64 {
            eng.step([Injection::new(ring_route(&g, t), 0)])
                .map_err(SimError::from)?;
        }
        if tamper {
            let mut snap = snapshot::capture(&eng);
            snap.injected += 2;
            snapshot::restore(&mut eng, &snap).unwrap();
        }
        for _ in 0..16u64 {
            eng.step(std::iter::empty::<Injection>())
                .map_err(SimError::from)?;
        }
        Ok(eng.metrics().absorbed())
    });

    assert_eq!(report.results().count(), 3, "healthy jobs complete");
    let q = report.quarantined();
    assert_eq!(q.len(), 1);
    assert_eq!(q[0].index, 1);
    let bundle = q[0]
        .bundle
        .as_ref()
        .expect("invariant breaches carry a bundle");
    assert_eq!(bundle.seed, Some(7));
    assert!(
        q[0].message.contains("conservation"),
        "got: {}",
        q[0].message
    );
}

/// A protocol whose `discipline()` fast path contradicts its
/// `select()`: the optimized engine uses the declared fast path, the
/// oracle's naive reference engine only ever calls `select()` — the
/// two diverge and the sentinel reports it.
struct LyingFifo;

impl Protocol for LyingFifo {
    fn name(&self) -> &str {
        "lying-fifo"
    }
    fn select(&mut self, _: Time, _: EdgeId, queue: &VecDeque<Packet>, _: &Graph) -> usize {
        queue.len() - 1 // actually LIFO…
    }
    fn discipline(&self) -> Discipline {
        Discipline::ArrivalOrder // …while claiming FIFO
    }
}

#[test]
fn oracle_catches_a_discipline_that_contradicts_select() {
    let g = Arc::new(topologies::ring(6));
    let mut eng = Engine::new(Arc::clone(&g), LyingFifo, EngineConfig::default());
    eng.attach_sentinel(SentinelConfig::all_halt().with_cadence(4));
    eng.attach_oracle(Box::new(LyingFifo), 1);

    // Two packets with different residual routes in the same buffer:
    // front-vs-back selection now matters.
    let mut err = None;
    for t in 1..=12u64 {
        let inj = if t <= 2 {
            vec![
                Injection::new(ring_route(&g, 0), t as u32),
                Injection::new(ring_route(&g, 0), 100 + t as u32),
            ]
        } else {
            vec![]
        };
        match eng.step(inj) {
            Ok(()) => {}
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    match err.expect("the oracle must catch the divergence") {
        EngineError::Invariant(report) => {
            assert_eq!(report.violation.kind, InvariantKind::OracleDivergence);
        }
        other => panic!("expected an invariant halt, got {other}"),
    }
}
