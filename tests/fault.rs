//! Robustness integration tests: fault injection (E14), packet
//! conservation under randomized fault plans, full-state
//! checkpoint/resume, divergence watchdogs, and the crash-safe sweep
//! harness.

use aqt_core::experiments::e14_fault_recovery;
use aqt_core::instability::{InstabilityConfig, InstabilityConstruction, WatchdogKind};
use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::Fifo;
use aqt_sim::{
    checkpoint, snapshot, Engine, EngineConfig, FaultEvent, FaultPlan, FaultPlanError, Injection,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A length-3 route around `ring(6)` starting at edge `start`.
fn ring_route(g: &Arc<Graph>, start: u64) -> Route {
    let ids = vec![
        EdgeId((start % 6) as u32),
        EdgeId(((start + 1) % 6) as u32),
        EdgeId(((start + 2) % 6) as u32),
    ];
    Route::new(g, ids).expect("contiguous ring edges")
}

/// The deterministic background traffic all fault proptests run under:
/// one packet every other step, rotating around the ring.
fn drive(eng: &mut Engine<Fifo>, g: &Arc<Graph>, from: u64, to: u64) {
    for t in from..to {
        if t % 2 == 0 {
            eng.step([Injection::new(ring_route(g, t % 6), 0)]).unwrap();
        } else {
            eng.step(std::iter::empty::<Injection>()).unwrap();
        }
    }
}

/// Decode a proptest scalar into a fault plan over `ring(6)`, with
/// drops/duplicates in steps 1..=80 and a bounded outage window.
fn decode_plan(
    g: &Arc<Graph>,
    drops: &[u64],
    dups: &[u64],
    outage: u64,
    outage_len: u64,
    burst_at: u64,
    burst_n: usize,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &d in drops {
        plan = plan.with_drop(EdgeId((d % 6) as u32), 1 + d / 6);
    }
    for &d in dups {
        plan = plan.with_duplicate(EdgeId((d % 6) as u32), 1 + d / 6);
    }
    let from = 1 + outage / 6;
    plan = plan.with_outage(EdgeId((outage % 6) as u32), from, from + outage_len);
    if burst_n > 0 {
        plan = plan.with_burst(
            burst_at,
            vec![Injection::new(ring_route(g, burst_at), 7); burst_n],
        );
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under an arbitrary fault plan, the books always balance:
    /// `injected + duplicated = absorbed + dropped + backlog`, where
    /// the backlog is independently recounted from the buffers — and
    /// the engine's fault log agrees with the metric counters.
    #[test]
    fn conservation_holds_under_random_fault_plans(
        drops in prop::collection::vec(0u64..480, 0..6),
        dups in prop::collection::vec(0u64..480, 0..6),
        outage in 0u64..480,
        outage_len in 0u64..12,
        burst_at in 1u64..80,
        burst_n in 0usize..10,
    ) {
        let g = Arc::new(topologies::ring(6));
        let plan = decode_plan(&g, &drops, &dups, outage, outage_len, burst_at, burst_n);
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        eng.install_faults(plan).unwrap();
        drive(&mut eng, &g, 0, 100);

        let live: u64 = g.edge_ids().map(|e| eng.queue_len(e) as u64).sum();
        let m = eng.metrics();
        prop_assert_eq!(m.injected() + m.duplicated(), m.absorbed() + m.dropped() + live);
        prop_assert_eq!(live, eng.backlog());

        let (mut dropped, mut cloned, mut burst) = (0u64, 0u64, 0u64);
        for f in eng.fault_log() {
            match f {
                FaultEvent::PacketDropped { .. } => dropped += 1,
                FaultEvent::PacketDuplicated { .. } => cloned += 1,
                FaultEvent::BurstInjected { count, .. } => burst += count,
                FaultEvent::OutageSuppressedSend { .. } => {}
            }
        }
        prop_assert_eq!(dropped, m.dropped());
        prop_assert_eq!(cloned, m.duplicated());
        // burst_at < 100 steps driven, so every scheduled burst fired
        prop_assert_eq!(burst, eng.faults().unwrap().burst_packet_count());
    }

    /// Checkpointing mid-run and resuming in a fresh engine (same
    /// graph, same installed fault plan) is state-identical to the
    /// uninterrupted run — buffers, metrics, and fault log — for any
    /// split point and fault plan.
    #[test]
    fn checkpoint_resume_is_state_identical_under_faults(
        split in 1u64..99,
        drops in prop::collection::vec(0u64..480, 0..5),
        dups in prop::collection::vec(0u64..480, 0..5),
        burst_at in 1u64..80,
    ) {
        let g = Arc::new(topologies::ring(6));
        let plan = decode_plan(&g, &drops, &dups, 300, 6, burst_at, 3);

        let mut full = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        full.install_faults(plan.clone()).unwrap();
        drive(&mut full, &g, 0, 100);

        let mut half = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        half.install_faults(plan.clone()).unwrap();
        drive(&mut half, &g, 0, split);
        let ck = checkpoint::checkpoint(&half);

        // The resume pattern: construct identically (plan installed at
        // time 0), then restore the dynamic state.
        let mut resumed = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        resumed.install_faults(plan).unwrap();
        checkpoint::restore(&mut resumed, &ck).unwrap();
        prop_assert_eq!(resumed.time(), split);
        drive(&mut resumed, &g, split, 100);

        prop_assert_eq!(snapshot::capture(&full), snapshot::capture(&resumed));
        prop_assert_eq!(full.fault_log(), resumed.fault_log());
        let (a, b) = (full.metrics(), resumed.metrics());
        prop_assert_eq!(a.injected(), b.injected());
        prop_assert_eq!(a.absorbed(), b.absorbed());
        prop_assert_eq!(a.dropped(), b.dropped());
        prop_assert_eq!(a.duplicated(), b.duplicated());
        prop_assert_eq!(a.max_buffer_wait(), b.max_buffer_wait());
        prop_assert_eq!(&a.crossings_per_edge(), &b.crossings_per_edge());
    }
}

/// E14: on a system stable at `r = 1/(d+2)`, every fault scenario
/// (S-burst, edge outage, drops, duplications) recovers within the
/// Observation 4.4 / Corollary 4.5/4.6 bounds, and packet conservation
/// holds throughout.
#[test]
fn e14_fault_recovery_within_observation_4_4_bounds() {
    let rows = e14_fault_recovery(3, 8).expect("legal configuration");
    assert_eq!(rows.len(), 12, "2 topologies x 3 protocols x 2 scenarios");
    for r in &rows {
        let cell = format!("{}/{}/{}", r.protocol, r.topology, r.scenario);
        assert!(r.conservation_ok, "{cell}: conservation violated");
        assert!(
            r.s_fault > 0,
            "{cell}: fault left no backlog to recover from"
        );
        assert!(
            r.recovery_horizon.is_some(),
            "{cell}: r is strictly below the class threshold, w* must exist"
        );
        assert!(
            r.bound_respected,
            "{cell}: recovery exceeded the Observation 4.4 bound \
             (wait {} vs {:?}, resettle {:?} vs w* {:?})",
            r.post_fault_max_wait, r.recovery_bound, r.resettle_delay, r.recovery_horizon
        );
        if r.scenario == "burst" {
            assert!(
                r.faults_logged > 0,
                "{cell}: burst must be in the fault log"
            );
        }
        if r.scenario == "outage" {
            assert!(
                r.resettle_delay.is_some(),
                "{cell}: backlog never returned to its pre-fault level"
            );
        }
    }
}

/// The crash-safe sweep: one deliberately panicking simulation job is
/// quarantined after its one attempt, and every other job still
/// returns its result.
#[test]
fn sweep_survives_a_panicking_simulation_job() {
    let gaps: Vec<u64> = (2..10).collect(); // 8 jobs: inject every `gap` steps
    let attempts = std::sync::atomic::AtomicU32::new(0);
    let report = aqt_sim::run_sim_sweep(gaps, 0, None, |i, &gap| {
        if i == 3 {
            attempts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        assert!(i != 3, "deliberate failure injected into job 3");
        let g = Arc::new(topologies::ring(6));
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        for t in 0..60u64 {
            if t % gap == 0 {
                eng.step([Injection::new(ring_route(&g, t % 6), 0)])
                    .unwrap();
            } else {
                eng.step(std::iter::empty::<Injection>()).unwrap();
            }
        }
        Ok(eng.metrics().absorbed())
    });

    assert_eq!(report.results().count(), 7, "all healthy jobs must finish");
    let quarantined = report.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].index, 3);
    assert_eq!(attempts.into_inner(), 1, "a panic is not retried");
    assert!(quarantined[0].message.contains("deliberate failure"));
    // Sparser injections -> fewer absorbed; the healthy results are
    // real simulation outputs, not placeholders.
    let results: Vec<u64> = report.results().copied().collect();
    assert!(results[0] > *results.last().unwrap());
    assert!(report.into_complete().is_err());
}

/// Iteration-boundary checkpointing of the Theorem 3.17 construction:
/// resuming from the captured checkpoint reproduces the uninterrupted
/// run bit-for-bit (reports, backlog series, divergence verdict).
#[test]
fn instability_resume_is_identical_to_uninterrupted() {
    let mut base = InstabilityConfig::new(1, 4);
    base.s0_safety = 1.0;
    base.m_override = Some(4);
    // Explicit sampling interval: the auto interval is derived from
    // cfg.iterations, which differs between the prefix run and the
    // full run.
    base.sample_every = 64;
    base.iterations = 2;

    let full = InstabilityConstruction::new(base.clone())
        .run()
        .expect("legal adversary");

    let mut prefix_cfg = base.clone();
    prefix_cfg.iterations = 1;
    prefix_cfg.checkpoint_iterations = true;
    let prefix = InstabilityConstruction::new(prefix_cfg)
        .run()
        .expect("legal adversary");
    let ck = prefix
        .last_checkpoint
        .expect("checkpoint_iterations must capture a boundary checkpoint");
    assert_eq!(ck.iteration, 1);

    let resumed = InstabilityConstruction::new(base)
        .resume(&ck)
        .expect("legal adversary");

    assert_eq!(resumed.total_steps, full.total_steps);
    assert_eq!(resumed.max_backlog, full.max_backlog);
    assert_eq!(resumed.diverged, full.diverged);
    assert_eq!(resumed.iterations.len(), full.iterations.len());
    for (a, b) in resumed.iterations.iter().zip(&full.iterations) {
        assert_eq!((a.s_start, a.s_end), (b.s_start, b.s_end));
    }
    assert_eq!(resumed.series, full.series);
}

/// `FaultPlan::validate` returns typed errors whose Display strings
/// match the messages the engine has always surfaced.
#[test]
fn fault_plan_validation_errors_are_typed() {
    let e = EdgeId(0);

    // Closed interval [from, until]: from > until is empty.
    let err = FaultPlan::new()
        .with_outage(e, 5, 4)
        .validate()
        .unwrap_err();
    assert_eq!(
        err,
        FaultPlanError::OutageWindow {
            edge: e,
            from: 5,
            until: 4
        }
    );
    assert_eq!(
        err.to_string(),
        "outage on edge EdgeId(0) has empty or zero-start interval [5, 4]"
    );
    // A single-step outage [5, 5] is legal.
    assert!(FaultPlan::new().with_outage(e, 5, 5).validate().is_ok());
    // Zero-start outages are the other arm of the same variant.
    assert!(matches!(
        FaultPlan::new().with_outage(e, 0, 3).validate(),
        Err(FaultPlanError::OutageWindow { from: 0, .. })
    ));

    let err = FaultPlan::new().with_drop(e, 0).validate().unwrap_err();
    assert_eq!(err, FaultPlanError::FaultAtStepZero { edge: e });
    assert_eq!(
        err.to_string(),
        "drop/duplicate on edge EdgeId(0) scheduled at step 0"
    );
    assert!(matches!(
        FaultPlan::new().with_duplicate(e, 0).validate(),
        Err(FaultPlanError::FaultAtStepZero { .. })
    ));

    let g = Arc::new(topologies::ring(6));
    let err = FaultPlan::new()
        .with_burst(0, vec![Injection::new(ring_route(&g, 0), 0)])
        .validate()
        .unwrap_err();
    assert_eq!(err, FaultPlanError::BurstAtStepZero);
    assert_eq!(
        err.to_string(),
        "burst scheduled at step 0 (seed the engine instead)"
    );

    let err = FaultPlan::new()
        .with_burst(5, vec![])
        .validate()
        .unwrap_err();
    assert_eq!(err, FaultPlanError::EmptyBurst { time: 5 });
    assert_eq!(err.to_string(), "burst at step 5 is empty");

    // The enum is a real std error (boxable, source-chainable).
    let _: &dyn std::error::Error = &err;
}

/// Overlapping outage windows on the same edge are deliberately legal:
/// the union of windows applies.
#[test]
fn overlapping_outages_are_legal_and_union() {
    let e = EdgeId(2);
    let plan = FaultPlan::new().with_outage(e, 1, 8).with_outage(e, 5, 12);
    plan.validate().expect("overlap is legal");
    for t in 1..=12 {
        assert!(plan.edge_down(e, t), "step {t} inside the union");
    }
    assert!(!plan.edge_down(e, 13));
    assert!(!plan.edge_down(e, 0));
}

/// A drop and a duplicate scheduled for the same (edge, step) are
/// legal; the drop wins (the engine tests the drop first, so the
/// packet is gone before duplication is considered).
#[test]
fn duplicate_plus_drop_same_edge_and_step_is_legal_drop_wins() {
    let g = Arc::new(topologies::ring(6));
    let plan = FaultPlan::new()
        .with_drop(EdgeId(0), 2)
        .with_duplicate(EdgeId(0), 2);
    plan.validate().expect("dup+drop collision is legal");

    let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
    eng.install_faults(plan).unwrap();
    // t=1: inject a packet whose route starts at edge 0; it crosses
    // edge 0 during step 2, where both faults are scheduled.
    eng.step([Injection::new(ring_route(&g, 0), 0)]).unwrap();
    eng.step(std::iter::empty::<Injection>()).unwrap();
    eng.step(std::iter::empty::<Injection>()).unwrap();

    let m = eng.metrics();
    assert_eq!(m.dropped(), 1, "the drop fires");
    assert_eq!(m.duplicated(), 0, "the duplicate never sees the packet");
    assert!(eng
        .fault_log()
        .iter()
        .any(|f| matches!(f, FaultEvent::PacketDropped { .. })));
    assert_eq!(eng.backlog(), 0);
}

/// The divergence watchdogs end a run early with a structured report
/// instead of burning the full iteration budget.
#[test]
fn watchdogs_stop_a_run_with_a_structured_report() {
    let mut cfg = InstabilityConfig::new(1, 4);
    cfg.s0_safety = 1.0;
    cfg.m_override = Some(4);
    cfg.iterations = 50;
    cfg.backlog_ceiling = Some(1); // trips at the first stage check
    let run = InstabilityConstruction::new(cfg.clone())
        .run()
        .expect("legal adversary");
    let report = run.watchdog.expect("the ceiling must trip");
    assert!(matches!(
        report.kind,
        WatchdogKind::BacklogCeiling { ceiling: 1 }
    ));
    assert!(report.backlog > 1);
    assert_eq!(report.iteration, 0);
    assert_eq!(report.stage, "bootstrap");
    assert_eq!(run.iterations.len(), 1, "the partial iteration is reported");

    cfg.backlog_ceiling = None;
    cfg.step_budget = Some(1);
    let run = InstabilityConstruction::new(cfg)
        .run()
        .expect("legal adversary");
    let report = run.watchdog.expect("the step budget must trip");
    assert!(matches!(
        report.kind,
        WatchdogKind::StepBudget { budget: 1 }
    ));
    assert!(report.time > 1);
}
