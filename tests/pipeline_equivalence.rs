//! The staged step pipeline (active-edge iteration, discipline fast
//! paths, batched cohort admission) must be trajectory-identical to the
//! model semantics, for every protocol, schedule, and fault plan. Each
//! test drives one engine with the lockstep oracle attached
//! (`Engine::attach_oracle`): its naive `ReferenceModel` scans every
//! buffer each step and always dispatches through `Protocol::select`,
//! and it diffs clock, id counter, conservation counters, route tables
//! and every queued packet against the engine. With no sentinel
//! attached a divergence halts the step with an `oracle-divergence`
//! error. These tests are the license for the engine's fast path — if
//! one fails, the optimization changed the model.

use std::sync::Arc;

use aqt_core::instability::{InstabilityConfig, InstabilityConstruction};
use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::registry::{by_name, protocol_names};
use aqt_protocols::Fifo;
use aqt_sim::{snapshot, Engine, EngineConfig, FaultPlan, Injection, Metrics, Protocol, Schedule};
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

fn config() -> EngineConfig {
    EngineConfig {
        sample_every: 3,
        ..Default::default()
    }
}

/// An engine running protocol `name` with an identically seeded oracle
/// diffing it every step.
fn checked_engine(g: &Arc<Graph>, name: &str, seed: u64) -> Engine<Box<dyn Protocol>> {
    let mut eng = Engine::new(Arc::clone(g), by_name(name, seed).unwrap(), config());
    eng.attach_oracle(by_name(name, seed).unwrap(), 1);
    eng
}

/// One step, failing the test with the oracle's report on divergence.
fn step<P: Protocol>(eng: &mut Engine<P>, packets: Vec<Injection>) {
    let t = eng.time() + 1;
    if let Err(e) = eng.step(packets) {
        panic!("step {t}: {e}");
    }
}

/// The final full diff: the oracle's model equals the engine's state.
fn assert_oracle_agrees<P: Protocol>(eng: &Engine<P>) {
    let oracle = eng.oracle().expect("oracle attached");
    assert_eq!(
        oracle.model().time(),
        eng.time(),
        "oracle stepped in lockstep"
    );
    assert_eq!(oracle.model().diff(eng), None);
}

/// Drive `steps` steps, injecting per the decoded plan: at step `t`,
/// one packet for every entry `(t, start)` in `inj`.
fn drive<P: Protocol>(eng: &mut Engine<P>, g: &Arc<Graph>, inj: &[(u64, u64)], steps: u64) {
    for t in 1..=steps {
        let packets: Vec<Injection> = inj
            .iter()
            .filter(|&&(at, _)| at == t)
            .map(|&(_, start)| Injection::new(ring_route(g, start), start as u32))
            .collect();
        step(eng, packets);
    }
}

fn assert_counters_equal(a: &Metrics, b: &Metrics) {
    assert_eq!(a.injected(), b.injected());
    assert_eq!(a.absorbed(), b.absorbed());
    assert_eq!(a.dropped(), b.dropped());
    assert_eq!(a.duplicated(), b.duplicated());
    assert_eq!(a.max_buffer_wait(), b.max_buffer_wait());
    assert_eq!(a.max_latency(), b.max_latency());
    assert_eq!(a.max_queue_per_edge(), b.max_queue_per_edge());
    assert_eq!(a.crossings_per_edge(), b.crossings_per_edge());
    assert_eq!(a.series(), b.series());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random schedules x all protocols x random fault plans: the
    /// engine matches the oracle's model at every step, and the books
    /// balance.
    #[test]
    fn pipelines_agree_on_random_runs(
        proto in 0usize..9,
        inj_raw in prop::collection::vec(0u64..360, 0..40),
        drops in prop::collection::vec(0u64..300, 0..4),
        dups in prop::collection::vec(0u64..300, 0..4),
        outage in 0u64..300,
        outage_len in 0u64..8,
        burst_at in 1u64..50,
        burst_n in 0usize..6,
    ) {
        let g = Arc::new(topologies::ring(6));
        let name = protocol_names()[proto];
        // decode each scalar into (step 1..=60, route start 0..6)
        let inj: Vec<(u64, u64)> = inj_raw.iter().map(|&v| (1 + v / 6, v % 6)).collect();

        let mut plan = FaultPlan::new();
        for &d in &drops {
            plan = plan.with_drop(EdgeId((d % 6) as u32), 1 + d / 6);
        }
        for &d in &dups {
            plan = plan.with_duplicate(EdgeId((d % 6) as u32), 1 + d / 6);
        }
        let from = 1 + outage / 6;
        plan = plan.with_outage(EdgeId((outage % 6) as u32), from, from + outage_len);
        if burst_n > 0 {
            plan = plan.with_burst(
                burst_at,
                vec![Injection::new(ring_route(&g, burst_at), 99); burst_n],
            );
        }

        let mut eng = checked_engine(&g, name, 11);
        eng.install_faults(plan).unwrap();
        drive(&mut eng, &g, &inj, 70);
        assert_oracle_agrees(&eng);

        // packet conservation, independently recounted
        let live: u64 = g.edge_ids().map(|e| eng.queue_len(e) as u64).sum();
        let m = eng.metrics();
        prop_assert_eq!(m.injected() + m.duplicated(), m.absorbed() + m.dropped() + live);
    }

    /// Random cohort bursts x all protocols x random fault plans: a
    /// single `Injection::cohort(route, tag, n)` must be
    /// trajectory-identical to `n` consecutive singleton injections at
    /// the same step, and both runs must match the oracle, which admits
    /// every cohort one packet at a time. This pins the batched
    /// admission path (one route intern, one buffer range-extend) to
    /// the one-packet-at-a-time semantics of the model.
    #[test]
    fn cohorts_are_identical_to_singleton_injections(
        proto in 0usize..9,
        cohorts_raw in prop::collection::vec(0u64..1440, 0..12),
        drops in prop::collection::vec(0u64..300, 0..3),
        seed_n in 0u64..20,
    ) {
        let g = Arc::new(topologies::ring(6));
        let name = protocol_names()[proto];
        // decode each scalar into (step 1..=40, route start 0..6, n 1..=6)
        let cohorts: Vec<(u64, u64, u32)> = cohorts_raw
            .iter()
            .map(|&v| (1 + (v % 240) / 6, v % 6, 1 + (v / 240) as u32))
            .collect();
        let mut plan = FaultPlan::new();
        for &d in &drops {
            plan = plan.with_drop(EdgeId((d % 6) as u32), 1 + d / 6);
        }

        let run = |batched: bool| {
            let mut eng = checked_engine(&g, name, 11);
            eng.install_faults(plan.clone()).unwrap();
            let seed_route = ring_route(&g, 0);
            if batched {
                if seed_n > 0 {
                    eng.seed_cohort(seed_route, 7, seed_n).unwrap();
                }
            } else {
                for _ in 0..seed_n {
                    eng.seed(seed_route.clone(), 7).unwrap();
                }
            }
            for t in 1..=50u64 {
                let packets: Vec<Injection> = cohorts
                    .iter()
                    .filter(|&&(at, _, _)| at == t)
                    .flat_map(|&(_, start, n)| {
                        let route = ring_route(&g, start);
                        if batched {
                            vec![Injection::cohort(route, start as u32, n)]
                        } else {
                            vec![Injection::new(route, start as u32); n as usize]
                        }
                    })
                    .collect();
                step(&mut eng, packets);
            }
            assert_oracle_agrees(&eng);
            eng
        };

        let batched = run(true);
        let singles = run(false);

        prop_assert_eq!(snapshot::capture(&batched), snapshot::capture(&singles));
        assert_counters_equal(batched.metrics(), singles.metrics());
    }
}

/// Deterministic cross-check on every bundled protocol: a congested
/// phase (all sources firing) followed by a full drain, no faults.
#[test]
fn pipelines_agree_for_every_protocol_through_a_drain() {
    let g = Arc::new(topologies::ring(6));
    for &name in protocol_names() {
        let mut eng = checked_engine(&g, name, 5);
        for t in 1..=40u64 {
            let inj: Vec<Injection> = (0..(t % 4))
                .map(|k| Injection::new(ring_route(&g, t + k), t as u32))
                .collect();
            step(&mut eng, inj);
        }
        // quiet drain: the active-edge set shrinks to nothing
        if let Err(e) = eng.run_quiet(60) {
            panic!("{name} drain: {e}");
        }
        assert_oracle_agrees(&eng);
        assert_eq!(eng.backlog(), 0, "{name}: drain must complete");
    }
}

/// The recorded Theorem 3.17 adversary (which exercises `Extend` ops —
/// the Lemma 3.3 reroutes — plus massive single-edge backlogs) replays
/// identically through the engine and the oracle. The oracle is
/// attached before seeding, so it mirrors the seeded cohort packet by
/// packet — pinning batched seeding to singleton seeding on the
/// heavyweight fixture as well — and every `Extend`. A full diff of
/// the deep FIFO backlogs costs O(backlog) (at `k = 1` this test runs
/// ~10× slower; `tests/sentinel.rs` already replays the fixture at
/// `k = 1`), so the replay diffs every `DIFF_EVERY` steps and once
/// more at the end.
#[test]
fn pipelines_agree_on_a_recorded_instability_run() {
    const DIFF_EVERY: u64 = 64;
    let mut cfg = InstabilityConfig::new(1, 4);
    cfg.iterations = 1;
    cfg.s0_safety = 1.0;
    cfg.m_override = Some(4);
    cfg.record_ops = true;
    cfg.validate = false;
    let construction = InstabilityConstruction::new(cfg);
    let run = construction.run().expect("legal adversary");

    let graph = Arc::new(construction.geps.graph.clone());
    let ingress = construction.geps.ingress();
    let unit = Route::single(&graph, ingress).expect("unit route");

    let mut eng = Engine::new(Arc::clone(&graph), Fifo, config());
    eng.attach_oracle(Box::new(Fifo), DIFF_EVERY);
    eng.seed_cohort(unit, 0, run.s_star).expect("seeding");
    let sched: Schedule = run.recorded.clone();
    if let Err(e) = sched.run(&mut eng, run.total_steps) {
        panic!("replay: {e}");
    }
    assert_oracle_agrees(&eng);
    // and the engine matches the driver's own measurement of the final
    // queue
    let s_end = run.iterations.last().expect("one iteration").s_end;
    assert_eq!(eng.backlog(), s_end);
}
