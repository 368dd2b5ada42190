//! The staged step pipeline (active-edge iteration, discipline fast
//! paths, batched cohort admission) must be trajectory-identical to the
//! model semantics, for every protocol, schedule, and fault plan. Each
//! test drives one engine with the lockstep oracle attached
//! (`Engine::attach_oracle`): its naive `ReferenceModel` scans every
//! buffer each step and always dispatches through `Protocol::select`,
//! and it diffs clock, id counter, conservation counters and every
//! queued packet, its full route included, against the engine. With no sentinel
//! attached a divergence halts the step with an `oracle-divergence`
//! error. These tests are the license for the engine's fast path — if
//! one fails, the optimization changed the model.

use std::sync::Arc;

use aqt_core::instability::{InstabilityConfig, InstabilityConstruction};
use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::registry::{by_name, protocol_names};
use aqt_protocols::Fifo;
use aqt_sim::{
    snapshot, Engine, EngineConfig, FaultPlan, Injection, Metrics, Protocol, Ratio, Schedule,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The floor pattern as the per-step credit loop: the steps of `count`
/// packets of a rate-`r` stream from `start` (`r ≤ 1`, so one packet per
/// firing step).
fn credit_loop_steps(start: u64, count: u64, r: Ratio) -> Vec<u64> {
    let mut steps = Vec::new();
    let mut k = 0;
    while (steps.len() as u64) < count {
        k += 1;
        if r.floor_mul(k) > steps.len() as u64 {
            steps.push(start + k - 1);
        }
    }
    steps
}

/// A route on `line(5)`: edges `a..a+len`, `a + len ≤ 4`, so every
/// route ends at or before `e3` and an extension by the next edge stays
/// simple.
fn line_route(g: &Arc<Graph>, v: u64) -> Route {
    let a = v % 4;
    let len = 1 + (v / 4) % (4 - a);
    Route::new(
        g,
        (a..a + len).map(|i| EdgeId(i as u32)).collect::<Vec<_>>(),
    )
    .expect("line path")
}

/// One op of a mixed schedule, in the two forms under test.
enum Planned {
    /// `inject_segments(start, rate, (count, route, tag) …)`.
    Stream(u64, Ratio, Vec<(u64, Route, u32)>),
    /// `inject_cohort_at(time, route, tag, count)`; count 1 is a single.
    Cohort(u64, Route, u32, u32),
    /// `extend_ending_at(time, e0..=ek, [e(k+1)], ek)`.
    Extend(u64, u32),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stream op replays exactly like its per-packet expansion: one
    /// single-packet `Inject` per packet at the credit loop's step, in
    /// the stream's place. Streams get random rates `≤ 1`, starts and
    /// segment splits (empty segments too), and singles, cohorts and
    /// `Extend`s land on the steps the streams emit at, all pushed in a
    /// random order. Both schedules must agree on content hash,
    /// injection count and horizon, and their replays must be
    /// state-identical and match the oracle.
    #[test]
    fn stream_ops_replay_like_their_expansion(
        proto in 0usize..9,
        streams_raw in prop::collection::vec(0u64..u64::MAX, 1..5),
        extras_raw in prop::collection::vec(0u64..u64::MAX, 0..16),
    ) {
        let g = Arc::new(topologies::line(5));
        let name = protocol_names()[proto];
        // (push-order key, op)
        let mut planned: Vec<(u64, Planned)> = Vec::new();
        let mut emitted: Vec<Vec<u64>> = Vec::new();
        for &v in &streams_raw {
            let den = 1 + v % 6;
            let rate = Ratio::new(1 + (v / 6) % den, den);
            let start = 1 + (v / 36) % 12;
            let segments: Vec<(u64, Route, u32)> = (0..1 + (v / 432) % 3)
                .map(|i| {
                    let w = v >> (16 + 12 * i);
                    (w % 6, line_route(&g, w / 6), (w / 60 % 4) as u32)
                })
                .collect();
            let count = segments.iter().map(|(n, _, _)| n).sum();
            emitted.push(credit_loop_steps(start, count, rate));
            planned.push((v >> 52, Planned::Stream(start, rate, segments)));
        }
        for &w in &extras_raw {
            // Half of the extras sit on a stream packet's step.
            let steps = &emitted[(w / 4) as usize % emitted.len()];
            let time = match (w / 64) as usize % (2 * steps.len() + 1) {
                j if j < steps.len() => steps[j],
                j => 1 + (j as u64 + w / 8192) % 40,
            };
            let op = match w % 4 {
                0 => Planned::Extend(time, (w / 16 % 4) as u32),
                k => Planned::Cohort(time, line_route(&g, w / 16), k as u32, 1 + (w / 256 % 3) as u32),
            };
            planned.push((w >> 52, op));
        }
        planned.sort_by_key(|(key, _)| *key);

        let mut streamed = Schedule::new();
        let mut expanded = Schedule::new();
        for (_, op) in &planned {
            match op {
                Planned::Stream(start, rate, segments) => {
                    let segs = segments
                        .iter()
                        .map(|(n, route, tag)| (*n, Injection::new(route.clone(), *tag)))
                        .collect();
                    streamed.inject_segments(*start, *rate, segs);
                    let count = segments.iter().map(|(n, _, _)| n).sum();
                    let mut steps = credit_loop_steps(*start, count, *rate).into_iter();
                    for (n, route, tag) in segments {
                        for time in steps.by_ref().take(*n as usize) {
                            expanded.inject_at(time, route.clone(), *tag);
                        }
                    }
                }
                Planned::Cohort(time, route, tag, n) => {
                    for s in [&mut streamed, &mut expanded] {
                        s.inject_cohort_at(*time, route.clone(), *tag, *n);
                    }
                }
                Planned::Extend(time, k) => {
                    let buffers: Vec<EdgeId> = (0..=*k).map(EdgeId).collect();
                    for s in [&mut streamed, &mut expanded] {
                        s.extend_ending_at(*time, buffers.clone(), vec![EdgeId(k + 1)], EdgeId(*k));
                    }
                }
            }
        }
        prop_assert_eq!(streamed.content_hash(), expanded.content_hash());
        prop_assert_eq!(streamed.injection_count(), expanded.injection_count());
        prop_assert_eq!(streamed.horizon(), expanded.horizon());

        let until = expanded.horizon() + 12;
        let replay = |s: &Schedule| {
            let mut eng = checked_engine(&g, name, 5);
            if let Err(e) = s.replay(&mut eng, until) {
                panic!("replay: {e}");
            }
            assert_oracle_agrees(&eng);
            eng
        };
        let a = replay(&streamed);
        let b = replay(&expanded);
        prop_assert_eq!(snapshot::capture(&a), snapshot::capture(&b));
        assert_counters_equal(a.metrics(), b.metrics());
    }
}

/// Deterministic cross-check on every bundled protocol: a congested
/// phase followed by a full drain, no faults, on two inputs: `ring(6)`
/// with every source firing, and `torus(3,3)` with random injections
/// over 24 random routes of length 1–4 (routes of different lengths
/// on a graph whose buffers are fed from several directions).
#[test]
fn pipelines_agree_for_every_protocol_through_a_drain() {
    let ring = Arc::new(topologies::ring(6));
    let ring_plan: Vec<Vec<Injection>> = (1..=40u64)
        .map(|t| {
            (0..(t % 4))
                .map(|k| Injection::new(ring_route(&ring, t + k), t as u32))
                .collect()
        })
        .collect();
    let torus = Arc::new(topologies::torus(3, 3));
    let mut torus_plan: Vec<Vec<Injection>> = Vec::new();
    for seed in 0..2 {
        let pool = aqt_adversary::stochastic::random_routes(&torus, 4, 24, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        torus_plan.extend((1..=150u32).map(|t| {
            (0..rng.gen_range(0..3))
                .map(|_| Injection::new(pool[rng.gen_range(0..pool.len())].clone(), t))
                .collect()
        }));
    }
    for (g, plan, drain) in [(&ring, &ring_plan, 60), (&torus, &torus_plan, 1200)] {
        for &name in protocol_names() {
            let mut eng = checked_engine(g, name, 5);
            for inj in plan {
                step(&mut eng, inj.clone());
            }
            // quiet drain: the active-edge set shrinks to nothing
            if let Err(e) = eng.run_quiet(drain) {
                panic!("{name} drain: {e}");
            }
            assert_oracle_agrees(&eng);
            assert_eq!(eng.backlog(), 0, "{name}: drain must complete");
        }
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
    if let Err(e) = run.recorded.replay(&mut eng, run.total_steps) {
        panic!("replay: {e}");
    }
    assert_oracle_agrees(&eng);
    // and the engine matches the driver's own measurement of the final
    // queue
    let s_end = run.iterations.last().expect("one iteration").s_end;
    assert_eq!(eng.backlog(), s_end);
}
