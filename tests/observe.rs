//! The queue observatory must tell the truth: the packet-lifecycle
//! spans it emits are a faithful sampled projection of the trajectory.
//! With 1-in-1 sampling the span stream determines the full lifecycle
//! of every packet, so it can be checked against [`Metrics`] exactly.

use std::sync::{Arc, Mutex};

use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::registry::by_name;
use aqt_sim::telemetry::{TelemetryEvent, TelemetrySink};
use aqt_sim::{
    CertificateSpec, Engine, EngineConfig, FaultPlan, Injection, ObserveConfig, Protocol, Ratio,
    SentinelConfig, TelemetryConfig,
};
use proptest::prelude::*;

/// One collected span: (time, packet, op, edge, hop, wait).
type Collected = (u64, u64, &'static str, u32, u32, u64);

/// One collected `backlog` record: (time, total, margin).
type Tick = (u64, u64, Option<i64>);

/// A sink keeping every span record in memory.
#[derive(Clone)]
struct SpanCollector(Arc<Mutex<Vec<Collected>>>);

impl TelemetrySink for SpanCollector {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        if let TelemetryEvent::Span {
            time,
            packet,
            op,
            edge,
            hop,
            wait,
            ..
        } = event
        {
            self.0
                .lock()
                .unwrap()
                .push((*time, *packet, op.as_str(), *edge, *hop, *wait));
        }
    }
}

/// A sink keeping every `backlog` record in memory.
#[derive(Clone, Default)]
struct TickCollector(Arc<Mutex<Vec<Tick>>>);

impl TickCollector {
    fn ticks(&self) -> Vec<Tick> {
        self.0.lock().unwrap().clone()
    }
}

impl TelemetrySink for TickCollector {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        if let TelemetryEvent::Backlog {
            time,
            total,
            margin,
            ..
        } = event
        {
            self.0.lock().unwrap().push((*time, *total, *margin));
        }
    }
}

/// A length-3 route around `ring(6)` starting at edge `start`.
fn ring_route(g: &Arc<Graph>, start: u64) -> Route {
    let ids = vec![
        EdgeId((start % 6) as u32),
        EdgeId(((start + 1) % 6) as u32),
        EdgeId(((start + 2) % 6) as u32),
    ];
    Route::new(g, ids).expect("contiguous ring edges")
}

/// Build an engine with full-coverage span sampling wired to a fresh
/// collector, seed a cohort, install `plan`, and drive `inj` to step
/// `horizon`.
fn observed_run(
    g: &Arc<Graph>,
    protocol: Box<dyn Protocol>,
    plan: &FaultPlan,
    cohort: u64,
    inj: &[(u64, u64)],
    horizon: u64,
) -> (Engine<Box<dyn Protocol>>, Vec<Collected>) {
    let mut eng = Engine::new(Arc::clone(g), protocol, EngineConfig::default());
    eng.attach_telemetry(TelemetryConfig::default());
    eng.attach_observatory(
        ObserveConfig::default()
            .with_cadence(8)
            .with_span_sample_every(1),
    );
    let collector = SpanCollector(Arc::new(Mutex::new(Vec::new())));
    eng.set_telemetry_sink(Box::new(collector.clone()));
    eng.seed_cohort(ring_route(g, 0), 7, cohort).unwrap();
    eng.install_faults(plan.clone()).unwrap();
    for t in 1..=horizon {
        let packets: Vec<Injection> = inj
            .iter()
            .filter(|&&(at, _)| at == t)
            .map(|&(_, start)| Injection::new(ring_route(g, start), start as u32))
            .collect();
        eng.step(packets).unwrap();
    }
    let spans = collector.0.lock().unwrap().clone();
    (eng, spans)
}

fn count_op(spans: &[Collected], op: &str) -> u64 {
    spans.iter().filter(|s| s.2 == op).count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random runs (seeded cohort + schedule + loss/duplication/outage
    /// faults), spans sampled 1-in-1: the stream reconstructs every
    /// packet's lifecycle (inject → one send per hop, enqueues between,
    /// terminal absorb) in stream order, its totals match [`Metrics`]
    /// exactly, and conservation holds span-side.
    #[test]
    fn spans_reconstruct_lifecycles_and_match_metrics(
        proto in 0usize..3,
        cohort in 0u64..4,
        inj_raw in prop::collection::vec(0u64..180, 0..24),
        drops in prop::collection::vec(0u64..150, 0..3),
        dups in prop::collection::vec(0u64..150, 0..3),
        outage in 0u64..150,
        outage_len in 0u64..6,
    ) {
        let g = Arc::new(topologies::ring(6));
        let name = ["FIFO", "LIFO", "LIS"][proto];
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

        let (eng, spans) =
            observed_run(&g, by_name(name, 11).unwrap(), &plan, cohort, &inj, 40);

        // Span totals against the engine's own metrics: 1-in-1
        // sampling sees every event of every packet.
        let m = eng.metrics();
        prop_assert_eq!(count_op(&spans, "inject"), m.injected());
        prop_assert_eq!(count_op(&spans, "dup"), m.duplicated());
        prop_assert_eq!(count_op(&spans, "absorb"), m.absorbed());
        prop_assert_eq!(count_op(&spans, "drop"), m.dropped());
        let crossings: u64 = m.crossings_per_edge().iter().sum();
        prop_assert_eq!(count_op(&spans, "send"), crossings);

        // Span-side conservation: every birth (inject or duplicate)
        // ends in a terminal span or is still live in a queue.
        let live: u64 = g.edge_ids().map(|e| eng.queue_len(e) as u64).sum();
        prop_assert_eq!(
            count_op(&spans, "inject") + count_op(&spans, "dup"),
            count_op(&spans, "absorb") + count_op(&spans, "drop") + live
        );

        // Per-packet lifecycle reconstruction for packets born by
        // injection (clones start mid-route at their dup hop): an
        // absorbed packet crossed hops 0..=H exactly once each and was
        // enqueued at hops 1..=H on the way.
        let injected: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.2 == "inject")
            .map(|s| s.1)
            .collect();
        // The seeded cohort is one batched admission, yet every packet
        // gets its own id and its own inject span.
        prop_assert_eq!(injected.len() as u64, m.injected());
        for s in spans.iter().filter(|s| s.2 == "absorb") {
            if !injected.contains(&s.1) {
                continue;
            }
            let mut send_hops: Vec<u32> = spans
                .iter()
                .filter(|x| x.1 == s.1 && x.2 == "send")
                .map(|x| x.4)
                .collect();
            send_hops.sort_unstable();
            let expect: Vec<u32> = (0..=s.4).collect();
            prop_assert_eq!(&send_hops, &expect, "packet {} send hops", s.1);
            let mut enq_hops: Vec<u32> = spans
                .iter()
                .filter(|x| x.1 == s.1 && x.2 == "enqueue")
                .map(|x| x.4)
                .collect();
            enq_hops.sort_unstable();
            let expect: Vec<u32> = (1..=s.4).collect();
            prop_assert_eq!(&enq_hops, &expect, "packet {} enqueue hops", s.1);
        }

        // The stream is in model order: steps ascending, and within a
        // packet's own records its hop never goes back (a step's send
        // precedes that step's enqueue).
        prop_assert!(spans.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut last_hop = std::collections::BTreeMap::new();
        for s in &spans {
            let prev = last_hop.insert(s.1, s.4).unwrap_or(0);
            prop_assert!(prev <= s.4, "packet {} hop went back in stream order", s.1);
        }
    }
}

/// The observatory's backlog records: ticks on cadence, the margin
/// series inheriting the sentinel's certificate bound.
#[test]
fn observatory_series_and_margin() {
    let g = Arc::new(topologies::ring(8));
    let mut eng = Engine::new(Arc::clone(&g), by_name("FIFO", 3).unwrap(), {
        EngineConfig::default()
    });
    // S-degraded certificate (Observation 4.4): S = 16, w = 8,
    // r = 1/8 < 1/(d+1) = 1/4.
    eng.attach_sentinel(
        SentinelConfig::all_halt().with_certificate(CertificateSpec {
            window: 8,
            rate: Ratio::new(1, 8),
            d: 3,
            initial: 16,
            time_priority: false,
        }),
    );
    eng.attach_observatory(ObserveConfig::default().with_cadence(2));
    let bound = eng.observatory().bound().expect("certificate bound");
    let ticks = TickCollector::default();
    eng.set_telemetry_sink(Box::new(ticks.clone()));

    for e in 0..8 {
        let ids = vec![EdgeId(e), EdgeId((e + 1) % 8), EdgeId((e + 2) % 8)];
        let route = Route::new(&g, ids).expect("ring edges");
        eng.seed_cohort(route, e, 2).unwrap();
    }
    eng.run_quiet(20).unwrap();

    let obs = eng.observatory();
    assert_eq!(obs.ticks(), 10, "cadence-2 ticks over 20 steps");
    let ticks = ticks.ticks();
    let times: Vec<u64> = ticks.iter().map(|t| t.0).collect();
    assert_eq!(times, (1..=10).map(|k| 2 * k).collect::<Vec<_>>());
    let margins: Vec<i64> = ticks.iter().map(|t| t.2.expect("margin")).collect();
    let min = obs.min_margin().expect("margin series");
    assert_eq!(margins.iter().copied().min(), Some(min));
    assert!(min >= 0, "a quiet drain must stay certified");
    assert_eq!(
        min,
        bound as i64 - eng.metrics().max_buffer_wait() as i64,
        "margin is bound − running max wait"
    );

    // Detached engines observe nothing and remember nothing.
    let mut quiet = Engine::new(g, by_name("FIFO", 3).unwrap(), EngineConfig::default());
    quiet.run_quiet(20).unwrap();
    assert_eq!(quiet.observatory().ticks(), 0);
    assert_eq!(quiet.observatory().spans_emitted(), 0);

    // An engine on `line(edges)` sampling every packet's spans.
    let spanned = |edges: usize| {
        let g = Arc::new(topologies::line(edges));
        let protocol = by_name("FIFO", 3).unwrap();
        let mut eng = Engine::new(Arc::clone(&g), protocol, EngineConfig::default());
        eng.attach_observatory(ObserveConfig::default().with_span_sample_every(1));
        let collector = SpanCollector(Arc::new(Mutex::new(Vec::new())));
        eng.set_telemetry_sink(Box::new(collector.clone()));
        (g, eng, collector)
    };

    // Attached but idle: no packet, no span.
    let (_, mut idle, spans) = spanned(1);
    idle.run_quiet(20).unwrap();
    assert!(spans.0.lock().unwrap().is_empty());

    // One packet over two edges: its whole lifecycle, in time order.
    let (g, mut one, spans) = spanned(2);
    let route = Route::new(&g, g.edge_ids().collect::<Vec<_>>()).expect("line edges");
    one.step([Injection::new(route, 0)]).unwrap();
    one.run_quiet(2).unwrap();
    let journey: Vec<(u64, &str, u32, u32)> = spans
        .0
        .lock()
        .unwrap()
        .iter()
        .map(|&(t, _, op, edge, hop, _)| (t, op, edge, hop))
        .collect();
    assert_eq!(
        journey,
        [
            (1, "inject", 0, 0),
            (2, "send", 0, 0),
            (2, "enqueue", 1, 1),
            (3, "send", 1, 1),
            (3, "absorb", 1, 1),
        ]
    );
}

/// An observatory-only run (telemetry left at `Off`) still has its sink
/// flushed by `finish_telemetry`: the backlog and span records reach
/// the writer when the run closes, not only when the engine is
/// dropped. No `run_end` record is added at `Off`.
#[test]
fn finish_telemetry_flushes_observatory_only_runs() {
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let g = Arc::new(topologies::ring(6));
    let mut eng = Engine::new(
        Arc::clone(&g),
        by_name("FIFO", 3).unwrap(),
        EngineConfig::default(),
    );
    eng.attach_observatory(
        ObserveConfig::default()
            .with_cadence(8)
            .with_span_sample_every(1),
    );
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    // Large enough to hold the whole run: only a flush empties it.
    let writer = std::io::BufWriter::with_capacity(1 << 20, buf.clone());
    eng.set_telemetry_sink(Box::new(aqt_sim::JsonlSink::from_writer(writer)));
    eng.seed_cohort(ring_route(&g, 0), 1, 4).unwrap();
    for t in 1..=40 {
        eng.step([Injection::new(ring_route(&g, t % 6), 2)])
            .unwrap();
    }
    assert!(
        buf.0.lock().unwrap().is_empty(),
        "the buffered writer holds the stream until a flush"
    );
    eng.finish_telemetry();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(
        text.contains("\"kind\":\"backlog\""),
        "backlog ticks flushed"
    );
    assert!(text.contains("\"kind\":\"span\""), "spans flushed");
    assert!(
        !text.contains("\"kind\":\"run_end\""),
        "no record added at Off"
    );
    drop(eng);
    assert_eq!(
        buf.0.lock().unwrap().len(),
        text.len(),
        "nothing was left behind for the drop to flush"
    );
}

/// A checkpoint restore re-anchors the observatory's tick schedule at
/// the restored clock: with the checkpoint on a multiple of the
/// cadence, the resumed run ticks at exactly the steps the
/// uninterrupted run does.
#[test]
fn restore_reanchors_observatory_ticks() {
    let g = Arc::new(topologies::ring(6));
    let observed = || {
        let mut eng = Engine::new(
            Arc::clone(&g),
            by_name("FIFO", 3).unwrap(),
            EngineConfig::default(),
        );
        eng.attach_observatory(ObserveConfig::default().with_cadence(8));
        let ticks = TickCollector::default();
        eng.set_telemetry_sink(Box::new(ticks.clone()));
        (eng, ticks)
    };
    let drive = |eng: &mut Engine<Box<dyn Protocol>>, from: u64, to: u64| {
        for t in from + 1..=to {
            eng.step([Injection::new(ring_route(&g, t % 6), 2)])
                .unwrap();
        }
    };

    let (mut whole, whole_ticks) = observed();
    drive(&mut whole, 0, 64);

    let (mut first, _) = observed();
    drive(&mut first, 0, 32);
    let ck = aqt_sim::checkpoint::checkpoint(&first);
    let (mut resumed, resumed_ticks) = observed();
    aqt_sim::checkpoint::restore(&mut resumed, &ck).unwrap();
    drive(&mut resumed, 32, 64);

    let after: Vec<Tick> = whole_ticks
        .ticks()
        .into_iter()
        .filter(|t| t.0 > 32)
        .collect();
    let times: Vec<u64> = after.iter().map(|t| t.0).collect();
    assert_eq!(times, [40, 48, 56, 64]);
    assert_eq!(resumed_ticks.ticks(), after, "same ticks, same trajectory");
}

/// The tick cadence never changes over a run: an observatory at
/// cadence 1 emits one `backlog` record per step, however long the run.
#[test]
fn backlog_cadence_stays_fixed_over_long_runs() {
    let g = Arc::new(topologies::line(2));
    let mut eng = Engine::new(
        Arc::clone(&g),
        by_name("FIFO", 3).unwrap(),
        EngineConfig::default(),
    );
    eng.attach_observatory(ObserveConfig::default().with_cadence(1));
    let ticks = TickCollector::default();
    eng.set_telemetry_sink(Box::new(ticks.clone()));
    let route = Route::new(&g, g.edge_ids().collect::<Vec<_>>()).expect("line edges");
    for t in 1..=5_000u64 {
        let inj: Vec<Injection> = if t % 3 == 0 {
            vec![Injection::new(route.clone(), 0)]
        } else {
            Vec::new()
        };
        eng.step(inj).unwrap();
    }
    let times: Vec<u64> = ticks.ticks().iter().map(|t| t.0).collect();
    assert_eq!(times.len(), 5_000);
    assert!(times.iter().copied().eq(1..=5_000), "one tick per step");
    assert_eq!(eng.observatory().ticks(), 5_000);
}
