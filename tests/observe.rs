//! The queue observatory must tell the truth: the packet-lifecycle
//! spans it emits are a faithful sampled projection of the trajectory.
//! With 1-in-1 sampling the span stream determines the full lifecycle
//! of every packet, so it can be checked against [`Metrics`] exactly —
//! and the sharded engine must emit the *same* spans as the sequential
//! pipeline, shard tags aside.

use std::sync::{Arc, Mutex};

use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::registry::by_name;
use aqt_sim::telemetry::{TelemetryEvent, TelemetrySink};
use aqt_sim::{
    CertificateSpec, Engine, EngineConfig, FaultPlan, Injection, ObserveConfig, Protocol, Ratio,
    SentinelConfig, ShardPlan, TelemetryConfig,
};
use proptest::prelude::*;

/// One collected span: (time, packet, op, edge, hop, wait, shard).
type Collected = (u64, u64, &'static str, u32, u32, u64, u32);

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
            shard,
            ..
        } = event
        {
            self.0
                .lock()
                .unwrap()
                .push((*time, *packet, op.as_str(), *edge, *hop, *wait, *shard));
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
    shards: Option<ShardPlan>,
    plan: &FaultPlan,
    cohort: u64,
    inj: &[(u64, u64)],
    horizon: u64,
) -> (Engine<Box<dyn Protocol>>, Vec<Collected>) {
    let mut eng = Engine::new(Arc::clone(g), protocol, EngineConfig::default());
    if let Some(plan) = shards {
        eng.set_shards(plan).unwrap();
    }
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
    /// faults) at 1 and 4 shards, spans sampled 1-in-1: the stream
    /// reconstructs every packet's lifecycle (inject → one send per
    /// hop, enqueues between, terminal absorb), its totals match
    /// [`Metrics`] exactly, conservation holds span-side, and the
    /// sharded stream equals the sequential one up to shard tags.
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

        let run = |shards: Option<ShardPlan>| {
            observed_run(&g, by_name(name, 11).unwrap(), shards, &plan, cohort, &inj, 40)
        };
        let (seq, seq_spans) = run(None);
        let (sharded, sharded_spans) = run(Some(ShardPlan::striped(6, 4)));

        // Span totals against the engine's own metrics: 1-in-1
        // sampling sees every event of every packet.
        let m = seq.metrics();
        prop_assert_eq!(count_op(&seq_spans, "inject"), m.injected());
        prop_assert_eq!(count_op(&seq_spans, "dup"), m.duplicated());
        prop_assert_eq!(count_op(&seq_spans, "absorb"), m.absorbed());
        prop_assert_eq!(count_op(&seq_spans, "drop"), m.dropped());
        let crossings: u64 = m.crossings_per_edge().iter().sum();
        prop_assert_eq!(count_op(&seq_spans, "send"), crossings);

        // Span-side conservation: every birth (inject or duplicate)
        // ends in a terminal span or is still live in a queue.
        let live: u64 = g.edge_ids().map(|e| seq.queue_len(e) as u64).sum();
        prop_assert_eq!(
            count_op(&seq_spans, "inject") + count_op(&seq_spans, "dup"),
            count_op(&seq_spans, "absorb") + count_op(&seq_spans, "drop") + live
        );

        // Per-packet lifecycle reconstruction for packets born by
        // injection (clones start mid-route at their dup hop): an
        // absorbed packet crossed hops 0..=H exactly once each and was
        // enqueued at hops 1..=H on the way.
        let injected: std::collections::BTreeSet<u64> = seq_spans
            .iter()
            .filter(|s| s.2 == "inject")
            .map(|s| s.1)
            .collect();
        // The seeded cohort is one batched admission, yet every packet
        // gets its own id and its own inject span.
        prop_assert_eq!(injected.len() as u64, m.injected());
        for s in seq_spans.iter().filter(|s| s.2 == "absorb") {
            if !injected.contains(&s.1) {
                continue;
            }
            let mut send_hops: Vec<u32> = seq_spans
                .iter()
                .filter(|x| x.1 == s.1 && x.2 == "send")
                .map(|x| x.4)
                .collect();
            send_hops.sort_unstable();
            let expect: Vec<u32> = (0..=s.4).collect();
            prop_assert_eq!(&send_hops, &expect, "packet {} send hops", s.1);
            let mut enq_hops: Vec<u32> = seq_spans
                .iter()
                .filter(|x| x.1 == s.1 && x.2 == "enqueue")
                .map(|x| x.4)
                .collect();
            enq_hops.sort_unstable();
            let expect: Vec<u32> = (1..=s.4).collect();
            prop_assert_eq!(&enq_hops, &expect, "packet {} enqueue hops", s.1);
        }

        // The shard count must be invisible in the span stream: same
        // multiset of records once the shard tag is erased.
        let erase = |spans: &[Collected]| {
            let mut v: Vec<Collected> = spans
                .iter()
                .map(|&(t, p, op, e, h, w, _)| (t, p, op, e, h, w, 0))
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(erase(&seq_spans), erase(&sharded_spans));

        // The sharded run's own accounting agrees with its spans too.
        let sm = sharded.metrics();
        prop_assert_eq!(count_op(&sharded_spans, "inject"), sm.injected());
        prop_assert_eq!(count_op(&sharded_spans, "absorb"), sm.absorbed());
    }
}

/// The observatory's in-memory series: backlog ticks on cadence, the
/// margin series inheriting the sentinel's certificate bound, and the
/// per-shard load tally with its imbalance ratio.
#[test]
fn observatory_series_margin_and_shard_load() {
    let g = Arc::new(topologies::ring(8));
    let mut eng = Engine::new(Arc::clone(&g), by_name("FIFO", 3).unwrap(), {
        EngineConfig::default()
    });
    eng.set_shards(ShardPlan::striped(8, 4)).unwrap();
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

    for e in 0..8 {
        let ids = vec![EdgeId(e), EdgeId((e + 1) % 8), EdgeId((e + 2) % 8)];
        let route = Route::new(&g, ids).expect("ring edges");
        eng.seed_cohort(route, e, 2).unwrap();
    }
    eng.run_quiet(20).unwrap();

    let obs = eng.observatory();
    assert_eq!(obs.ticks(), 10, "cadence-2 ticks over 20 steps");
    assert_eq!(obs.times().first(), Some(&2));
    assert_eq!(obs.margins().len(), 10);
    let min = obs.min_margin().expect("margin series");
    assert!(min >= 0, "a quiet drain must stay certified");
    assert_eq!(
        min,
        bound as i64 - eng.metrics().max_buffer_wait() as i64,
        "margin is bound − running max wait"
    );
    assert_eq!(obs.shard_sent().len(), 4);
    let sent: u64 = obs.shard_sent().iter().sum();
    let crossings: u64 = eng.metrics().crossings_per_edge().iter().sum();
    assert_eq!(sent, crossings, "per-shard tallies sum to all crossings");
    assert!(obs.shard_imbalance().expect("sharded run") >= 1.0);

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
        .map(|&(t, _, op, edge, hop, _, _)| (t, op, edge, hop))
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
