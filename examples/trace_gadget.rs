//! Watch the Lemma 3.15 bootstrap work, packet by packet.
//!
//! Runs a small bootstrap on `F_n`, tracing one seeded packet through
//! the thinning (its crossings slow down edge by edge, exactly the
//! `R_i` ladder of Claim 3.9), and prints the backlog sparkline. The
//! trace comes from the queue observatory's lifecycle spans, so every
//! hop is stamped with the exact step it happened at.
//!
//! ```sh
//! cargo run --release --example trace_gadget
//! ```

use std::sync::{Arc, Mutex};

use adversarial_queuing::adversary::{lemma315, GadgetParams};
use adversarial_queuing::analysis::series::sparkline_fit;
use adversarial_queuing::graph::{EdgeId, FnGadget, Route};
use adversarial_queuing::protocols::Fifo;
use adversarial_queuing::sim::{
    AdversaryModelSpec, Engine, EngineConfig, ObserveConfig, SpanKind, TelemetryEvent,
    TelemetrySink, Time,
};

/// One lifecycle span: (time, packet, op, edge, hop, wait).
type Span = (Time, u64, SpanKind, u32, u32, Time);

/// Keeps every sampled lifecycle span in memory.
#[derive(Clone, Default)]
struct SpanLog(Arc<Mutex<Vec<Span>>>);

impl TelemetrySink for SpanLog {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        if let TelemetryEvent::Span {
            time,
            packet,
            op,
            edge,
            hop,
            wait,
            ..
        } = *event
        {
            self.0
                .lock()
                .expect("no span-log holder panics")
                .push((time, packet, op, edge, hop, wait));
        }
    }
}

fn main() {
    let params = GadgetParams::new(1, 4); // r = 3/4
    let gadget = FnGadget::new(params.n);
    let graph = Arc::new(gadget.graph.clone());
    let s = params.s0;
    println!(
        "bootstrap on F_{} at r = {:.2}, S = {s} (2S = {} seeded packets)\n",
        params.n,
        params.rate.as_f64(),
        2 * s
    );

    let mut eng = Engine::new(
        Arc::clone(&graph),
        Fifo,
        EngineConfig {
            validate: Some(AdversaryModelSpec::rate(params.rate)),
            validate_reroutes: true,
            sample_every: (2 * s + params.n as u64) / 64,
        },
    );
    // 1-in-64 span sampling with seed 0 samples the residue class of
    // id 0, so the very first seeded packet is traced.
    eng.attach_observatory(ObserveConfig::default().with_span_sample_every(64));
    let spans = SpanLog::default();
    eng.set_telemetry_sink(Box::new(spans.clone()));
    let unit = Route::single(&graph, gadget.handles.ingress).expect("route");
    for _ in 0..2 * s {
        eng.seed(unit.clone(), 0).expect("seed");
    }

    let boot = lemma315::build(&graph, &gadget.handles, &params, s, 0, 8).expect("build");
    boot.schedule.run(&mut eng, boot.finish).expect("legal");

    let spans = spans.0.lock().expect("no span-log holder panics");
    let edge = |e: u32| graph.edge_name(EdgeId(e));
    println!("packet #0's journey (exact step of every hop):");
    for &(time, _, op, e, hop, wait) in spans.iter().filter(|s| s.1 == 0) {
        match op {
            SpanKind::Inject => println!("  t={time:>6}  injected at {}", edge(e)),
            SpanKind::Send => {
                println!(
                    "  t={time:>6}  crossed {} (hop {hop}, wait {wait})",
                    edge(e)
                )
            }
            SpanKind::Enqueue => println!("  t={time:>6}  queued at {}", edge(e)),
            SpanKind::Absorb => {
                println!("  t={time:>6}  absorbed after {} (latency {wait})", edge(e))
            }
            // No faults are installed in this example.
            SpanKind::Drop | SpanKind::Duplicate => {}
        }
    }

    let backlog: Vec<u64> = eng.metrics().series().iter().map(|p| p.backlog).collect();
    println!("\nbacklog: {}", sparkline_fit(&backlog, 64));
    println!(
        "final backlog {} (S' target {}), {} spans traced, {} dropped",
        eng.backlog(),
        boot.s_prime,
        spans.len(),
        eng.observatory().spans_dropped()
    );
}
