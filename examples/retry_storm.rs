//! Experiment E17: closed-loop timeout–retry storms and congestion
//! collapse.
//!
//! A fixed client population drives the network through a bounded
//! admission queue. A 30-step service outage ignites the storm: once
//! queueing delay exceeds the client timeout, FIFO service does only
//! throw-away work (every served attempt's client has already timed
//! out and retried), so the system locks into a collapsed steady state
//! — goodput near zero while the wire stays 100% busy. LIFO service or
//! deadline-drop shedding serve *fresh* work and recover.
//!
//! ```sh
//! cargo run --release --example retry_storm [horizon]
//! ```
//!
//! The default horizon is 600 steps; CI runs `retry_storm 300` as a
//! smoke test. Every run enforces the request-conservation sentinel
//! invariant and verifies bit-identical reproducibility (same-seed
//! re-run plus open-loop replay of the realized injection schedule).
//!
//! The collapse cell is also re-run with full observability (backlog
//! ticks, lifecycle spans, goodput windows on one time axis) into
//! `target/retry_storm_telemetry.jsonl`, ready for the offline
//! analyzer: `cargo run --release --example observatory <file>`.

use adversarial_queuing::core::experiments::{e17_closed_loop, e17_collapse_demo, e17_config};
use adversarial_queuing::core::report::e17_table;
use adversarial_queuing::sim::{
    JsonlSink, ObserveConfig, SharedSink, TelemetryConfig, TelemetryLevel,
};
use adversarial_queuing::workload::{ClosedLoop, RetryPolicy, Shed};

fn main() {
    let horizon: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(600);

    println!(
        "Closed-loop request/reply over a 2-edge path: 8 clients, think 8, \
         bounded admission queue, 30-step outage at t=40.\n"
    );

    let (headline, reproducible) = e17_collapse_demo(horizon).expect("closed loop runs");
    let title = "E17 headline: timeout 5, queue 16, immediate retry — shed discipline decides";
    println!("{}", e17_table(title, &headline).render());
    println!("bit-identical re-run and open-loop replay of the collapse cell: {reproducible}\n");

    let rows = e17_closed_loop(horizon).expect("closed loop runs");
    let title = "E17 frontier: timeout x retry x queue bound x shed";
    println!("{}", e17_table(title, &rows).render());

    let collapsed = rows.iter().filter(|r| r.collapsed).count();
    println!(
        "{} of {} cells collapsed. The frontier: FIFO + immediate retry collapses \
         whenever the full-queue round trip exceeds the timeout; LIFO and \
         deadline-drop recover at identical parameters.",
        collapsed,
        rows.len()
    );

    // Re-run the collapse cell instrumented: engine telemetry, the
    // queue observatory, and the goodput meter share one JSONL sink,
    // so backlog ticks, lifecycle spans, and goodput windows land on
    // a single time axis. Analyze the stream offline with
    // `cargo run --release --example observatory <file>`.
    let mut cfg = e17_config(5, 16, RetryPolicy::Immediate, Shed::RejectNewest, 1700);
    cfg.window = 50;
    let mut cl = ClosedLoop::on_line(cfg);
    std::fs::create_dir_all("target").expect("create target/");
    let jsonl = "target/retry_storm_telemetry.jsonl";
    let sink = SharedSink::new(JsonlSink::create(jsonl).expect("create telemetry JSONL"));
    cl.attach_observability(
        TelemetryConfig {
            level: TelemetryLevel::Counters,
            window: 50,
            ..TelemetryConfig::default()
        },
        ObserveConfig::default()
            .with_cadence(25)
            .with_span_sample_every(64),
        sink.clone(),
    );
    cl.run(horizon).expect("instrumented storm runs");
    cl.engine_mut().finish_telemetry();
    sink.flush();
    println!("\njoined telemetry stream (backlog + spans + goodput windows): {jsonl}");
}
