//! Full-scale ε sweep of the Theorem 3.17 construction — the headline
//! numbers of experiment E1 (several minutes in release mode).
//!
//! ```sh
//! cargo run --release --example epsilon_sweep [iterations]
//! ```
//!
//! The sweep streams telemetry while it runs, all of it as
//! schema-versioned JSONL (one line per record): per-job progress
//! (with an ETA) goes to stderr and to `telemetry_epsilon_sweep.jsonl`,
//! and every engine's windowed crossing rates, hot-path counters, and
//! run provenance are appended to the same file, joinable on the
//! provenance fields.

use adversarial_queuing::core::instability::{InstabilityConfig, InstabilityConstruction};
use adversarial_queuing::sim::{
    run_sim_sweep_with_progress, JobOutcome, JsonlSink, Provenance, SharedSink, SweepConfig,
    TeeSink, TelemetryConfig,
};

fn main() {
    let iterations: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    println!(
        "Theorem 3.17 closed loop, {iterations} iterations per ε, exact rate validation on.\n"
    );

    // One JSONL sink shared by every job's engine (SharedSink is an
    // Arc, so clones all append to the same file), teed with the same
    // records on stderr for the human watching the sweep.
    let jsonl = SharedSink::new(
        JsonlSink::create("telemetry_epsilon_sweep.jsonl").expect("create telemetry JSONL"),
    );
    let progress = SharedSink::new(TeeSink::new(vec![
        Box::new(JsonlSink::from_writer(std::io::stderr())),
        Box::new(jsonl.clone()),
    ]));

    let epsilons: Vec<(u64, u64)> = vec![(1, 10), (1, 5), (1, 4), (3, 10)];
    let report = run_sim_sweep_with_progress(
        epsilons.clone(),
        &SweepConfig::no_retry(1),
        Some(&progress),
        |_, &(num, den)| {
            let mut cfg = InstabilityConfig::new(num, den);
            cfg.iterations = iterations;
            let c = InstabilityConstruction::new(cfg);
            let tcfg = TelemetryConfig::default().with_provenance(Provenance {
                protocol: "FIFO".to_string(),
                ..Provenance::default()
            });
            let t0 = std::time::Instant::now();
            let run = c.run_with_telemetry(tcfg, jsonl.clone())?;
            let series: Vec<u64> = std::iter::once(run.s_star)
                .chain(run.iterations.iter().map(|i| i.s_end))
                .collect();
            Ok(format!(
                "ε={num}/{den} (r={:.2})  n={} M={} S*={}  queue: {:?}  diverged={}  \
                 [{} steps, {:.1}s]",
                run.params.rate.as_f64(),
                run.params.n,
                run.m,
                run.s_star,
                series,
                run.diverged,
                run.total_steps,
                t0.elapsed().as_secs_f64()
            ))
        },
    );

    for (i, outcome) in report.outcomes.iter().enumerate() {
        let (num, den) = epsilons[i];
        match outcome {
            JobOutcome::Done(line) => println!("{line}"),
            JobOutcome::Quarantined(q) => println!("ε={num}/{den}: ERROR {}", q.message),
        }
    }
    jsonl.flush();
    println!("\ntelemetry: telemetry_epsilon_sweep.jsonl");
}
