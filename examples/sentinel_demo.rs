//! Self-checking runs, demonstrated live.
//!
//! Replays the Theorem 3.17 instability construction (FIFO at
//! `r = 1/2 + ε` on `G_ε`) with the full runtime sentinel attached —
//! every invariant at `Halt` — plus the lockstep differential oracle.
//!
//! ```text
//! cargo run --release --example sentinel_demo
//! ```
//!
//! finishes cleanly: a known-good run passes every check. Then
//!
//! ```text
//! cargo run --release --example sentinel_demo --features demo-corruption
//! ```
//!
//! compiles an intentionally broken absorption path into the engine
//! (absorbed packets with `id % 977 == 5` vanish without being
//! counted). The sentinel halts the run within one cadence window,
//! and this demo replays the attached repro bundle to show the
//! violation is reproducible from the bundle alone.

use std::sync::Arc;

use aqt_core::instability::{InstabilityConfig, InstabilityConstruction};
use aqt_graph::Route;
use aqt_protocols::Fifo;
use aqt_sim::{snapshot, Engine, EngineConfig, EngineError, SentinelConfig};

fn main() {
    // A test-sized G_eps run: eps = 1/4, m = 4, one iteration, with
    // the adversary's operations recorded for exact replay.
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

    let cadence = 64;
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    eng.attach_sentinel(
        SentinelConfig::all_halt()
            .with_cadence(cadence)
            .with_seed(0xA0_17),
    );
    eng.attach_oracle(Box::new(Fifo), cadence);
    for _ in 0..run.s_star {
        eng.seed(unit.clone(), 0).expect("seeding");
    }

    println!(
        "replaying the Theorem 3.17 construction: {} steps, every \
         invariant at Halt, oracle diff every {cadence} steps",
        run.total_steps
    );

    match run.recorded.replay(&mut eng, run.total_steps) {
        Ok(()) => {
            let s = eng.sentinel().expect("attached");
            println!(
                "clean run: {} sentinel checks, 0 violations, final \
                 backlog {} (driver measured {})",
                s.checks_run(),
                eng.backlog(),
                run.iterations.last().expect("one iteration").s_end
            );
            println!(
                "now try: cargo run --release --example sentinel_demo \
                 --features demo-corruption"
            );
        }
        Err(EngineError::Invariant(report)) => {
            println!("sentinel halt: {report}");
            let bundle = &report.bundle;
            println!(
                "repro bundle: seed={:?} step={} snapshot backlog={} faults={}",
                bundle.seed,
                bundle.step,
                bundle
                    .snapshot
                    .buffers
                    .iter()
                    .map(|b| b.len() as u64)
                    .sum::<u64>(),
                if bundle.fault_plan.is_some() {
                    "installed"
                } else {
                    "none"
                }
            );

            // Replay the bundle: restore its snapshot into a fresh
            // engine and recount the books independently.
            let mut fresh = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
            snapshot::restore(&mut fresh, &bundle.snapshot).expect("bundle snapshot restores");
            let live: u64 = graph.edge_ids().map(|e| fresh.queue_len(e) as u64).sum();
            let m = fresh.metrics();
            println!(
                "bundle replay: injected({}) + duplicated({}) vs \
                 absorbed({}) + dropped({}) + live({}) -> imbalance {}",
                m.injected(),
                m.duplicated(),
                m.absorbed(),
                m.dropped(),
                live,
                (m.injected() + m.duplicated()) as i128
                    - (m.absorbed() + m.dropped() + live) as i128
            );
            if cfg!(feature = "demo-corruption") {
                println!("(expected: this build has the demo-corruption bug compiled in)");
            } else {
                std::process::exit(1);
            }
        }
        Err(other) => {
            eprintln!("unexpected engine error: {other}");
            std::process::exit(2);
        }
    }
}
