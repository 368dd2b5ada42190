//! The recorded adversary of an instability run is a complete,
//! self-contained artifact: replaying it from scratch against FIFO
//! must reproduce the original execution exactly (the simulator is
//! deterministic and the recording captures every adversary action).

use std::sync::Arc;

use aqt_core::instability::{InstabilityConfig, InstabilityConstruction};
use aqt_graph::Route;
use aqt_protocols::Fifo;
use aqt_sim::{Engine, EngineConfig};

#[test]
fn recorded_schedule_reproduces_the_fifo_run() {
    let mut cfg = InstabilityConfig::new(1, 4);
    cfg.iterations = 1;
    cfg.s0_safety = 2.0;
    cfg.m_margin = 1.5;
    cfg.record_ops = true;
    let construction = InstabilityConstruction::new(cfg);
    let run = construction.run().expect("legal adversary");

    // Replay without any driver logic: same seeds, same ops, quiet
    // elsewhere.
    let graph = Arc::new(construction.geps.graph.clone());
    let ingress = construction.geps.ingress();
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    let unit = Route::single(&graph, ingress).expect("unit route");
    for _ in 0..run.s_star {
        eng.seed(unit.clone(), 0).expect("seeding");
    }
    run.recorded
        .replay(&mut eng, run.total_steps)
        .expect("replay");

    // The final fresh queue measured by the driver equals the replay's
    // backlog (the driver ends an iteration with only fresh packets in
    // the network).
    let s_end = run.iterations.last().expect("one iteration").s_end;
    assert_eq!(
        eng.backlog(),
        s_end,
        "replay backlog must equal the driver's measured fresh queue"
    );
    // And those packets all sit at the ingress with unit remaining
    // routes, ready for the next iteration.
    assert_eq!(eng.queue_len(ingress) as u64, s_end);
    assert!(eng.queue_iter(ingress).all(|p| p.remaining() == 1));
}
