//! Peak packet-storage accounting on representative workloads: how many
//! heap bytes the engine commits per queued packet at the backlog peak
//! (buffer capacity plus route-table storage). Prints one line per
//! workload; the benchmark (`crates/benchmark`) reports the same
//! quantity as `sim.bytes_per_packet`.

use std::sync::Arc;

use aqt_core::instability::{InstabilityConfig, InstabilityConstruction};
use aqt_graph::{topologies, Route};
use aqt_protocols::Fifo;
use aqt_sim::{Engine, EngineConfig, Packet, Protocol};

fn report<P: Protocol>(name: &str, eng: &Engine<P>) {
    let backlog = eng.backlog();
    let bytes = eng.packet_heap_bytes();
    println!(
        "{name}: backlog={backlog} heap_bytes={bytes} bytes_per_packet={:.1} (packet struct: {} B)",
        bytes as f64 / backlog.max(1) as f64,
        std::mem::size_of::<Packet>()
    );
}

fn main() {
    // The bench's instability replay, measured at the end of the run
    // (the instability construction's backlog peaks at the end).
    let construction = {
        let mut cfg = InstabilityConfig::new(1, 4);
        cfg.iterations = 1;
        cfg.record_ops = true;
        cfg.validate = false;
        cfg.s0_safety = 2.0;
        cfg.m_margin = 1.5;
        InstabilityConstruction::new(cfg)
    };
    let run = construction.run().expect("legal adversary");
    let graph = Arc::new(construction.geps.graph.clone());
    let ingress = construction.geps.ingress();
    let unit = Route::single(&graph, ingress).expect("unit route");
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    eng.seed_cohort(unit, 0, run.s_star).expect("seeding");
    run.recorded
        .clone()
        .run(&mut eng, run.total_steps)
        .expect("replay");
    report("instability", &eng);

    // The bench's drain workload at full seed (peak occupancy is the
    // seeded state; measure before draining).
    let graph = Arc::new(topologies::line(256));
    let e0 = graph.edge_ids().next().expect("line has edges");
    let unit = Route::single(&graph, e0).expect("unit route");
    let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
    eng.seed_cohort(unit, 0, 20_000).expect("seeding");
    report("drain-seeded", &eng);
}
