//! Fault injection & recovery: knock a stable system over mid-run and
//! watch it re-settle within the Observation 4.4 bound — then resume
//! the same run from a mid-run checkpoint, bit-for-bit.
//!
//! ```sh
//! cargo run --release --example fault_recovery
//! ```

use std::sync::Arc;

use adversarial_queuing::adversary::stochastic::{
    random_routes, InjectionStyle, SaturatingAdversary,
};
use adversarial_queuing::core::experiments::e14_fault_recovery;
use adversarial_queuing::core::report::e14_section;
use adversarial_queuing::core::theory::StabilityCertificate;
use adversarial_queuing::graph::topologies;
use adversarial_queuing::protocols::Fifo;
use adversarial_queuing::sim::{
    checkpoint, snapshot, AdversaryModelSpec, Engine, EngineConfig, FaultPlan, Injection, Ratio,
};

fn main() {
    // ----- Part 1: one fault scenario, blow by blow. -----------------
    //
    // A ring-8 under a (w, r) adversary at r = 1/(d+2) — strictly
    // below the 1/(d+1) threshold, so Theorem 4.1 keeps the system
    // stable and Observation 4.4 promises recovery from any finite
    // perturbation.
    let graph = Arc::new(topologies::ring(8));
    let d = 3;
    let (w, rate) = (8u64, Ratio::new(1, d as u64 + 2));
    let routes = random_routes(&graph, d, 64, 7);
    let mut adversary =
        SaturatingAdversary::new(&graph, w, rate, routes.clone(), InjectionStyle::Burst, 99);

    // The fault plan, fixed before the run starts so the whole
    // trajectory stays deterministic and replayable: at step 600 an
    // S-burst of 48 packets materializes (bypassing the adversary
    // validator — faults play by nobody's rules); two steps later,
    // while the burst is flooding the ring, one in-transit packet is
    // dropped and another is duplicated.
    let t_fault = 600;
    let edges: Vec<_> = graph.edge_ids().collect();
    let burst: Vec<Injection> = (0..48)
        .map(|i| Injection::new(routes[i % routes.len()].clone(), 9000))
        .collect();
    let plan = FaultPlan::new()
        .with_burst(t_fault, burst)
        .with_drop(edges[0], t_fault + 2)
        .with_duplicate(edges[1], t_fault + 2);

    let mut engine = Engine::new(
        Arc::clone(&graph),
        Fifo,
        EngineConfig {
            validate: Some(AdversaryModelSpec::window(w, rate)),
            ..Default::default()
        },
    );
    engine.install_faults(plan).expect("well-formed plan");

    // Run up to and through the fault...
    for t in 1..=t_fault {
        engine.step(adversary.injections_for(t)).expect("legal");
    }
    let s = engine.backlog();
    println!("step {t_fault}: the burst struck — backlog jumped to S = {s}");

    // ...checkpoint right after the fault (validators included)...
    let ck = checkpoint::checkpoint(&engine);

    // ...and let the system recover. `reset_peak_metrics` starts the
    // post-fault measurement window.
    engine.reset_peak_metrics();
    let cert = StabilityCertificate::with_initial(w, rate, d, s);
    let horizon = cert.recovery_horizon(true).expect("r < 1/d");
    let bound = cert.time_priority_bound().expect("r < 1/d");
    for k in 1..=2 * horizon {
        engine
            .step(adversary.injections_for(t_fault + k))
            .expect("legal");
    }
    for ev in engine.fault_log() {
        println!("  fault log: {ev:?}");
    }
    let m = engine.metrics();
    println!(
        "recovered: post-fault max buffer wait {} <= {} = ceil(w*/d) (w* = {}), backlog back to {}",
        m.max_buffer_wait(),
        bound,
        horizon,
        engine.backlog()
    );
    println!(
        "conservation: {} injected + {} duplicated = {} absorbed + {} dropped + {} in flight",
        m.injected(),
        m.duplicated(),
        m.absorbed(),
        m.dropped(),
        engine.backlog()
    );

    // The checkpoint resumes bit-for-bit: rebuild the engine the same
    // way (same plan installed at time 0), restore, re-run.
    let mut resumed = Engine::new(
        Arc::clone(&graph),
        Fifo,
        EngineConfig {
            validate: Some(AdversaryModelSpec::window(w, rate)),
            ..Default::default()
        },
    );
    resumed
        .install_faults(engine.faults().cloned().expect("plan installed"))
        .expect("well-formed plan");
    checkpoint::restore(&mut resumed, &ck).expect("matching engine");
    resumed.reset_peak_metrics();
    let mut adversary2 =
        SaturatingAdversary::new(&graph, w, rate, routes, InjectionStyle::Burst, 99);
    for t in 1..=t_fault + 2 * horizon {
        let inj = adversary2.injections_for(t);
        if t > t_fault {
            resumed.step(inj).expect("legal");
        } // injections before the checkpoint are already in its state
    }
    assert_eq!(
        snapshot::capture(&engine),
        snapshot::capture(&resumed),
        "resume must be state-identical"
    );
    println!(
        "checkpoint/resume: state-identical after {} more steps",
        2 * horizon
    );

    // ----- Part 2: the full E14 table. -------------------------------
    let rows = e14_fault_recovery(3, 8).expect("legal");
    print!("{}", e14_section(&rows).render());
    assert!(rows.iter().all(|r| r.bound_respected && r.conservation_ok));
}
