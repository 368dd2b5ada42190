//! Differential testing: a tiny, independent re-implementation of the
//! AQT model (Section 2 of the paper), written for obviousness rather
//! than speed, compared step-by-step against `aqt_sim::Engine` on
//! randomized workloads.
//!
//! The reference keeps whole-network state as plain vectors and
//! re-derives everything each step; the only shared assumptions with
//! the engine are the model semantics themselves (send one per
//! nonempty buffer; receive/absorb; inject; transit-before-injection
//! arrival order, transits ordered by sending edge).
//!
//! Why this file exists next to the lockstep oracle
//! (`aqt_sim::ReferenceModel`, see `tests/pipeline_equivalence.rs`): it
//! is the only reference that shares no `Packet`, `RouteTable` or
//! `canonical_buffers` code with the engine. The oracle mirrors the
//! engine's route interning and compares route *ids*, so a bug in that
//! shared code moves both sides identically. Checked by breaking
//! `RouteTable::get` to return the entry of id `i ^ 1` whenever it has
//! the same length as entry `i` (a wrong route, but never an
//! out-of-range hop): all four `pipeline_equivalence` tests still pass,
//! while all three tests here fail with "buffer divergence".

use std::collections::VecDeque;
use std::sync::Arc;

use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::{Fifo, Lifo};
use aqt_sim::engine::Injection;
use aqt_sim::{Engine, EngineConfig, Protocol};
use proptest::prelude::*;

/// Per-edge (packet id, hop) pairs.
type BufferFingerprint = Vec<Vec<(u64, usize)>>;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which reference scheduling rule to apply.
#[derive(Clone, Copy, PartialEq)]
enum RefPolicy {
    Fifo,
    Lifo,
}

/// One reference packet: (id, route, hop).
#[derive(Clone, Debug, PartialEq)]
struct RefPacket {
    id: u64,
    route: Vec<EdgeId>,
    hop: usize,
}

/// The reference simulator.
struct Reference {
    policy: RefPolicy,
    /// buffer per edge, front = earliest arrival
    buffers: Vec<VecDeque<RefPacket>>,
    absorbed: Vec<u64>,
    next_id: u64,
}

impl Reference {
    fn new(graph: &Graph, policy: RefPolicy) -> Self {
        let m = graph.edge_count();
        Reference {
            policy,
            buffers: vec![VecDeque::new(); m],
            absorbed: Vec::new(),
            next_id: 0,
        }
    }

    fn inject_now(&mut self, route: &[EdgeId]) {
        let p = RefPacket {
            id: self.next_id,
            route: route.to_vec(),
            hop: 0,
        };
        self.next_id += 1;
        self.buffers[route[0].index()].push_back(p);
    }

    fn step(&mut self, injections: &[Vec<EdgeId>]) {
        // substep 1: pick one per nonempty buffer
        let mut sent: Vec<RefPacket> = Vec::new();
        for ei in 0..self.buffers.len() {
            if self.buffers[ei].is_empty() {
                continue;
            }
            let p = match self.policy {
                RefPolicy::Fifo => self.buffers[ei].pop_front().unwrap(),
                RefPolicy::Lifo => self.buffers[ei].pop_back().unwrap(),
            };
            sent.push(p);
        }
        // substep 2a: receive, in ascending order of the edge crossed
        // (the order `sent` was built in)
        for mut p in sent {
            if p.hop + 1 == p.route.len() {
                self.absorbed.push(p.id);
            } else {
                p.hop += 1;
                let next = p.route[p.hop];
                self.buffers[next.index()].push_back(p);
            }
        }
        // substep 2b: inject
        for r in injections {
            self.inject_now(r);
        }
    }

    /// (buffer contents as (id, hop) pairs per edge, absorbed ids)
    fn fingerprint(&self) -> (BufferFingerprint, &[u64]) {
        (
            self.buffers
                .iter()
                .map(|b| b.iter().map(|p| (p.id, p.hop)).collect())
                .collect(),
            &self.absorbed,
        )
    }
}

/// Drive both simulators with identical random traffic and compare
/// full state after every step.
fn differential_run(policy: RefPolicy, seed: u64, steps: u64) {
    let graph = topologies::torus(3, 3);
    let arc = Arc::new(graph.clone());
    let mut reference = Reference::new(&graph, policy);
    let boxed: Box<dyn Protocol> = match policy {
        RefPolicy::Fifo => Box::new(Fifo),
        RefPolicy::Lifo => Box::new(Lifo),
    };
    let mut engine = Engine::new(Arc::clone(&arc), boxed, EngineConfig::default());

    let mut rng = StdRng::seed_from_u64(seed);
    // pregenerate a route pool
    let routes: Vec<Route> = aqt_adversary::stochastic::random_routes(&arc, 4, 24, seed);

    for _t in 1..=steps {
        let k = rng.gen_range(0..3usize);
        let picks: Vec<&Route> = (0..k)
            .map(|_| &routes[rng.gen_range(0..routes.len())])
            .collect();
        let ref_inj: Vec<Vec<EdgeId>> = picks.iter().map(|r| r.edges().to_vec()).collect();
        let eng_inj: Vec<Injection> = picks
            .iter()
            .map(|r| Injection::new((*r).clone(), 0))
            .collect();
        reference.step(&ref_inj);
        engine.step(eng_inj).expect("no validators");

        // compare state
        let (ref_buffers, ref_absorbed) = reference.fingerprint();
        for e in arc.edge_ids() {
            let eng_buf: Vec<(u64, usize)> = engine
                .queue_iter(e)
                .map(|p| (p.id.0, p.traversed()))
                .collect();
            assert_eq!(
                eng_buf,
                ref_buffers[e.index()],
                "buffer divergence at edge {e} (seed {seed})"
            );
        }
        assert_eq!(engine.metrics().absorbed(), ref_absorbed.len() as u64);
    }
}

#[test]
fn fifo_matches_reference() {
    for seed in 0..8 {
        differential_run(RefPolicy::Fifo, seed, 300);
    }
}

#[test]
fn lifo_matches_reference() {
    for seed in 100..108 {
        differential_run(RefPolicy::Lifo, seed, 300);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized seeds and lengths (shorter runs, more variety).
    #[test]
    fn fifo_differential_property(seed in 0u64..10_000, steps in 10u64..120) {
        differential_run(RefPolicy::Fifo, seed, steps);
    }
}
