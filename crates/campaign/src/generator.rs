//! Seeded scenario generation and mutation.
//!
//! Everything here is a pure function of the `StdRng` handed in, so a
//! campaign seed reproduces the exact sequence of scenarios tried.
//! The generator accepts an optional *steering target* — the coverage
//! map's least-hit feature — and biases the draw toward it: a rare
//! protocol forces that protocol, a rare topology family forces that
//! family, a rare fault-shape bucket biases fault generation. All
//! other axes stay uniform; steering narrows the search, it never
//! pins it.

use aqt_graph::{EdgeId, Graph};
use aqt_protocols::registry;
use aqt_sim::sentinel::CertificateSpec;
use aqt_sim::{AdversaryModelSpec, ConstraintSpec, Ratio, Time};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::coverage::Feature;
use crate::scenario::{
    ClosedLoopSpec, CohortSpec, FaultSpec, InjectSpec, RetrySpec, Scenario, ShedSpec, TopologySpec,
};

/// Bounds of the generator's draw, all inclusive upper limits.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Max cohorts per scenario.
    pub max_cohorts: u32,
    /// Max packets per cohort.
    pub max_count: u32,
    /// Max route length (edges).
    pub max_route_len: u32,
    /// Max run horizon (steps).
    pub max_horizon: Time,
    /// Max fault-plan entries.
    pub max_faults: u32,
    /// A certificate to plant into every generated scenario — the
    /// campaign's tripwire. `None` (the default) runs the structural
    /// invariants only.
    pub certificate: Option<CertificateSpec>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            max_cohorts: 6,
            max_count: 8,
            max_route_len: 6,
            max_horizon: 96,
            max_faults: 3,
            certificate: None,
        }
    }
}

/// A random vertex-simple route of at most `max_len` edges: start at a
/// uniform edge, extend with uniform consecutive out-edges, never
/// revisiting a node (so [`aqt_graph::Route::new`]'s simplicity check
/// always passes).
fn random_route(rng: &mut StdRng, graph: &Graph, max_len: u32) -> Vec<u32> {
    let first = EdgeId(rng.gen_range(0..graph.edge_count() as u32));
    let mut route = vec![first.0];
    let mut visited = vec![graph.src(first), graph.dst(first)];
    let mut head = graph.dst(first);
    let target = rng.gen_range(1..=max_len.max(1));
    while (route.len() as u32) < target {
        let candidates: Vec<EdgeId> = graph
            .out_edges(head)
            .iter()
            .copied()
            .filter(|&e| !visited.contains(&graph.dst(e)))
            .collect();
        let Some(&next) = candidates.as_slice().choose(rng) else {
            break;
        };
        route.push(next.0);
        head = graph.dst(next);
        visited.push(head);
    }
    route
}

fn random_topology(rng: &mut StdRng, family: Option<u8>) -> TopologySpec {
    let family = family.unwrap_or_else(|| rng.gen_range(0..TopologySpec::FAMILIES as u32) as u8);
    match family % TopologySpec::FAMILIES as u8 {
        0 => TopologySpec::Line(rng.gen_range(2..=6)),
        1 => TopologySpec::Ring(rng.gen_range(3..=8)),
        2 => TopologySpec::Grid(rng.gen_range(2..=3), rng.gen_range(2..=3)),
        3 => TopologySpec::Hypercube(rng.gen_range(2..=3)),
        _ => TopologySpec::Complete(rng.gen_range(3..=5)),
    }
}

/// Draw an adversary-constraint model with the member kinds of
/// `mask` (rate=1, window=2, burst-local=4, buffer-bound=8), in the
/// canonical member order. `mask == 0` is the empty (unconstrained)
/// model. Parameters are drawn loose enough that a modest schedule can
/// survive [`legalize`] with packets left.
fn model_for_mask(rng: &mut StdRng, mask: u8) -> Vec<ConstraintSpec> {
    let mut model = Vec::new();
    if mask & 1 != 0 {
        model.push(ConstraintSpec::Rate(Ratio::new(rng.gen_range(1..=3), 4)));
    }
    if mask & 2 != 0 {
        model.push(ConstraintSpec::Window {
            window: rng.gen_range(4..=16),
            rate: Ratio::new(rng.gen_range(1..=3), 4),
        });
    }
    if mask & 4 != 0 {
        model.push(ConstraintSpec::BurstLocal {
            rho: Ratio::new(1, rng.gen_range(2..=4)),
            sigma: rng.gen_range(1..=4),
            locality: rng.gen_range(2..=8),
        });
    }
    if mask & 8 != 0 {
        model.push(ConstraintSpec::BufferBound {
            bound: rng.gen_range(1..=6),
        });
    }
    model
}

/// Draw a model-kind bitmask: unconstrained stays the common case,
/// each single member shows up regularly, and a two-member
/// composition rounds out the alphabet.
fn random_model_mask(rng: &mut StdRng) -> u8 {
    match rng.gen_range(0..8u32) {
        0..=2 => 0,
        3 => 1,
        4 => 2,
        5 => 4,
        6 => 8,
        _ => {
            let a = 1u8 << rng.gen_range(0..4u32);
            let mut b = a;
            while b == a {
                b = 1u8 << rng.gen_range(0..4u32);
            }
            a | b
        }
    }
}

/// Clamp `injections` to what `model` admits: in time order, each
/// cohort keeps the packets whose whole route has per-edge headroom
/// (the saturating-adversary probe), and cohorts clamped to zero are
/// dropped. A legalized schedule passes the engine's exact model
/// validation by construction — fault bursts are exempt and left
/// untouched. No-op for the empty model.
fn legalize(injections: &mut Vec<InjectSpec>, model: &[ConstraintSpec], edge_count: usize) {
    if model.is_empty() {
        return;
    }
    let mut tracker = AdversaryModelSpec::new(model.to_vec()).build(edge_count);
    injections.sort_by_key(|i| i.time);
    injections.retain_mut(|inj| {
        let edges: Vec<EdgeId> = inj.cohort.route.iter().map(|&e| EdgeId(e)).collect();
        let mut admitted = 0u32;
        while admitted < inj.cohort.count && tracker.admit(&edges, inj.time) {
            admitted += 1;
        }
        inj.cohort.count = admitted;
        admitted > 0
    });
}

/// Draw a closed-loop workload spec, optionally pinning the shed
/// discipline (the coverage axis). Bounds keep runs small: at most 8
/// clients over at most 3 edges, with an optional mid-run outage to
/// ignite a retry storm.
fn random_closed_loop(rng: &mut StdRng, forced_shed: Option<u8>) -> ClosedLoopSpec {
    let shed = ShedSpec::ALL[forced_shed.unwrap_or_else(|| rng.gen_range(0..4u32) as u8) as usize
        % ShedSpec::ALL.len()];
    let retry = match rng.gen_range(0..4u32) {
        0 => RetrySpec::None,
        1 => RetrySpec::Immediate,
        2 => RetrySpec::Fixed(rng.gen_range(1..=4)),
        _ => RetrySpec::ExpBackoff(rng.gen_range(1..=4), 16),
    };
    let pause = rng.gen_bool(0.5).then(|| {
        let from = rng.gen_range(4..=16u64);
        (from, from + rng.gen_range(4..=24u64))
    });
    ClosedLoopSpec {
        num_clients: rng.gen_range(1..=8),
        think_time: rng.gen_range(1..=10),
        timeout: rng.gen_range(3..=12),
        max_attempts: rng.gen_range(1..=8),
        retry,
        capacity: rng.gen_range(1..=16),
        shed,
        pause,
        path_len: rng.gen_range(1..=3),
    }
}

fn random_cohort(rng: &mut StdRng, graph: &Graph, cfg: &GeneratorConfig, tag: u32) -> CohortSpec {
    CohortSpec {
        route: random_route(rng, graph, cfg.max_route_len),
        tag,
        count: rng.gen_range(1..=cfg.max_count.max(1)),
    }
}

fn random_fault(
    rng: &mut StdRng,
    graph: &Graph,
    cfg: &GeneratorConfig,
    horizon: Time,
) -> FaultSpec {
    let edge = rng.gen_range(0..graph.edge_count() as u32);
    // FaultPlan::validate: no step-0 faults, outage from ≤ until.
    let time = rng.gen_range(1..=horizon.max(1));
    match rng.gen_range(0..4u32) {
        0 => {
            let until = rng.gen_range(time..=horizon.max(time));
            FaultSpec::Outage {
                edge,
                from: time,
                until,
            }
        }
        1 => FaultSpec::Drop { edge, time },
        2 => FaultSpec::Duplicate { edge, time },
        _ => FaultSpec::Burst {
            time,
            cohorts: vec![random_cohort(rng, graph, cfg, 1000 + time as u32)],
        },
    }
}

/// Draw a fresh *closed-loop* scenario around `spec`: the workload
/// generates the injections, so the open-loop schedule and faults stay
/// empty, the service order is FIFO, and the topology is the spec's
/// own line. Half the draws declare the rate-1 adversary model, which
/// the ≤ 1-dispatch-per-step loop satisfies by construction — so the
/// realized injections flow through the exact model validators.
fn generate_closed_loop(rng: &mut StdRng, cfg: &GeneratorConfig, spec: ClosedLoopSpec) -> Scenario {
    let last_event = spec.pause.map_or(0, |(_, until)| until);
    let slack = cfg.max_horizon.saturating_sub(last_event + 16).max(1);
    let horizon = last_event + 16 + rng.gen_range(0..=slack);
    let model = if rng.gen_bool(0.5) {
        vec![ConstraintSpec::Rate(Ratio::new(1, 1))]
    } else {
        vec![]
    };
    Scenario {
        topology: TopologySpec::Line(spec.path_len.max(1)),
        protocol: "FIFO".into(),
        seed: rng.gen_range(0..u64::MAX),
        horizon,
        cadence: 1,
        deep_stride: rng.gen_range(1..=4),
        injections: vec![],
        faults: vec![],
        model,
        certificate: cfg.certificate,
        closed_loop: Some(spec),
    }
}

/// Draw a fresh scenario, optionally steered toward `target`.
pub fn generate(rng: &mut StdRng, cfg: &GeneratorConfig, target: Option<Feature>) -> Scenario {
    let forced_shed = match target {
        Some(Feature::ClosedLoop(s)) => Some(s),
        _ => None,
    };
    if forced_shed.is_some() || (target.is_none() && rng.gen_range(0..8u32) == 0) {
        let spec = random_closed_loop(rng, forced_shed);
        return generate_closed_loop(rng, cfg, spec);
    }
    let forced_family = match target {
        Some(Feature::Topology(f)) => Some(f),
        _ => None,
    };
    let model_mask = match target {
        Some(Feature::Model(m)) => m % 16,
        _ => random_model_mask(rng),
    };
    let topology = random_topology(rng, forced_family);
    let graph = topology.build();
    let protocol = match target {
        Some(Feature::Protocol(i)) => {
            registry::protocol_names()[i as usize % registry::protocol_names().len()].to_string()
        }
        _ => registry::protocol_names()
            .choose(rng)
            .expect("registry is nonempty")
            .to_string(),
    };
    // Leave slack after the last event so injected packets can drain
    // (and the sentinel can observe the drained state).
    let last_event = rng.gen_range(1..=cfg.max_horizon.saturating_sub(16).max(1));
    let horizon = last_event + 16;
    let cohorts = rng.gen_range(1..=cfg.max_cohorts.max(1));
    let mut injections: Vec<InjectSpec> = (0..cohorts)
        .map(|tag| InjectSpec {
            time: rng.gen_range(1..=last_event),
            cohort: random_cohort(rng, &graph, cfg, tag),
        })
        .collect();
    let model = model_for_mask(rng, model_mask);
    legalize(&mut injections, &model, graph.edge_count());
    let want_faults = match target {
        Some(Feature::FaultShapes(0)) => 0,
        Some(Feature::FaultShapes(_)) => cfg.max_faults.max(1),
        _ => rng.gen_range(0..=cfg.max_faults),
    };
    let faults = (0..want_faults)
        .map(|_| random_fault(rng, &graph, cfg, last_event))
        .collect();
    Scenario {
        topology,
        protocol,
        seed: rng.gen_range(0..u64::MAX),
        horizon,
        cadence: 1,
        deep_stride: rng.gen_range(1..=4),
        injections,
        faults,
        model,
        certificate: cfg.certificate,
        closed_loop: None,
    }
}

/// Mutate `base`: one structural tweak per call, so corpus entries
/// drift through the neighborhood of behavior that earned them their
/// place.
pub fn mutate(rng: &mut StdRng, cfg: &GeneratorConfig, base: &Scenario) -> Scenario {
    let mut s = base.clone();
    // Closed-loop scenarios mutate within the closed-loop neighborhood:
    // the open-loop arms (cohorts, faults, protocol swaps) would make
    // them unbuildable or dishonest (the service order is FIFO).
    if let Some(spec) = &mut s.closed_loop {
        match rng.gen_range(0..6u32) {
            0 => s.seed = rng.gen_range(0..u64::MAX),
            1 => spec.shed = ShedSpec::ALL[rng.gen_range(0..4u32) as usize],
            2 => {
                spec.retry = match rng.gen_range(0..4u32) {
                    0 => RetrySpec::None,
                    1 => RetrySpec::Immediate,
                    2 => RetrySpec::Fixed(rng.gen_range(1..=4)),
                    _ => RetrySpec::ExpBackoff(rng.gen_range(1..=4), 16),
                };
            }
            3 => spec.timeout = rng.gen_range(3..=12),
            4 => spec.capacity = rng.gen_range(1..=16),
            _ => {
                // Toggle the outage; keep the horizon covering it.
                spec.pause = match spec.pause {
                    Some(_) => None,
                    None => {
                        let from = rng.gen_range(4..=16u64);
                        Some((from, from + rng.gen_range(4..=24u64)))
                    }
                };
            }
        }
        if let Some((_, until)) = spec.pause {
            s.horizon = s.horizon.max(until + 16);
        }
        return s;
    }
    let graph = s.topology.build();
    match rng.gen_range(0..8u32) {
        // Re-seed: same structure, different protocol randomness.
        0 => s.seed = rng.gen_range(0..u64::MAX),
        // Swap protocol.
        1 => {
            s.protocol = registry::protocol_names()
                .choose(rng)
                .expect("registry is nonempty")
                .to_string();
        }
        // Add a cohort.
        2 => {
            let time = rng.gen_range(1..=s.horizon.saturating_sub(16).max(1));
            s.injections.push(InjectSpec {
                time,
                cohort: random_cohort(rng, &graph, cfg, s.injections.len() as u32),
            });
        }
        // Drop a cohort (keep at least one).
        3 => {
            if s.injections.len() > 1 {
                let i = rng.gen_range(0..s.injections.len());
                s.injections.remove(i);
            } else {
                s.seed = rng.gen_range(0..u64::MAX);
            }
        }
        // Grow a cohort.
        4 => {
            let i = rng.gen_range(0..s.injections.len());
            let c = &mut s.injections[i].cohort;
            c.count = (c.count + rng.gen_range(1..=4u32)).min(cfg.max_count * 2);
        }
        // Toggle faults: add one, or clear them.
        5 => {
            if s.faults.is_empty() || rng.gen_bool(0.7) {
                let last = s.horizon.saturating_sub(16).max(1);
                s.faults.push(random_fault(rng, &graph, cfg, last));
            } else {
                s.faults.clear();
            }
        }
        // Toggle the adversary model: attach a single-member model, or
        // lift the constraint entirely.
        6 => {
            if s.model.is_empty() {
                let mask = 1u8 << rng.gen_range(0..4u32);
                s.model = model_for_mask(rng, mask);
            } else {
                s.model.clear();
            }
        }
        // Flip to closed-loop: the workload replaces the open-loop
        // schedule (and the model, which the dispatch sequence may not
        // satisfy), and the run becomes FIFO over the spec's own line.
        _ => {
            let spec = random_closed_loop(rng, None);
            s.injections.clear();
            s.faults.clear();
            s.model.clear();
            s.protocol = "FIFO".into();
            s.topology = TopologySpec::Line(spec.path_len.max(1));
            let last_event = spec.pause.map_or(0, |(_, until)| until);
            s.horizon = s.horizon.max(last_event + 16);
            s.closed_loop = Some(spec);
            return s;
        }
    }
    // A structural tweak can push the schedule past the (possibly
    // freshly attached) model; clamp it back to legality so mutants
    // run clean rather than tripping the validator.
    legalize(&mut s.injections, &s.model, graph.edge_count());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_scenario, Outcome};
    use aqt_sim::Constraint;
    use rand::SeedableRng;

    #[test]
    fn generated_scenarios_build_and_run() {
        let cfg = GeneratorConfig::default();
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..40 {
            let s = generate(&mut rng, &cfg, None);
            s.build()
                .unwrap_or_else(|e| panic!("scenario {i} unbuildable: {e}\n{s:?}"));
            match run_scenario(&s) {
                Outcome::Clean(_) => {}
                other => panic!("scenario {i}: expected clean, got {other:?}"),
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GeneratorConfig::default();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(
                generate(&mut a, &cfg, None).fingerprint(),
                generate(&mut b, &cfg, None).fingerprint()
            );
        }
    }

    #[test]
    fn steering_forces_the_targeted_axis() {
        let cfg = GeneratorConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..9u8 {
            let s = generate(&mut rng, &cfg, Some(Feature::Protocol(i)));
            assert_eq!(s.protocol, registry::protocol_names()[i as usize]);
        }
        for f in 0..TopologySpec::FAMILIES as u8 {
            let s = generate(&mut rng, &cfg, Some(Feature::Topology(f)));
            assert_eq!(s.topology.family(), f);
        }
        for m in [0u8, 1, 2, 4, 8, 3, 5, 9, 12, 15] {
            let s = generate(&mut rng, &cfg, Some(Feature::Model(m)));
            assert_eq!(s.model_mask(), m, "steering must force the model axis");
        }
        for shed in 0..4u8 {
            let s = generate(&mut rng, &cfg, Some(Feature::ClosedLoop(shed)));
            let spec = s.closed_loop.expect("steering forces a closed loop");
            assert_eq!(spec.shed.index(), shed);
            assert!(s.injections.is_empty() && s.faults.is_empty());
        }
    }

    #[test]
    fn steered_closed_loop_scenarios_run_clean_for_every_shed() {
        let cfg = GeneratorConfig::default();
        let mut rng = StdRng::seed_from_u64(17);
        for shed in 0..4u8 {
            for _ in 0..5 {
                let s = generate(&mut rng, &cfg, Some(Feature::ClosedLoop(shed)));
                s.build()
                    .unwrap_or_else(|e| panic!("closed-loop scenario unbuildable: {e}\n{s:?}"));
                match run_scenario(&s) {
                    Outcome::Clean(stats) => {
                        assert_eq!(stats.steps, s.horizon);
                        assert!(stats.sentinel_rounds > 0, "sentinel watches the loop");
                    }
                    other => panic!("shed {shed}: expected clean, got {other:?}\n{s:?}"),
                }
            }
        }
    }

    #[test]
    fn closed_loop_mutations_stay_closed_loop_and_buildable() {
        let cfg = GeneratorConfig::default();
        let mut rng = StdRng::seed_from_u64(23);
        let mut s = generate(&mut rng, &cfg, Some(Feature::ClosedLoop(0)));
        for i in 0..40 {
            s = mutate(&mut rng, &cfg, &s);
            assert!(s.closed_loop.is_some(), "mutation {i} detached the loop");
            s.build()
                .unwrap_or_else(|e| panic!("mutation {i} unbuildable: {e}\n{s:?}"));
        }
    }

    #[test]
    fn generator_reaches_every_model_variant_within_budget() {
        // The unsteered generator must surface the whole model
        // alphabet — no model, each single member, and at least one
        // composition — within a bounded draw budget, and every
        // legalized schedule must satisfy its own declared model.
        let cfg = GeneratorConfig::default();
        let mut rng = StdRng::seed_from_u64(20);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            let s = generate(&mut rng, &cfg, None);
            seen.insert(s.model_mask());
            if !s.model.is_empty() {
                let mut check =
                    AdversaryModelSpec::new(s.model.clone()).build(s.topology.build().edge_count());
                let mut injections = s.injections.clone();
                injections.sort_by_key(|i| i.time);
                for inj in &injections {
                    let edges: Vec<EdgeId> = inj.cohort.route.iter().map(|&e| EdgeId(e)).collect();
                    for _ in 0..inj.cohort.count {
                        check
                            .observe_route(&edges, inj.time)
                            .expect("legalized schedule must satisfy its model");
                    }
                }
            }
        }
        for mask in [0u8, 1, 2, 4, 8] {
            assert!(seen.contains(&mask), "model mask {mask} never generated");
        }
        assert!(
            seen.iter().any(|m| m.count_ones() >= 2),
            "no composed model generated within the budget"
        );
    }

    #[test]
    fn mutations_stay_buildable() {
        let cfg = GeneratorConfig::default();
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = generate(&mut rng, &cfg, None);
        for i in 0..60 {
            s = mutate(&mut rng, &cfg, &s);
            s.build()
                .unwrap_or_else(|e| panic!("mutation {i} unbuildable: {e}\n{s:?}"));
        }
    }

    #[test]
    fn random_routes_are_simple_paths() {
        let mut rng = StdRng::seed_from_u64(5);
        for spec in [
            TopologySpec::Ring(6),
            TopologySpec::Grid(3, 3),
            TopologySpec::Complete(4),
        ] {
            let graph = spec.build();
            for _ in 0..50 {
                let route = random_route(&mut rng, &graph, 8);
                let edges: Vec<EdgeId> = route.iter().map(|&e| EdgeId(e)).collect();
                aqt_graph::Route::new(&graph, edges)
                    .unwrap_or_else(|e| panic!("invalid route {route:?} on {spec:?}: {e}"));
            }
        }
    }
}
