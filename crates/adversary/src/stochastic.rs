//! Saturating adversaries for the stability experiments (Section 4).
//!
//! Theorems 4.1/4.3 are universally quantified over `(w,r)` adversaries,
//! so the experiments stress them with adversaries that inject *as much
//! as the constraint model permits*: a pool of candidate routes (random
//! simple paths of length ≤ `d`, or caller-supplied), injected greedily
//! subject to the model's per-edge headroom — including the
//! front-loaded bursts of `⌊wr⌋` packets in a single step that the
//! windowed adversary is allowed and a plain rate-r adversary is not.
//!
//! [`SaturatingAdversary::with_model`] saturates *any* composed
//! [`AdversaryModel`] — `(w,r)` windows, `(ρ,σ,L)` locally bursty
//! classes, buffer bounds, or their conjunctions — because the greedy
//! loop only consults [`Constraint::headroom`]. Legality is checked,
//! not assumed: the tracker records every injection it emits, and the
//! per-constraint tests re-validate the stream with an independent
//! model.

use aqt_graph::{EdgeId, Graph, NodeId, Route};
use aqt_sim::engine::Injection;
use aqt_sim::rate::{AdversaryModel, AdversaryModelSpec, Constraint};
use aqt_sim::{Ratio, Time};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Generate `count` random simple routes of length exactly `d` where
/// possible (shorter if a walk dead-ends), via self-avoiding random
/// walks. Deterministic for a fixed seed.
pub fn random_routes(graph: &Graph, d: usize, count: usize, seed: u64) -> Vec<Route> {
    assert!(d >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut routes = Vec::with_capacity(count);
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut guard = 0usize;
    while routes.len() < count {
        guard += 1;
        assert!(
            guard < count * 1000,
            "could not generate {count} routes of length <= {d}; graph too constrained"
        );
        let start = nodes[rng.gen_range(0..nodes.len())];
        let mut visited = vec![start];
        let mut edges: Vec<EdgeId> = Vec::with_capacity(d);
        let mut cur = start;
        for _ in 0..d {
            let outs: Vec<EdgeId> = graph
                .out_edges(cur)
                .iter()
                .copied()
                .filter(|&e| !visited.contains(&graph.dst(e)))
                .collect();
            let Some(&e) = outs.as_slice().choose(&mut rng) else {
                break;
            };
            cur = graph.dst(e);
            visited.push(cur);
            edges.push(e);
        }
        if edges.is_empty() {
            continue;
        }
        routes.push(Route::new(graph, edges).expect("self-avoiding walk is a simple path"));
    }
    routes
}

/// How the saturating adversary schedules within each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionStyle {
    /// Spread injections across the window (rate-like).
    Spread,
    /// Inject the whole per-window budget as early as possible —
    /// maximally bursty, the worst case the `⌈wr⌉` bound must absorb.
    Burst,
}

/// An adversary that injects as many packets from its route pool as
/// its constraint model allows.
pub struct SaturatingAdversary {
    routes: Vec<Route>,
    tracker: AdversaryModel,
    style: InjectionStyle,
    rng: StdRng,
    /// Max injection attempts per step (bounds per-step work).
    attempts_per_step: usize,
}

impl SaturatingAdversary {
    /// Create a saturating `(w, r)` adversary over the given route
    /// pool — shorthand for [`SaturatingAdversary::with_model`] with a
    /// single `Window` member.
    pub fn new(
        graph: &Graph,
        window: u64,
        rate: Ratio,
        routes: Vec<Route>,
        style: InjectionStyle,
        seed: u64,
    ) -> Self {
        Self::with_model(
            graph,
            &AdversaryModelSpec::window(window, rate),
            routes,
            style,
            seed,
        )
    }

    /// Create a saturating adversary for an arbitrary composed
    /// constraint model: each step it injects greedily while every
    /// member reports headroom on every route edge.
    pub fn with_model(
        graph: &Graph,
        spec: &AdversaryModelSpec,
        routes: Vec<Route>,
        style: InjectionStyle,
        seed: u64,
    ) -> Self {
        assert!(!routes.is_empty(), "need at least one candidate route");
        let attempts_per_step = (routes.len() * 4).clamp(16, 512);
        SaturatingAdversary {
            routes,
            tracker: spec.build(graph.edge_count()),
            style,
            rng: StdRng::seed_from_u64(seed),
            attempts_per_step,
        }
    }

    /// The parameter `d` of this adversary's route pool: the longest
    /// candidate route.
    pub fn d(&self) -> usize {
        self.routes.iter().map(Route::len).max().unwrap_or(0)
    }

    /// The constraint model this adversary saturates.
    pub fn model_spec(&self) -> &AdversaryModelSpec {
        self.tracker.spec()
    }

    /// Produce the injections for step `t` (monotone increasing calls).
    pub fn injections_for(&mut self, t: Time) -> Vec<Injection> {
        let mut out = Vec::new();
        for _ in 0..self.attempts_per_step {
            let idx = self.rng.gen_range(0..self.routes.len());
            let route = &self.routes[idx];
            let fits = route
                .edges()
                .iter()
                .all(|&e| self.tracker.headroom(e, t) >= 1);
            if fits {
                for &e in route.edges() {
                    self.tracker
                        .observe(e, t)
                        .expect("headroom was checked; observe cannot fail");
                }
                out.push(Injection::new(route.clone(), idx as u32));
                if self.style == InjectionStyle::Spread {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_graph::topologies;

    #[test]
    fn random_routes_are_simple_and_bounded() {
        let g = topologies::grid(4, 4);
        let routes = random_routes(&g, 5, 50, 42);
        assert_eq!(routes.len(), 50);
        for r in &routes {
            assert!(!r.edges().is_empty() && r.len() <= 5);
            Route::validate(&g, r.edges()).expect("simple");
        }
    }

    #[test]
    fn random_routes_deterministic() {
        let g = topologies::ring(6);
        let a = random_routes(&g, 3, 20, 7);
        let b = random_routes(&g, 3, 20, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn burst_adversary_respects_budget() {
        let g = topologies::ring(5);
        let routes = random_routes(&g, 3, 10, 1);
        let w = 12u64;
        let r = Ratio::new(1, 4); // budget 3 per window per edge
        let mut adv = SaturatingAdversary::new(&g, w, r, routes, InjectionStyle::Burst, 2);
        // independently verify with a second validator
        let mut check = aqt_sim::WindowValidator::new(w, r, g.edge_count());
        let mut total = 0usize;
        for t in 1..=100 {
            for inj in adv.injections_for(t) {
                check
                    .observe_route(inj.route.edges(), t)
                    .expect("saturating adversary must stay legal");
                total += 1;
            }
        }
        assert!(total > 0, "adversary should inject something");
    }

    /// Drive a saturating adversary over `spec` for `steps` steps and
    /// re-validate its whole stream with an independent model. Returns
    /// the total injections, asserting legality throughout.
    fn saturate_and_revalidate(spec: &AdversaryModelSpec, steps: Time) -> usize {
        let g = topologies::ring(5);
        let routes = random_routes(&g, 3, 10, 1);
        let mut adv = SaturatingAdversary::with_model(&g, spec, routes, InjectionStyle::Burst, 2);
        let mut check = spec.build(g.edge_count());
        let mut total = 0usize;
        for t in 1..=steps {
            for inj in adv.injections_for(t) {
                check
                    .observe_route(inj.route.edges(), t)
                    .expect("saturating adversary must stay legal for its model");
                total += 1;
            }
        }
        total
    }

    #[test]
    fn burst_local_saturator_is_legal_and_productive() {
        let spec = AdversaryModelSpec::burst_local(Ratio::new(1, 4), 3, 8);
        let total = saturate_and_revalidate(&spec, 100);
        assert!(total > 0, "adversary should inject something");
    }

    #[test]
    fn buffer_bound_saturator_is_legal_and_productive() {
        let spec = AdversaryModelSpec::buffer_bound(2);
        let total = saturate_and_revalidate(&spec, 100);
        assert!(total > 0, "adversary should inject something");
    }

    #[test]
    fn composed_model_saturator_is_legal_and_productive() {
        let spec = AdversaryModelSpec::window(12, Ratio::new(1, 3))
            .and(aqt_sim::ConstraintSpec::BurstLocal {
                rho: Ratio::new(1, 4),
                sigma: 2,
                locality: 6,
            })
            .and(aqt_sim::ConstraintSpec::BufferBound { bound: 4 });
        let total = saturate_and_revalidate(&spec, 100);
        assert!(total > 0, "adversary should inject something");
    }

    #[test]
    fn buffer_bound_saturator_uses_the_burst_allowance() {
        // B=2 on a single edge: the first step admits len + B = 3.
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let spec = AdversaryModelSpec::buffer_bound(2);
        let mut adv =
            SaturatingAdversary::with_model(&g, &spec, vec![route], InjectionStyle::Burst, 3);
        assert_eq!(adv.injections_for(1).len(), 3);
        // the bucket is drained: exactly one per step from now on
        assert_eq!(adv.injections_for(2).len(), 1);
        assert_eq!(adv.injections_for(3).len(), 1);
    }

    #[test]
    fn burst_adversary_actually_bursts() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let w = 10u64;
        let r = Ratio::new(1, 2); // budget 5
        let mut adv = SaturatingAdversary::new(&g, w, r, vec![route], InjectionStyle::Burst, 3);
        let first = adv.injections_for(1);
        assert_eq!(
            first.len(),
            5,
            "burst mode should exhaust the window budget"
        );
        assert!(adv.injections_for(2).is_empty());
        // window slides: capacity returns at t = 11
        assert_eq!(adv.injections_for(11).len(), 5);
    }

    #[test]
    fn spread_adversary_one_per_step() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut adv = SaturatingAdversary::new(
            &g,
            10,
            Ratio::new(1, 2),
            vec![route],
            InjectionStyle::Spread,
            3,
        );
        for t in 1..=20 {
            assert!(adv.injections_for(t).len() <= 1);
        }
    }
}
