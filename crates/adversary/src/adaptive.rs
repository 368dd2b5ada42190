//! An adaptive (feedback) adversary.
//!
//! The adversarial queuing model allows the adversary to observe the
//! entire system state when choosing injections — Theorems 4.1/4.3
//! quantify over *all* `(w,r)` adversaries, adaptive ones included.
//! This adversary spends its constraint budget where it hurts most:
//! each step it ranks its candidate routes by the current queue length
//! along them and injects the most-loaded ones first (still within the
//! exact per-edge headroom of its constraint model).
//!
//! Compared with the oblivious stochastic adversary it produces
//! measurably deeper queues, making it the stronger stress test for
//! the `⌈wr⌉` bound in experiments E5–E7.

use aqt_graph::{EdgeId, Graph, Route};
use aqt_sim::engine::Injection;
use aqt_sim::rate::{AdversaryModel, AdversaryModelSpec};
use aqt_sim::{Ratio, Time};

/// The adaptive adversary. Drive it with
/// [`AdaptiveAdversary::injections_for`], passing a queue-length probe
/// (typically `|e| engine.queue_len(e)`).
pub struct AdaptiveAdversary {
    routes: Vec<Route>,
    tracker: AdversaryModel,
    /// Scratch: (score, route index), reused each step.
    scratch: Vec<(usize, usize)>,
    /// Per pool route, the last step at which its headroom probe
    /// failed: headroom only falls within a step, so a later pass at
    /// the same `t` skips it without probing.
    blocked: Vec<Option<Time>>,
}

impl AdaptiveAdversary {
    /// Create a `(w, r)` adaptive adversary over a candidate route
    /// pool — shorthand for [`AdaptiveAdversary::with_model`] with a
    /// single `Window` member.
    pub fn new(graph: &Graph, window: u64, rate: Ratio, routes: Vec<Route>) -> Self {
        Self::with_model(graph, &AdversaryModelSpec::window(window, rate), routes)
    }

    /// Create an adaptive adversary saturating an arbitrary composed
    /// constraint model. The model must have a member: the empty model
    /// has unbounded headroom, so "inject while anything fits" would
    /// never stop.
    pub fn with_model(graph: &Graph, spec: &AdversaryModelSpec, routes: Vec<Route>) -> Self {
        assert!(!routes.is_empty(), "need at least one candidate route");
        assert!(!spec.is_empty(), "need a nonempty constraint model");
        AdaptiveAdversary {
            blocked: vec![None; routes.len()],
            routes,
            tracker: spec.build(graph.edge_count()),
            scratch: Vec::new(),
        }
    }

    /// The `d` of this adversary's route pool.
    pub fn d(&self) -> usize {
        self.routes.iter().map(Route::len).max().unwrap_or(0)
    }

    /// The constraint model this adversary saturates.
    pub fn model_spec(&self) -> &AdversaryModelSpec {
        self.tracker.spec()
    }

    /// Injections for step `t`, given the current queue lengths.
    /// Greedy: routes whose edges currently carry the most queued
    /// packets go first; each candidate is injected as long as every
    /// edge of it has model headroom.
    pub fn injections_for(
        &mut self,
        t: Time,
        queue_len: impl Fn(EdgeId) -> usize,
    ) -> Vec<Injection> {
        self.scratch.clear();
        for (i, route) in self.routes.iter().enumerate() {
            let score: usize = route.edges().iter().map(|&e| queue_len(e)).sum();
            self.scratch.push((score, i));
        }
        // most-loaded first; stable tiebreak on index for determinism
        self.scratch
            .sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut out = Vec::new();
        // multiple passes: keep injecting while anything fits
        loop {
            let mut progressed = false;
            for &(_, i) in self.scratch.iter() {
                if self.blocked[i] == Some(t) {
                    continue;
                }
                let route = &self.routes[i];
                if self.tracker.admit(route.edges(), t) {
                    out.push(Injection::new(route.clone(), i as u32));
                    progressed = true;
                } else {
                    self.blocked[i] = Some(t);
                }
            }
            if !progressed {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_graph::topologies;
    use aqt_protocols::Fifo;
    use aqt_sim::{Constraint, Engine, EngineConfig};
    use std::sync::Arc;

    #[test]
    fn stays_within_window_budget() {
        let g = topologies::ring(6);
        let routes = crate::stochastic::random_routes(&g, 3, 12, 3);
        let w = 12;
        let r = Ratio::new(1, 4);
        let mut adv = AdaptiveAdversary::new(&g, w, r, routes);
        let mut check = aqt_sim::WindowValidator::new(w, r, g.edge_count());
        for t in 1..=200 {
            for inj in adv.injections_for(t, |_| 0) {
                check
                    .observe_route(inj.route.edges(), t)
                    .expect("adaptive adversary must stay (w,r)-legal");
            }
        }
    }

    #[test]
    fn adaptive_composed_model_stays_legal() {
        let g = topologies::ring(6);
        let routes = crate::stochastic::random_routes(&g, 3, 12, 3);
        let spec = AdversaryModelSpec::window(12, Ratio::new(1, 4))
            .and(aqt_sim::ConstraintSpec::BufferBound { bound: 3 });
        let mut adv = AdaptiveAdversary::with_model(&g, &spec, routes);
        let mut check = spec.build(g.edge_count());
        let mut total = 0;
        for t in 1..=200 {
            for inj in adv.injections_for(t, |_| 0) {
                check
                    .observe_route(inj.route.edges(), t)
                    .expect("adaptive adversary must stay model-legal");
                total += 1;
            }
        }
        assert!(total > 0);
    }

    /// The empty model never runs out of headroom, so its passes would
    /// inject forever: construction refuses it.
    #[test]
    #[should_panic(expected = "nonempty constraint model")]
    fn empty_model_is_refused() {
        let g = topologies::ring(6);
        let routes = crate::stochastic::random_routes(&g, 3, 4, 3);
        AdaptiveAdversary::with_model(&g, &AdversaryModelSpec::default(), routes);
    }

    #[test]
    fn targets_loaded_routes_first() {
        let g = topologies::line(2);
        let e: Vec<EdgeId> = g.edge_ids().collect();
        let r0 = Route::new(&g, vec![e[0]]).unwrap();
        let r1 = Route::new(&g, vec![e[1]]).unwrap();
        let mut adv = AdaptiveAdversary::new(&g, 100, Ratio::new(1, 100), vec![r0, r1]);
        // pretend e1 is heavily loaded: its route must be injected
        // (budget 1 per window per edge; both fit, loaded one first)
        let inj = adv.injections_for(1, |e| if e == EdgeId(1) { 10 } else { 0 });
        assert_eq!(inj.len(), 2);
        assert_eq!(inj[0].route.edges()[0], EdgeId(1), "loaded route first");
    }

    #[test]
    fn deeper_queues_than_oblivious_on_a_ring() {
        // Run adaptive vs spread-oblivious on the same budget; adaptive
        // should reach at least as deep a peak queue.
        let g = Arc::new(topologies::ring(8));
        let routes = crate::stochastic::random_routes(&g, 3, 24, 9);
        let (w, r) = (12u64, Ratio::new(1, 4));

        let mut adaptive = AdaptiveAdversary::new(&g, w, r, routes.clone());
        let mut eng_a = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        for t in 1..=4000 {
            let inj = adaptive.injections_for(t, |e| eng_a.queue_len(e));
            eng_a.step(inj).unwrap();
        }

        let mut oblivious = crate::stochastic::SaturatingAdversary::new(
            &g,
            w,
            r,
            routes,
            crate::stochastic::InjectionStyle::Spread,
            7,
        );
        let mut eng_o = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        for t in 1..=4000 {
            eng_o.step(oblivious.injections_for(t)).unwrap();
        }

        assert!(
            eng_a.metrics().max_queue() >= eng_o.metrics().max_queue(),
            "adaptive ({}) should press at least as hard as oblivious ({})",
            eng_a.metrics().max_queue(),
            eng_o.metrics().max_queue()
        );
    }
}
