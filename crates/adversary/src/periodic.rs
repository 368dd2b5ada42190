//! Deterministic periodic adversaries.
//!
//! A [`PeriodicAdversary`] cycles round-robin through a fixed route
//! set, each route carrying its own exact rational rate (floor
//! pattern). Unlike the stochastic saturating adversary it is fully
//! deterministic and analyzable — the workhorse for threshold-mapping
//! experiments (e.g. E13: locating FIFO's empirical stability boundary
//! around `1/d`).

use aqt_graph::Route;
use aqt_sim::engine::Injection;
use aqt_sim::rate::AdversaryModelSpec;
use aqt_sim::{Ratio, Time};

/// One periodic stream: a route injected at an exact rational rate.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The route every packet of this stream follows.
    pub route: Route,
    /// The stream's injection rate.
    pub rate: Ratio,
    /// Cohort tag for the stream's packets.
    pub tag: u32,
    /// Phase offset into the floor pattern. Streams sharing an edge
    /// with aligned phases inject in the *same* steps, which can break
    /// the composed rate constraint even when the rate sums fit —
    /// stagger their phases (e.g. `i·period/k` for `k` equal streams).
    pub phase: u64,
}

impl Stream {
    /// A stream with phase 0.
    pub fn new(route: Route, rate: Ratio, tag: u32) -> Self {
        Stream {
            route,
            rate,
            tag,
            phase: 0,
        }
    }
}

/// A deterministic multi-stream adversary: each stream injects with
/// the floor pattern `⌊k·r⌋`, all aligned to the same clock.
///
/// **Legality note.** Per-edge legality is the *sum of stream rates
/// touching that edge*; the constructor checks that this sum is at
/// most the declared `rate_budget` for every edge and refuses
/// otherwise, so a constructed `PeriodicAdversary` is always a valid
/// rate-`rate_budget` adversary (the engine can re-validate).
#[derive(Debug, Clone)]
pub struct PeriodicAdversary {
    streams: Vec<Stream>,
    injected: Vec<u64>,
    k: u64,
}

impl PeriodicAdversary {
    /// Build, checking that per-edge rate sums stay within `budget`.
    pub fn new(
        graph: &aqt_graph::Graph,
        streams: Vec<Stream>,
        budget: Ratio,
    ) -> Result<Self, String> {
        let mut per_edge = vec![Ratio::ZERO; graph.edge_count()];
        for s in &streams {
            for &e in s.route.edges() {
                per_edge[e.index()] = per_edge[e.index()].add(s.rate);
                if per_edge[e.index()] > budget {
                    return Err(format!(
                        "edge {} oversubscribed: stream rates sum past the budget {}",
                        graph.edge_name(e),
                        budget
                    ));
                }
            }
        }
        let n = streams.len();
        Ok(PeriodicAdversary {
            streams,
            injected: vec![0; n],
            k: 0,
        })
    }

    /// Build against a composed constraint model: the per-edge stream
    /// rate sums are checked against the model's tightest long-run
    /// rate ([`AdversaryModelSpec::long_run_rate`]).
    ///
    /// This is a *necessary* condition only — a member's burst budget
    /// (a `⌊wr⌋` window, a `σ` allowance) can still reject the exact
    /// floor-pattern alignment, so exact legality remains the engine's
    /// model validation. An empty model accepts any streams.
    pub fn with_model(
        graph: &aqt_graph::Graph,
        streams: Vec<Stream>,
        spec: &AdversaryModelSpec,
    ) -> Result<Self, String> {
        let budget = spec.long_run_rate().unwrap_or(Ratio::ONE);
        Self::new(graph, streams, budget)
    }

    /// Injections for step `t`. Calls must come one per step, in step
    /// order: the floor pattern advances one step per call.
    pub fn injections_for(&mut self, _t: Time) -> Vec<Injection> {
        self.k += 1;
        let mut out = Vec::new();
        for (i, s) in self.streams.iter().enumerate() {
            // floor pattern shifted by the stream's phase; the phase
            // baseline is subtracted so counting starts at zero.
            let base = s.rate.floor_mul(s.phase);
            let want = s.rate.floor_mul(self.k + s.phase) - base;
            if want > self.injected[i] {
                self.injected[i] = want;
                out.push(Injection::new(s.route.clone(), s.tag));
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
    use aqt_sim::{Engine, EngineConfig};
    use std::sync::Arc;

    #[test]
    fn floor_pattern_counts() {
        let g = topologies::ring(4);
        let e: Vec<_> = g.edge_ids().collect();
        let r1 = Route::new(&g, vec![e[0], e[1]]).unwrap();
        let r2 = Route::new(&g, vec![e[2]]).unwrap();
        let mut adv = PeriodicAdversary::new(
            &g,
            vec![
                Stream::new(r1, Ratio::new(1, 3), 1),
                Stream::new(r2, Ratio::new(1, 2), 2),
            ],
            Ratio::new(1, 2),
        )
        .unwrap();
        let mut count = 0;
        for t in 1..=60 {
            count += adv.injections_for(t).len();
        }
        assert_eq!(count as u64, 20 + 30);
    }

    #[test]
    fn oversubscription_rejected() {
        let g = topologies::line(2);
        let e: Vec<_> = g.edge_ids().collect();
        let shared = Route::new(&g, vec![e[0]]).unwrap();
        let res = PeriodicAdversary::new(
            &g,
            vec![
                Stream::new(shared.clone(), Ratio::new(1, 3), 0),
                Stream::new(shared, Ratio::new(1, 3), 1),
            ],
            Ratio::new(1, 2),
        );
        assert!(res.is_err());
    }

    #[test]
    fn is_rate_legal_when_run() {
        // Two streams summing exactly to the budget on a shared edge
        // must pass the engine's exact validator.
        let g = Arc::new(topologies::line(3));
        let e: Vec<_> = g.edge_ids().collect();
        let long = Route::new(&g, vec![e[0], e[1], e[2]]).unwrap();
        let short = Route::new(&g, vec![e[1]]).unwrap();
        let mut adv = PeriodicAdversary::new(
            &g,
            vec![
                Stream::new(long, Ratio::new(1, 4), 0),
                Stream {
                    phase: 2, // stagger: shares e[1] with the long stream
                    ..Stream::new(short, Ratio::new(1, 4), 1)
                },
            ],
            Ratio::new(1, 2),
        )
        .unwrap();
        let mut eng = Engine::new(
            Arc::clone(&g),
            Fifo,
            EngineConfig {
                validate: Some(AdversaryModelSpec::rate(Ratio::new(1, 2))),
                ..Default::default()
            },
        );
        for t in 1..=500 {
            eng.step(adv.injections_for(t))
                .expect("periodic adversary stays legal");
        }
        assert!(eng.metrics().injected() > 200);
    }

    #[test]
    fn with_model_uses_tightest_long_run_rate() {
        let g = topologies::line(2);
        let e: Vec<_> = g.edge_ids().collect();
        let shared = Route::new(&g, vec![e[0]]).unwrap();
        // rate(1/2) ∘ burst_local(rho=1/4, ...): the budget is min = 1/4,
        // so two 1/8-streams fit but two 1/5-streams do not.
        let spec =
            AdversaryModelSpec::rate(Ratio::new(1, 2)).and(aqt_sim::ConstraintSpec::BurstLocal {
                rho: Ratio::new(1, 4),
                sigma: 2,
                locality: 4,
            });
        let fits = PeriodicAdversary::with_model(
            &g,
            vec![
                Stream::new(shared.clone(), Ratio::new(1, 8), 0),
                Stream::new(shared.clone(), Ratio::new(1, 8), 1),
            ],
            &spec,
        );
        assert!(fits.is_ok());
        let too_much = PeriodicAdversary::with_model(
            &g,
            vec![
                Stream::new(shared.clone(), Ratio::new(1, 5), 0),
                Stream::new(shared, Ratio::new(1, 5), 1),
            ],
            &spec,
        );
        assert!(too_much.is_err());
    }
}
