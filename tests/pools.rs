//! Integration of the route-pool, periodic-adversary and certificate
//! machinery: deterministic workloads built from shortest-path pools
//! (the paper's own route discipline) must respect the Section 4
//! bounds, exactly like the randomized ones.

use std::sync::Arc;

use aqt_adversary::periodic::{PeriodicAdversary, Stream};
use aqt_core::theory::StabilityCertificate;
use aqt_graph::{catalog, paths};
use aqt_protocols::by_name;
use aqt_sim::{AdversaryModelSpec, Engine, EngineConfig, Ratio};

/// Shortest-path streams, each injecting exactly once per period
/// `P = n_streams·(d+1)` at a distinct phase. Any sliding window of
/// length `P` then carries at most one packet per stream per edge, so
/// the aggregate is a `(P, 1/(d+1))` adversary by construction — and
/// Theorem 4.1's `⌈P/(d+1)⌉` bound must hold for every greedy
/// protocol.
#[test]
fn shortest_path_periodic_load_respects_bounds() {
    let graph = Arc::new(catalog::build("torus-3x3").expect("catalog"));
    let d = 3usize;
    let pool = paths::shortest_path_pool(&graph, d);
    assert!(!pool.is_empty());
    let selected: Vec<_> = pool.into_iter().step_by(3).take(12).collect();
    let n_streams = selected.len() as u64;
    let period = n_streams * (d as u64 + 1); // stream rate 1/period
    let stream_rate = Ratio::new(1, period);
    let streams: Vec<Stream> = selected
        .iter()
        .enumerate()
        .map(|(i, r)| Stream {
            // distinct phases => distinct injection residues mod period
            phase: i as u64,
            ..Stream::new(r.clone(), stream_rate, i as u32)
        })
        .collect();
    let budget = Ratio::new(1, d as u64 + 1);
    let adv = PeriodicAdversary::new(&graph, streams, budget).expect("within budget");

    let cert = StabilityCertificate::new(period, budget, d);
    let bound = cert.greedy_bound().expect("rate = 1/(d+1)");
    assert_eq!(bound, n_streams); // ⌈P/(d+1)⌉

    for proto in ["FIFO", "LIFO", "NTG", "FTG"] {
        let mut eng = Engine::new(
            Arc::clone(&graph),
            by_name(proto, 0).expect("protocol"),
            EngineConfig {
                validate: Some(AdversaryModelSpec::window(period, budget)),
                ..Default::default()
            },
        );
        let mut a = adv.clone();
        for t in 1..=20_000 {
            eng.step(a.injections_for(t)).expect("legal periodic load");
        }
        assert!(
            eng.metrics().max_buffer_wait() <= bound,
            "{proto}: wait {} > bound {bound}",
            eng.metrics().max_buffer_wait()
        );
        assert_eq!(
            eng.backlog() + eng.metrics().absorbed(),
            eng.metrics().injected()
        );
        assert!(eng.metrics().injected() > 0, "{proto}: traffic flowed");
    }
}

/// The diameter drives sensible pool sizes across the catalog.
#[test]
fn pools_exist_across_the_catalog() {
    for (name, graph) in catalog::standard_suite() {
        let diam = paths::diameter(&graph);
        assert!(diam >= 1, "{name} has paths");
        let pool = paths::shortest_path_pool(&graph, diam);
        assert!(
            !pool.is_empty(),
            "{name}: nonempty pool at its own diameter"
        );
        let longest = pool.iter().map(|r| r.len()).max().expect("nonempty");
        assert!(longest <= diam);
    }
}
