//! Integration tests for the stability side (Section 4): reduced-scale
//! versions of experiments E5, E6 and E7, Theorem 4.1 under a
//! deterministic phased load, and the pinned injection streams of
//! E16's saturating adversaries.

use std::sync::Arc;

use aqt_adversary::stochastic::{random_routes, InjectionStyle, SaturatingAdversary};
use aqt_analysis::Verdict;
use aqt_core::experiments::{e16_models, e5_greedy_stability, e6_time_priority, e7_initial_config};
use aqt_core::theory::StabilityCertificate;
use aqt_graph::topologies;
use aqt_protocols::by_name;
use aqt_sim::{
    fnv1a_u64s, AdversaryModelSpec, ConstraintSpec, Engine, EngineConfig, Ratio, Schedule,
};

/// Theorem 4.1 at reduced scale: every protocol, every topology, the
/// `⌈wr⌉` bound holds and nothing diverges.
#[test]
fn theorem_4_1_bound_holds_everywhere() {
    let rows = e5_greedy_stability(3, 12, 6000).expect("legal adversaries");
    assert_eq!(rows.len(), 5 * 9, "5 topologies x 9 protocols");
    for row in &rows {
        assert!(
            row.bound_respected,
            "{} on {}: max wait {} exceeds bound {:?}",
            row.protocol, row.topology, row.max_wait, row.bound
        );
        assert_ne!(
            row.verdict,
            Verdict::Diverging,
            "{} on {} diverged below 1/(d+1)",
            row.protocol,
            row.topology
        );
        // the bound must actually be the theorem's ⌈wr⌉ = ⌈12/4⌉ = 3
        assert_eq!(row.bound, Some(3));
    }
}

/// Theorem 4.1 under a deterministic load: `k = 12` floor-pattern
/// streams, each at rate `1/P` with `P = k·(d+1)`, starting on
/// distinct steps `1 + i`. Every stream injects once per period at its
/// own residue, so any `P` consecutive steps carry at most `k`
/// packets on an edge (a `(P, 1/(d+1))` adversary) and no two packets
/// share a step (a rate-1 adversary too; aligned starts would break
/// this on any shared edge). `⌈P/(d+1)⌉ = k` must bound every greedy
/// protocol's wait.
#[test]
fn theorem_4_1_bound_holds_under_phased_streams() {
    const HORIZON: u64 = 20_000;
    let graph = Arc::new(topologies::torus(3, 3));
    let routes = random_routes(&graph, 3, 12, 11);
    let d = routes.iter().map(|r| r.len()).max().expect("12 routes");
    let k = routes.len() as u64;
    let period = k * (d as u64 + 1);
    let rate = Ratio::new(1, d as u64 + 1);
    let mut schedule = Schedule::new();
    for (i, route) in routes.iter().enumerate() {
        let start = 1 + i as u64;
        schedule.inject_stream(
            start,
            HORIZON + 1 - start,
            Ratio::new(1, period),
            route,
            i as u32,
        );
    }
    let bound = StabilityCertificate::new(period, rate, d)
        .greedy_bound()
        .expect("rate = 1/(d+1)");
    assert_eq!(bound, 12, "⌈P/(d+1)⌉");

    for proto in ["FIFO", "LIFO", "NTG", "FTG"] {
        let mut eng = Engine::new(
            Arc::clone(&graph),
            by_name(proto, 0).expect("protocol"),
            EngineConfig {
                validate: Some(
                    AdversaryModelSpec::window(period, rate).and(ConstraintSpec::Rate(Ratio::ONE)),
                ),
                ..Default::default()
            },
        );
        schedule
            .replay(&mut eng, HORIZON)
            .expect("legal phased load");
        let m = eng.metrics();
        assert!(
            m.max_buffer_wait() <= bound,
            "{proto}: wait {} > bound {bound}",
            m.max_buffer_wait()
        );
        assert_eq!(eng.backlog() + m.absorbed(), m.injected(), "{proto}");
        assert!(m.injected() > 0, "{proto}: traffic flowed");
    }
}

/// Theorem 4.3 at reduced scale: FIFO and LIS keep `⌈wr⌉ = 4` at
/// `r = 1/d`; the theorem is silent for LIFO/NTG at that rate.
#[test]
fn theorem_4_3_time_priority_bound() {
    let rows = e6_time_priority(3, 12, 6000).expect("legal adversaries");
    for row in &rows {
        match row.protocol.as_str() {
            "FIFO" | "LIS" => {
                assert_eq!(row.bound, Some(4), "⌈12/3⌉ = 4");
                assert!(
                    row.bound_respected,
                    "{} on {}: wait {} > 4",
                    row.protocol, row.topology, row.max_wait
                );
            }
            _ => assert_eq!(row.bound, None, "theorem is silent for {}", row.protocol),
        }
    }
}

/// Corollaries 4.5/4.6 at reduced scale: nonempty initial
/// configurations, strict rate inequality, degraded bound still holds.
#[test]
fn corollaries_4_5_4_6_initial_configurations() {
    let rows = e7_initial_config(3, 12, 100, 6000).expect("legal adversaries");
    for row in &rows {
        assert!(row.bound.is_some(), "r < 1/(d+1) strictly, bound exists");
        assert!(
            row.bound_respected,
            "{} on {}: wait {} exceeds Cor 4.5/4.6 bound {:?}",
            row.protocol, row.topology, row.max_wait, row.bound
        );
    }
}

/// The certificates match the paper's closed forms on hand-computed
/// cases (cross-check of the exact rational arithmetic).
#[test]
fn certificate_closed_forms() {
    // Theorem 4.1: w=100, r=1/5, d=4 -> ⌈100/5⌉ = 20.
    let c = StabilityCertificate::new(100, Ratio::new(1, 5), 4);
    assert_eq!(c.greedy_bound(), Some(20));
    // Theorem 4.3: w=100, r=1/4, d=4 -> 25 for time-priority only.
    let c = StabilityCertificate::new(100, Ratio::new(1, 4), 4);
    assert_eq!(c.time_priority_bound(), Some(25));
    assert_eq!(c.greedy_bound(), None);
    // Corollary 4.5: S=10, w=5, r=1/6, d=4:
    // w* = ⌈16/(1/5 - 1/6)⌉ = ⌈16·30⌉ = 480; bound = ⌈480/5⌉ = 96.
    let c = StabilityCertificate::with_initial(5, Ratio::new(1, 6), 4, 10);
    assert_eq!(c.greedy_bound(), Some(96));
    // Corollary 4.6: same with r* = 1/4:
    // w* = ⌈16/(1/4 - 1/6)⌉ = ⌈16·12⌉ = 192; bound = ⌈192/4⌉ = 48.
    assert_eq!(c.time_priority_bound(), Some(48));
}

/// The paper's remark: the bounds depend only on the adversary's
/// parameters, not on the network. Same certificate across topologies.
#[test]
fn bound_is_network_independent() {
    let rows = e5_greedy_stability(3, 12, 2000).expect("legal adversaries");
    let bounds: std::collections::HashSet<_> = rows.iter().map(|r| r.bound).collect();
    assert_eq!(
        bounds.len(),
        1,
        "one bound across all topologies: {bounds:?}"
    );
}

/// E16's saturating adversaries emit a pinned injection stream: for
/// every model of `e16_models(12, r)` at each rate factor, the FNV-1a
/// hash of every `(t, tag)` over 2,000 steps on `torus(4,4)`, with the
/// route pool and adversary seeds E16 uses. A faster probe loop must
/// leave every RNG draw and every admission where it was.
#[test]
fn e16_saturating_streams_are_pinned() {
    // (f10, model, injections, hash)
    const PINS: [(u64, &str, usize, u64); 15] = [
        (8, "window", 2558, 0x37e1f36fe670a282),
        (8, "rate", 3068, 0xb7eadf55a8425b3a),
        (8, "burst-local", 3129, 0x59fca080517486e3),
        (8, "buffer-bound", 15466, 0xd016c7afb45b350c),
        (8, "composed", 2558, 0x37e1f36fe670a282),
        (10, "window", 3573, 0xcd9393d15d701e98),
        (10, "rate", 3523, 0x9f62bc9ab4697786),
        (10, "burst-local", 3742, 0x1077589360ac1de7),
        (10, "buffer-bound", 14230, 0xa7b96fe1e70be441),
        (10, "composed", 3620, 0x486c40db13bd7810),
        (12, "window", 3355, 0x1a07e3efe0d16a83),
        (12, "rate", 4164, 0xe11ebaa05da047fb),
        (12, "burst-local", 4237, 0x74147b3893f7f7e1),
        (12, "buffer-bound", 13455, 0x1b4f5e5f05d104c5),
        (12, "composed", 3341, 0x3d91960cfc2c89ec),
    ];
    let (d, w) = (3usize, 12u64);
    let graph = topologies::torus(4, 4);
    let mut got = Vec::new();
    for f10 in [8u64, 10, 12] {
        let rate = Ratio::new(f10, 10 * (d as u64 + 1));
        for (model, spec) in e16_models(w, rate) {
            let seed = 1600 + f10;
            let routes = random_routes(&graph, d, 24, seed);
            let mut adv = SaturatingAdversary::with_model(
                &graph,
                &spec,
                routes,
                InjectionStyle::Burst,
                seed ^ 0xe16,
            );
            let mut words = Vec::new();
            for t in 1..=2000 {
                for inj in adv.injections_for(t) {
                    words.extend([t, u64::from(inj.tag)]);
                }
            }
            got.push((f10, model, words.len() / 2, fnv1a_u64s(words)));
        }
    }
    for (pin, row) in PINS.iter().zip(&got) {
        assert_eq!(pin, row, "stream of {} at f = {}/10 moved", row.1, row.0);
    }
}
