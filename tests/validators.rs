//! Cross-crate property tests: the adversary validators against
//! brute-force reference checks, and the adversary builders against
//! the validators.

use aqt_graph::{topologies, EdgeId, Route};
use aqt_protocols::Fifo;
use aqt_sim::rate::{
    brute_force_buffer_bound_check, brute_force_burst_local_check, brute_force_member_check,
    brute_force_model_check, brute_force_rate_check, brute_force_window_check,
};
use aqt_sim::{
    AdversaryModelSpec, BufferBoundValidator, BurstLocalValidator, Constraint, ConstraintSpec,
    Engine, EngineConfig, RateValidator, Ratio, WindowValidator,
};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The O(1) incremental rate-r check accepts exactly the sequences
    /// the all-intervals definition accepts.
    #[test]
    fn rate_validator_equals_brute_force(
        num in 1u64..12,
        gaps in prop::collection::vec(0u64..4, 1..60),
    ) {
        let r = Ratio::new(num, 12);
        let mut v = RateValidator::new(r, 1);
        let mut times = Vec::new();
        let mut t = 0u64;
        let mut ok = true;
        for g in gaps {
            t += g;
            if v.observe(EdgeId(0), t).is_err() {
                ok = false;
                times.push(t);
                break;
            }
            times.push(t);
        }
        let brute = brute_force_rate_check(r, &[(EdgeId(0), times.clone())]);
        prop_assert_eq!(ok, brute, "r={} times={:?}", r, times);
    }

    /// Same equivalence for the (w, r) windowed validator.
    #[test]
    fn window_validator_equals_brute_force(
        w in 2u64..10,
        num in 1u64..10,
        gaps in prop::collection::vec(0u64..3, 1..50),
    ) {
        let r = Ratio::new(num, 10);
        let mut v = WindowValidator::new(w, r, 1);
        let mut times = Vec::new();
        let mut t = 0u64;
        let mut ok = true;
        for g in gaps {
            t += g;
            if v.observe(EdgeId(0), t).is_err() {
                ok = false;
                times.push(t);
                break;
            }
            times.push(t);
        }
        let brute = brute_force_window_check(w, r, &[(EdgeId(0), times.clone())]);
        prop_assert_eq!(ok, brute, "w={} r={} times={:?}", w, r, times);
    }

    /// Same equivalence for the locally-bursty `(rho, sigma, L)`
    /// validator, covering both the short-interval (sliding L-window)
    /// and long-interval (prefix-height) branches.
    #[test]
    fn burst_local_validator_equals_brute_force(
        num in 1u64..8,
        sigma in 0u64..5,
        locality in 1u64..10,
        gaps in prop::collection::vec(0u64..4, 1..50),
    ) {
        let rho = Ratio::new(num, 8);
        let mut v = BurstLocalValidator::new(rho, sigma, locality, 1);
        let mut times = Vec::new();
        let mut t = 0u64;
        let mut ok = true;
        for g in gaps {
            t += g;
            if v.observe(EdgeId(0), t).is_err() {
                ok = false;
                times.push(t);
                break;
            }
            times.push(t);
        }
        let brute = brute_force_burst_local_check(rho, sigma, locality, &[(EdgeId(0), times.clone())]);
        prop_assert_eq!(ok, brute, "rho={} sigma={} L={} times={:?}", rho, sigma, locality, times);
    }

    /// Same equivalence for the buffer-bound-`B` validator
    /// (N(e, I) <= |I| + B on every interval).
    #[test]
    fn buffer_bound_validator_equals_brute_force(
        bound in 0u64..8,
        gaps in prop::collection::vec(0u64..3, 1..50),
    ) {
        let mut v = BufferBoundValidator::new(bound, 1);
        let mut times = Vec::new();
        let mut t = 0u64;
        let mut ok = true;
        for g in gaps {
            t += g;
            if v.observe(EdgeId(0), t).is_err() {
                ok = false;
                times.push(t);
                break;
            }
            times.push(t);
        }
        let brute = brute_force_buffer_bound_check(bound, &[(EdgeId(0), times.clone())]);
        prop_assert_eq!(ok, brute, "B={} times={:?}", bound, times);
    }

    /// The composed three-member model (window ∘ burst-local ∘
    /// buffer-bound) accepts exactly the sequences every member's
    /// all-intervals definition accepts: the conjunction semantics of
    /// the `All` composer, end to end through the incremental trackers.
    #[test]
    fn composed_model_equals_brute_force(
        w in 2u64..10,
        wnum in 1u64..10,
        bnum in 1u64..8,
        sigma in 0u64..5,
        locality in 1u64..10,
        bound in 0u64..8,
        gaps in prop::collection::vec(0u64..3, 1..50),
    ) {
        let spec = AdversaryModelSpec::window(w, Ratio::new(wnum, 10))
            .and(ConstraintSpec::BurstLocal {
                rho: Ratio::new(bnum, 8),
                sigma,
                locality,
            })
            .and(ConstraintSpec::BufferBound { bound });
        let mut model = spec.build(1);
        let mut times = Vec::new();
        let mut t = 0u64;
        let mut ok = true;
        for g in gaps {
            t += g;
            if model.observe(EdgeId(0), t).is_err() {
                ok = false;
                times.push(t);
                break;
            }
            times.push(t);
        }
        let brute = brute_force_model_check(&spec, &[(EdgeId(0), times.clone())]);
        prop_assert_eq!(ok, brute, "spec={} times={:?}", spec, times);
    }

    /// The headroom contract the saturating adversaries rely on, for
    /// every member and the 3-way composition over three edges. After
    /// a random legal prefix, at a step `t` no earlier than its end:
    /// `h = headroom(e, t)` observes at `t` succeed on a clone and the
    /// `(h+1)`-th fails, and further observes at `t`, on any edge,
    /// never raise `headroom(e', t)` — so a route refused at `t` stays
    /// refused for the rest of `t`.
    #[test]
    fn headroom_is_exact_and_only_falls_within_a_step(
        kind in 0usize..5,
        num in 1u64..10,
        w in 2u64..10,
        sigma in 0u64..5,
        locality in 1u64..10,
        bound in 0u64..8,
        // edge = x % 3, gap before the event = x / 3
        prefix in prop::collection::vec(0u64..9, 0..60),
        last_gap in 0u64..3,
        at_t in prop::collection::vec(0usize..3, 1..24),
    ) {
        let spec = match kind {
            0 => AdversaryModelSpec::rate(Ratio::new(num, 10)),
            1 => AdversaryModelSpec::window(w, Ratio::new(num, 10)),
            2 => AdversaryModelSpec::burst_local(Ratio::new(num, 10), sigma, locality),
            3 => AdversaryModelSpec::buffer_bound(bound),
            _ => AdversaryModelSpec::window(w, Ratio::new(num, 10))
                .and(ConstraintSpec::BurstLocal {
                    rho: Ratio::new(num, 10),
                    sigma,
                    locality,
                })
                .and(ConstraintSpec::BufferBound { bound }),
        };
        let edges = [EdgeId(0), EdgeId(1), EdgeId(2)];
        let mut model = spec.build(edges.len());
        let mut t = 0u64;
        for x in prefix {
            t += x / 3;
            let mut next = model.clone();
            if next.observe(edges[(x % 3) as usize], t).is_ok() {
                model = next;
            }
        }
        t += last_gap;

        for &e in &edges {
            let h = model.headroom(e, t);
            prop_assert_eq!(h, model.headroom(e, t), "headroom is idempotent at fixed t");
            prop_assert!(h < 1_000, "{} has finite headroom on {:?}: {}", spec, e, h);
            let mut fill = model.clone();
            for k in 0..h {
                prop_assert!(
                    fill.observe(e, t).is_ok(),
                    "{}: observe {} of headroom {} at t={} refused", spec, k + 1, h, t
                );
            }
            prop_assert!(
                fill.observe(e, t).is_err(),
                "{}: observe {} past headroom {} at t={} accepted", spec, h + 1, h, t
            );
        }

        let mut before: Vec<u64> = edges.iter().map(|&e| model.headroom(e, t)).collect();
        for i in at_t {
            if model.headroom(edges[i], t) == 0 {
                continue;
            }
            model.observe(edges[i], t).expect("headroom was checked");
            for (j, &e) in edges.iter().enumerate() {
                let now = model.headroom(e, t);
                prop_assert!(
                    now <= before[j],
                    "{}: headroom on {:?} rose from {} to {} at t={}", spec, e, before[j], now, t
                );
                before[j] = now;
            }
        }
    }

    /// Any composition of floor-pattern streams with >= 1-step gaps on
    /// a shared edge is rate-legal — the structural fact all the
    /// adversary builders rely on.
    #[test]
    fn gapped_floor_streams_are_legal(
        num in 6u64..12,
        durations in prop::collection::vec(1u64..40, 1..6),
        gaps in prop::collection::vec(1u64..5, 6),
    ) {
        let r = Ratio::new(num, 12);
        let mut v = RateValidator::new(r, 1);
        let mut start = 1u64;
        for (i, &dur) in durations.iter().enumerate() {
            let mut injected = 0u64;
            for k in 1..=dur {
                let want = r.floor_mul(k);
                if want > injected {
                    v.observe(EdgeId(0), start + k - 1)
                        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
                    injected = want;
                }
            }
            start += dur + gaps[i % gaps.len()];
        }
    }

    /// Engine conservation: injected = absorbed + backlog, always.
    #[test]
    fn engine_conserves_packets(
        seed_routes in prop::collection::vec(0usize..3, 0..20),
        steps in 1u64..60,
    ) {
        let g = Arc::new(topologies::line(4));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        for &i in &seed_routes {
            let route = Route::new(&g, edges[i..].to_vec()).unwrap();
            eng.seed(route, 0).unwrap();
        }
        eng.run_quiet(steps).unwrap();
        let m = eng.metrics();
        prop_assert_eq!(m.injected(), seed_routes.len() as u64);
        prop_assert_eq!(m.injected(), m.absorbed() + eng.backlog());
        // after enough steps everything is absorbed (line of length 4,
        // at most 20 packets)
        if steps >= 24 {
            prop_assert_eq!(eng.backlog(), 0);
        }
    }
}

/// The shared 3-way composition for the single-member-violation tests:
/// window(10, 1/2) ∘ burst_local(1/2, 2, 4) ∘ buffer_bound(1), i.e.
/// window budget 5, short-interval budget ⌊ρL⌋+σ = 4, burst cap |I|+1.
fn composed_spec() -> AdversaryModelSpec {
    AdversaryModelSpec::window(10, Ratio::new(1, 2))
        .and(ConstraintSpec::BurstLocal {
            rho: Ratio::new(1, 2),
            sigma: 2,
            locality: 4,
        })
        .and(ConstraintSpec::BufferBound { bound: 1 })
}

/// Drive the composed model over `times`, expecting the final
/// observation to be rejected with a detail naming the violated
/// member, and cross-check each member against its own brute-force
/// reference: exactly `violated` fails, the others pass.
fn assert_single_member_violation(times: &[u64], violated: usize, detail_substr: &str) {
    let spec = composed_spec();
    let mut model = spec.build(1);
    let (last, prefix) = times.split_last().unwrap();
    for &t in prefix {
        model
            .observe(EdgeId(0), t)
            .unwrap_or_else(|e| panic!("prefix of {times:?} must be legal under {spec}: {e}"));
    }
    let err = model
        .observe(EdgeId(0), *last)
        .expect_err("final observation must breach the composed model");
    assert!(
        err.detail.contains(detail_substr),
        "detail {:?} should name the violated member via {:?}",
        err.detail,
        detail_substr
    );

    let recorded = [(EdgeId(0), times.to_vec())];
    assert!(!brute_force_model_check(&spec, &recorded));
    for (i, &member) in spec.members.iter().enumerate() {
        let ok = brute_force_member_check(member, &recorded);
        assert_eq!(
            ok,
            i != violated,
            "member {} ({}) expected {}",
            i,
            member,
            if i != violated { "legal" } else { "violated" }
        );
    }
}

/// Six injections inside one 10-window bust only the window budget:
/// spread out enough for burst-locality, never bunched enough for the
/// buffer bound.
#[test]
fn composition_rejects_window_member_alone() {
    assert_single_member_violation(&[1, 3, 5, 7, 9, 10], 0, "budget 5 exceeded in window");
}

/// Five injections within one L=4 window bust only burst-locality:
/// exactly at the window budget, and ramped so every suffix interval
/// sits exactly at the buffer cap.
#[test]
fn composition_rejects_burst_local_member_alone() {
    assert_single_member_violation(&[1, 2, 3, 4, 4], 1, "short-interval budget");
}

/// A cohort of three in a single step busts only the buffer bound:
/// well under the window budget (5) and the short-interval budget (4).
#[test]
fn composition_rejects_buffer_bound_member_alone() {
    assert_single_member_violation(&[1, 1, 1], 2, "buffer bound B=1 exceeded");
}

/// Every schedule emitted by the three lemma builders passes the exact
/// validator when replayed from the states the lemmas assume.
#[test]
fn lemma_builders_are_rate_legal() {
    // Lemma 3.16 on a 3-edge line (the other two are covered by the
    // aqt-core experiments, which run with validation on).
    for (num, den) in [(11u64, 20u64), (3, 5), (3, 4), (9, 10)] {
        let rate = Ratio::new(num, den);
        let graph = Arc::new(topologies::line(3));
        let e: Vec<EdgeId> = graph.edge_ids().collect();
        let mut eng = Engine::new(
            Arc::clone(&graph),
            Fifo,
            EngineConfig {
                validate: Some(AdversaryModelSpec::rate(rate)),
                ..Default::default()
            },
        );
        let unit = Route::single(&graph, e[0]).unwrap();
        for _ in 0..500 {
            eng.seed(unit.clone(), 0).unwrap();
        }
        let stitch =
            aqt_adversary::lemma316::build(&graph, e[0], e[1], e[2], rate, 500, 0, 0).unwrap();
        stitch
            .schedule
            .replay(&mut eng, stitch.finish)
            .unwrap_or_else(|err| panic!("stitch at r={num}/{den} must be legal: {err}"));
    }
}

/// `headroom ≥ 1` is a promise that `observe` succeeds, so
/// `AdversaryModel::admit` (probe, then observe) never finds a probe
/// that lied. Checked for every member kind over a grid of extreme
/// parameters and injection times near `u64::MAX`, where the checked
/// i128 potentials overflow.
#[test]
fn headroom_promises_what_observe_grants() {
    const M: u64 = u64::MAX;
    let values = [1, 2, 3, (1 << 63) - 1, M - 2, M - 1, M];
    let scales = [1, 2, 7, M];
    let allowances = [0, 1, 2, M];
    let rates: Vec<Ratio> = values
        .iter()
        .flat_map(|&den| {
            values
                .iter()
                .filter(move |&&num| num <= den)
                .map(move |&num| Ratio::new(num, den))
        })
        .collect();
    let mut specs: Vec<AdversaryModelSpec> = allowances
        .iter()
        .map(|&bound| AdversaryModelSpec::buffer_bound(bound))
        .collect();
    for &r in &rates {
        specs.push(AdversaryModelSpec::rate(r));
        for &l in &scales {
            specs.push(AdversaryModelSpec::window(l, r));
            for &sigma in &allowances {
                specs.push(AdversaryModelSpec::burst_local(r, sigma, l));
            }
        }
    }
    let runs: [&[u64]; 4] = [&[M], &[M - 1, M], &[1, M - 1, M], &[1, 2, 3, 9, M - 2, M]];
    for spec in &specs {
        for times in runs {
            let mut model = spec.build(1);
            for &t in times {
                for _ in 0..3 {
                    let room = model.headroom(EdgeId(0), t);
                    if room >= 1 {
                        let mut probe = model.clone();
                        if let Err(e) = probe.observe(EdgeId(0), t) {
                            panic!("{spec} over {times:?}: headroom {room} at {t}, but {e:?}");
                        }
                    }
                    assert_eq!(model.admit(&[EdgeId(0)], t), room >= 1, "{spec} at {t}");
                }
            }
        }
    }
}
