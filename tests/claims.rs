//! Claim-level integration tests: E11 (Claim 3.9 thinning rates),
//! E12 (settling ablation), E13 (bound sharpness) at reduced scale.

use aqt_core::experiments::{e11_thinning_rates, e13_threshold_sharpness};

/// Claim 3.9: during a gadget step, old packets flow onto `e'_i` at
/// rate `R_i` — measured within a few percent for every `i`.
#[test]
fn claim_3_9_thinning_rates() {
    let rows = e11_thinning_rates(1, 4, 2.0).expect("legal");
    assert!(!rows.is_empty());
    for r in &rows {
        let rel = r.measured / r.r_i;
        assert!(
            (0.93..=1.07).contains(&rel),
            "i={} measured {} vs R_i {} (rel {rel})",
            r.i,
            r.measured,
            r.r_i
        );
    }
    // the ladder is strictly decreasing, as (3.1) implies
    for w in rows.windows(2) {
        assert!(w[1].r_i < w[0].r_i);
        assert!(w[1].measured <= w[0].measured + 0.02);
    }
}

/// E13: at or below `r = 1/d` the `⌈wr⌉` bound of Theorem 4.3 holds;
/// above it the theorem is silent (bound None).
#[test]
fn bound_sharpness_around_one_over_d() {
    let rows = e13_threshold_sharpness(3, 12, 8000).expect("legal");
    for r in &rows {
        if r.rate_over_threshold <= 1.0 {
            let b = r.bound.expect("bound applies at r <= 1/d");
            assert!(
                r.max_wait <= b,
                "r/(1/d)={}: wait {} exceeds bound {}",
                r.rate_over_threshold,
                r.max_wait,
                b
            );
        } else {
            assert!(r.bound.is_none(), "theorem must be silent above 1/d");
        }
    }
    // waits do not decrease as the rate rises
    for w in rows.windows(2) {
        assert!(w[1].max_wait >= w[0].max_wait.saturating_sub(1));
    }
}

/// E12 (reduced): with settling ON, the ε = 1/4 loop diverges; the
/// full no-settling collapse needs the long ε = 1/10 chain and runs in
/// `full_report --full E12` — here we only verify the knob
/// exists and the settled path grows.
#[test]
fn settling_on_grows() {
    let mut cfg = aqt_core::instability::InstabilityConfig::new(1, 4);
    cfg.iterations = 1;
    cfg.s0_safety = 2.0;
    cfg.m_margin = 1.5;
    cfg.settle = true;
    let run = aqt_core::instability::InstabilityConstruction::new(cfg)
        .run()
        .expect("legal");
    assert!(run.diverged);
}
