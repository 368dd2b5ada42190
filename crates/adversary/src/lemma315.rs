//! The bootstrap adversary of **Lemma 3.15**.
//!
//! Starting point: `2S` packets stored at the ingress edge `a` of a
//! gadget `F_n`, all with remaining route of length 1 (just `a`) — this
//! is exactly what the stitch of Lemma 3.16 leaves behind (and what
//! Theorem 3.17's initial configuration provides). The adversary
//! establishes `C(S', F_n)` at time `τ + 2S + n` for
//! `S' = 2S(1 − R_n) ≥ S(1+ε)`:
//!
//! 1. extend the routes of the stored packets from `a` to
//!    `a, e_1, …, e_n, a'`;
//! 2. inject thinning singles on each `e_i` at rate `r` during
//!    `[τ+i, τ+i+t_i]` (same thinning as Lemma 3.6);
//! 3. in the first `(S'+n)/r` steps of `[τ+1, τ+2S]` inject `S' + n`
//!    packets at rate `r`: the first `n` with the single-edge route
//!    `a`, the rest with route `a, f_1, …, f_n, a'`.
//!
//! The `n` short packets pad the drain of `a` so that exactly `S'` long
//! packets remain queued at `a` at time `τ + 2S + n` (see the proof).

use aqt_graph::{GadgetHandles, Graph, Route, RouteError};
use aqt_sim::{Injection, Schedule, Time};

use crate::params::GadgetParams;

/// Cohort tags assigned by [`build`].
#[derive(Debug, Clone, Copy)]
pub struct BootstrapTags {
    /// Part (2): thinning singles on the `e`-path.
    pub short: u32,
    /// Part (3), first `n` packets: padding singles on `a`.
    pub pad: u32,
    /// Part (3), remainder: the long packets `a, f-path, a'`.
    pub long: u32,
}

impl BootstrapTags {
    /// Derive the cohort tags from a base value.
    pub fn from_base(base: u32) -> Self {
        BootstrapTags {
            short: base,
            pad: base + 1,
            long: base + 2,
        }
    }
}

/// The built bootstrap adversary.
#[derive(Debug)]
pub struct Bootstrap {
    /// The injection/extension plan.
    pub schedule: Schedule,
    /// Time at which `C(S', F_n)` is predicted to hold: `τ + 2S + n`.
    pub finish: Time,
    /// The theoretical amplified queue `S' = ⌊2S(1 − R_n)⌋`.
    pub s_prime: u64,
    /// Cohort tags used.
    pub tags: BootstrapTags,
}

/// Build the Lemma 3.15 adversary for gadget `g`, given `2s` packets
/// with unit remaining routes stored at `g.ingress` at time `tau`.
///
/// `s` is the lemma's `S` (half the stored queue). The caller passes
/// `s = stored / 2`; an odd stored count simply leaves one packet
/// unused by the analysis.
pub fn build(
    graph: &Graph,
    g: &GadgetHandles,
    params: &GadgetParams,
    s: u64,
    tau: Time,
    tag_base: u32,
) -> Result<Bootstrap, RouteError> {
    assert_eq!(g.n(), params.n, "gadget size must match parameters");
    assert!(s >= params.s0, "need S >= S0 = {} (got {s})", params.s0);

    let n = params.n;
    let rate = params.rate;
    let tags = BootstrapTags::from_base(tag_base);
    let mut schedule = Schedule::new();

    // Part (1): extend the stored packets' routes onto the e-path.
    let mut suffix = g.e_path.clone();
    suffix.push(g.egress);
    schedule.extend_ending_at(tau + 1, vec![g.ingress], suffix, g.ingress);

    // Part (2): thinning singles.
    for i in 1..=n {
        let t_i = params.t_i(s, i);
        let route = Route::single(graph, g.e_path[i - 1])?;
        schedule.inject_stream(tau + i as u64, t_i + 1, rate, &route, tags.short);
    }

    // Part (3): S' + n packets at rate r; first n pad `a`, the rest go
    // the long way a, f-path, a'.
    let s_prime = params.s_prime(s);
    let pad_route = Route::single(graph, g.ingress)?;
    let mut long_edges = Vec::with_capacity(n + 2);
    long_edges.push(g.ingress);
    long_edges.extend_from_slice(&g.f_path);
    long_edges.push(g.egress);
    let long_route = Route::new(graph, long_edges)?;

    // One floor-pattern stream of S' + n packets: the n pads, then the
    // S' longs. The parameter constraints guarantee (S'+n)/r <= 2S, so it
    // fits in [τ+1, τ+2S].
    let last = schedule.inject_segments(
        tau + 1,
        rate,
        vec![
            (n as u64, Injection::new(pad_route, tags.pad)),
            (s_prime, Injection::new(long_route, tags.long)),
        ],
    );
    debug_assert!(
        last <= tau + 2 * s,
        "part (3) must fit in [τ+1, τ+2S]: its last packet is at {last}"
    );

    Ok(Bootstrap {
        schedule,
        finish: tau + params.step_horizon(s),
        s_prime,
        tags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_graph::FnGadget;

    #[test]
    fn builds_with_expected_counts() {
        let p = GadgetParams::new(1, 4);
        let g = FnGadget::new(p.n);
        let s = p.s0 + 5;
        let b = build(&g.graph, &g.handles, &p, s, 0, 0).expect("valid build");
        let expected: u64 = (1..=p.n)
            .map(|i| p.rate.floor_mul(p.t_i(s, i) + 1))
            .sum::<u64>()
            + p.s_prime(s)
            + p.n as u64;
        assert_eq!(b.schedule.injection_count() as u64, expected);
        assert_eq!(b.finish, 2 * s + p.n as u64);
    }

    #[test]
    fn part3_fits_within_horizon() {
        let p = GadgetParams::new(1, 10);
        let g = FnGadget::new(p.n);
        let s = p.s0;
        let b = build(&g.graph, &g.handles, &p, s, 7, 0).expect("valid build");
        assert!(b.schedule.horizon() <= b.finish);
    }

    #[test]
    #[should_panic(expected = "S >= S0")]
    fn rejects_small_s() {
        let p = GadgetParams::new(1, 4);
        let g = FnGadget::new(p.n);
        let _ = build(&g.graph, &g.handles, &p, p.s0 / 2, 0, 0);
    }
}
