//! The stitch adversary of **Lemma 3.16**.
//!
//! Given `S` packets with unit remaining routes stored at the buffer of
//! `a_0` at time `τ` (a queue of *old* packets at the end of the daisy
//! chain), this adversary produces, by time `≈ τ + S + rS + r²S`, a
//! queue of `≈ r³S` **fresh** packets at the tail of `a_2` — packets
//! injected well after everything else has drained, with unit routes.
//! In Theorem 3.17, `(a_0, a_1, a_2)` is the three-edge path
//! `(egress(F(M)), e_0, ingress(F(1)))`, so the stitch carries the
//! blown-up queue back to the start of the chain, losing only the
//! factor `r³` that the chain's `(1+ε)^{M-1}` growth more than repays.
//!
//! Stages (paper numbering):
//!
//! 1. `[τ+1, τ+S]`: `rS` packets with route `a_0, a_1, a_2`, queued
//!    behind the old packets at `a_0`;
//! 2. `[τ+S+1, τ+S+rS]`: `r²S` packets at the tail of `a_2` (they mix
//!    with stage 1's packets arriving there);
//! 3. immediately after: `r³S` packets at the tail of `a_2`, queued
//!    behind the stage 1+2 remnant — these are the fresh survivors.
//!
//! Stages 2 and 3 are realized as one continuous rate-r floor stream on
//! `a_2` with two segments (mixers, then fresh), so the composed
//! injection pattern on `a_2` is trivially rate-legal.

use aqt_graph::{EdgeId, Graph, Route, RouteError};
use aqt_sim::{Injection, Ratio, Schedule, Time};

/// Cohort tags assigned by [`build`].
#[derive(Debug, Clone, Copy)]
pub struct StitchTags {
    /// Stage 1: the three-edge "carrier" packets.
    pub carrier: u32,
    /// Stage 2: the mixers injected at `a_2`.
    pub mixer: u32,
    /// Stage 3: the fresh packets that form the next iteration's queue.
    pub fresh: u32,
}

impl StitchTags {
    /// Derive the cohort tags from a base value.
    pub fn from_base(base: u32) -> Self {
        StitchTags {
            carrier: base,
            mixer: base + 1,
            fresh: base + 2,
        }
    }
}

/// The built stitch adversary.
#[derive(Debug)]
pub struct Stitch {
    /// The injection plan.
    pub schedule: Schedule,
    /// Predicted completion time `≈ τ + S + rS + r²S` (the engine
    /// should settle a few extra steps and then measure).
    pub finish: Time,
    /// Number of fresh packets scheduled (`⌊r·⌊r·⌊r·S⌋⌋⌋`).
    pub fresh_count: u64,
    /// Cohort tags used.
    pub tags: StitchTags,
}

/// Build the Lemma 3.16 adversary over the consecutive edges
/// `a0 → a1 → a2`, given `s` unit-route packets stored at `a0` at time
/// `tau`.
#[allow(clippy::too_many_arguments)] // mirrors the lemma's statement
pub fn build(
    graph: &Graph,
    a0: EdgeId,
    a1: EdgeId,
    a2: EdgeId,
    rate: Ratio,
    s: u64,
    tau: Time,
    tag_base: u32,
) -> Result<Stitch, RouteError> {
    let tags = StitchTags::from_base(tag_base);
    let mut schedule = Schedule::new();

    // Stage 1: rS carriers over the whole path, blocked behind the old
    // queue at a0.
    let carrier_route = Route::new(graph, vec![a0, a1, a2])?;
    let k1 = schedule.inject_stream(tau + 1, s, rate, &carrier_route, tags.carrier);

    // Stages 2+3: one continuous stream at a2; first k2 = ⌊r·k1⌋ are
    // mixers, the following k3 = ⌊r·k2⌋ are fresh.
    let k2 = rate.floor_mul(k1);
    let k3 = rate.floor_mul(k2);
    let single = Route::single(graph, a2)?;
    let last = schedule.inject_segments(
        tau + s + 1,
        rate,
        vec![
            (k2, Injection::new(single.clone(), tags.mixer)),
            (k3, Injection::new(single, tags.fresh)),
        ],
    );

    Ok(Stitch {
        schedule,
        finish: last,
        fresh_count: k3,
        tags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_graph::topologies;

    #[test]
    fn counts_match_r_powers() {
        let g = topologies::line(3);
        let e: Vec<EdgeId> = g.edge_ids().collect();
        let r = Ratio::new(3, 5);
        let st = build(&g, e[0], e[1], e[2], r, 100, 0, 0).unwrap();
        // k1 = 60, k2 = 36, k3 = 21
        assert_eq!(st.fresh_count, 21);
        assert_eq!(st.schedule.injection_count() as u64, 60 + 36 + 21);
    }

    #[test]
    fn stream_times_are_ordered() {
        let g = topologies::line(3);
        let e: Vec<EdgeId> = g.edge_ids().collect();
        let r = Ratio::new(3, 4);
        let st = build(&g, e[0], e[1], e[2], r, 40, 10, 0).unwrap();
        // carriers end by tau + s; a2 stream starts after
        assert!(st.finish > 10 + 40);
        assert!(st.schedule.horizon() == st.finish);
    }

    #[test]
    fn zero_fresh_for_tiny_queues() {
        let g = topologies::line(3);
        let e: Vec<EdgeId> = g.edge_ids().collect();
        let st = build(&g, e[0], e[1], e[2], Ratio::new(3, 5), 2, 0, 0).unwrap();
        // k1 = 1, k2 = 0, k3 = 0
        assert_eq!(st.fresh_count, 0);
    }
}
