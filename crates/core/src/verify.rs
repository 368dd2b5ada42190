//! The gadget invariant `C(S, F_n)` (Definition 3.5) as an executable
//! check.
//!
//! `C(S, F_n)` holds when:
//!
//! 1. the buffers of `e_1 … e_n` hold `S` packets in total;
//! 2. every `e_i` buffer is nonempty, and its packets' remaining routes
//!    are `e_i, …, e_n, a'` (possibly continuing beyond `a'` — in a
//!    chain the routes have been extended onward; the invariant
//!    constrains the prefix through `a'`);
//! 3. the buffer of `a` holds `S` packets, each with remaining route
//!    `a, f_1, …, f_n, a'` (same caveat);
//! 4. no other packets reside in `F_n`.
//!
//! The driver measures rather than assumes: after each stage it calls
//! [`check_c_invariant`] and steers the next stage by the *measured*
//! `S` (the paper's floor/ceiling slop, absorbed there by a larger
//! `S₀`, shows up here as a tiny deficit the safety factor covers).

use aqt_graph::GadgetHandles;
use aqt_sim::{
    Engine, InvariantKind, Packet, Protocol, ReproBundle, SentinelConfig, SimError, Violation,
    ViolationReport,
};

use crate::theory::StabilityCertificate;

/// Measured state of a gadget vs. `C(S, F_n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CInvariantReport {
    /// Total packets across the `e_i` buffers (clause 1's `S`).
    pub e_total: u64,
    /// Is every `e_i` buffer nonempty (clause 2)?
    pub e_all_nonempty: bool,
    /// Packets in `e_i` buffers whose remaining route does *not* match
    /// `e_i, …, e_n, a'` (clause 2 violations).
    pub e_misrouted: u64,
    /// Packets at `a` with remaining route `a, f_1…f_n, a'`
    /// (clause 3's `S`).
    pub a_count: u64,
    /// Packets at `a` with any other remaining route.
    pub a_foreign: u64,
    /// Packets in the gadget's `f`-path or egress buffers (clause 4
    /// violations; the egress buffer belongs to the next gadget in a
    /// chain, but must be empty for the invariant).
    pub stragglers: u64,
}

impl CInvariantReport {
    /// Does `C(S, F_n)` hold exactly, and for which `S`?
    pub fn holds(&self) -> Option<u64> {
        if self.e_all_nonempty
            && self.e_misrouted == 0
            && self.a_foreign == 0
            && self.stragglers == 0
            && self.e_total == self.a_count
        {
            Some(self.e_total)
        } else {
            None
        }
    }

    /// The usable queue size: `min(e_total, a_count)`. The adaptive
    /// driver uses this even when the invariant holds only
    /// approximately.
    pub fn s_effective(&self) -> u64 {
        self.e_total.min(self.a_count)
    }
}

/// Does `p`'s remaining route (resolved through `routes`) begin with
/// `prefix`?
fn remaining_starts_with(
    routes: &aqt_sim::RouteTable,
    p: &Packet,
    prefix: &[aqt_graph::EdgeId],
) -> bool {
    let rem = &routes.get(p.route_id())[p.traversed()..];
    rem.len() >= prefix.len() && rem[..prefix.len()] == *prefix
}

/// Measure gadget `g` in `engine` against `C(S, F_n)`.
pub fn check_c_invariant<P: Protocol>(engine: &Engine<P>, g: &GadgetHandles) -> CInvariantReport {
    let n = g.n();
    let mut e_total = 0u64;
    let mut e_all_nonempty = true;
    let mut e_misrouted = 0u64;
    for i in 0..n {
        let qlen = engine.queue_len(g.e_path[i]);
        if qlen == 0 {
            e_all_nonempty = false;
        }
        e_total += qlen as u64;
        // expected remaining prefix: e_i, …, e_n, a'
        let mut prefix: Vec<aqt_graph::EdgeId> = g.e_path[i..].to_vec();
        prefix.push(g.egress);
        for p in engine.queue_iter(g.e_path[i]) {
            if !remaining_starts_with(engine.routes(), p, &prefix) {
                e_misrouted += 1;
            }
        }
    }

    let mut a_count = 0u64;
    let mut a_foreign = 0u64;
    {
        let mut prefix: Vec<aqt_graph::EdgeId> = vec![g.ingress];
        prefix.extend_from_slice(&g.f_path);
        prefix.push(g.egress);
        for p in engine.queue_iter(g.ingress) {
            if remaining_starts_with(engine.routes(), p, &prefix) {
                a_count += 1;
            } else {
                a_foreign += 1;
            }
        }
    }

    let mut stragglers = 0u64;
    for &e in &g.f_path {
        stragglers += engine.queue_len(e) as u64;
    }
    stragglers += engine.queue_len(g.egress) as u64;

    CInvariantReport {
        e_total,
        e_all_nonempty,
        e_misrouted,
        a_count,
        a_foreign,
        stragglers,
    }
}

/// Arm `engine`'s sentinel with the theorem certificate matching
/// `cert` and the engine's protocol class, so every run of a stability
/// experiment *enforces* the bound it claims rather than only
/// measuring it afterwards.
///
/// Returns the enforced per-buffer wait bound, or `None` — leaving the
/// engine untouched — when no theorem applies at this `(r, d, S)`
/// (e.g. `r > 1/(d+1)` for a greedy protocol). If a sentinel is
/// already attached its configuration (cadence, deep stride, seed) is
/// preserved; only the certificate is installed.
pub fn attach_certificate_sentinel<P: Protocol>(
    engine: &mut Engine<P>,
    cert: &StabilityCertificate,
) -> Option<u64> {
    let spec = cert.spec(engine.protocol().is_time_priority());
    let bound = spec.bound()?;
    let cfg = engine
        .sentinel()
        .map_or_else(SentinelConfig::default, |s| s.config().clone())
        .with_certificate(spec);
    engine.attach_sentinel(cfg);
    Some(bound)
}

/// [`check_c_invariant`], promoted to a sentinel-grade error: when
/// `C(S, F_n)` fails the result is a [`SimError::InvariantViolated`]
/// carrying the full measured report and a reproduction bundle
/// (snapshot + fault plan at the failing step), exactly like an
/// engine-internal invariant breach. On success returns the measured
/// `S`.
pub fn enforce_c_invariant<P: Protocol>(
    engine: &Engine<P>,
    g: &GadgetHandles,
) -> Result<u64, SimError> {
    let rep = check_c_invariant(engine, g);
    if let Some(s) = rep.holds() {
        return Ok(s);
    }
    let violation = Violation {
        kind: InvariantKind::GadgetInvariant,
        time: engine.time(),
        detail: format!(
            "C(S, F_n) failed: e_total={} a_count={} e_all_nonempty={} \
             e_misrouted={} a_foreign={} stragglers={}",
            rep.e_total,
            rep.a_count,
            rep.e_all_nonempty,
            rep.e_misrouted,
            rep.a_foreign,
            rep.stragglers
        ),
    };
    let bundle = ReproBundle {
        seed: engine.sentinel().and_then(|s| s.config().seed),
        step: engine.time(),
        snapshot: aqt_sim::snapshot::capture(engine),
        fault_plan: engine.faults().cloned(),
        backlog: engine.metrics().series().to_vec(),
    };
    Err(SimError::InvariantViolated(Box::new(ViolationReport {
        violation,
        bundle,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_graph::{FnGadget, Route};
    use aqt_protocols::Fifo;
    use aqt_sim::{Engine, EngineConfig};
    use std::sync::Arc;

    /// Seed an exact C(S, F_n) state: `per_e` packets in each e_i
    /// buffer, `s` packets at the ingress.
    fn seeded_gadget(n: usize, s: u64) -> (Engine<Fifo>, FnGadget) {
        let g = FnGadget::new(n);
        let graph = Arc::new(g.graph.clone());
        let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
        // spread s packets over the n e-buffers, round-robin
        for k in 0..s {
            let i = (k as usize) % n;
            let mut edges: Vec<_> = g.handles.e_path[i..].to_vec();
            edges.push(g.handles.egress);
            eng.seed(Route::new(&graph, edges).unwrap(), 1).unwrap();
        }
        let mut a_edges = vec![g.handles.ingress];
        a_edges.extend_from_slice(&g.handles.f_path);
        a_edges.push(g.handles.egress);
        let a_route = Route::new(&graph, a_edges).unwrap();
        for _ in 0..s {
            eng.seed(a_route.clone(), 2).unwrap();
        }
        (eng, g)
    }

    #[test]
    fn exact_seeded_state_satisfies_invariant() {
        let (eng, g) = seeded_gadget(4, 12);
        let rep = check_c_invariant(&eng, &g.handles);
        assert_eq!(rep.holds(), Some(12));
        assert_eq!(rep.s_effective(), 12);
    }

    #[test]
    fn detects_empty_e_buffer() {
        // s < n leaves some e-buffers empty
        let (eng, g) = seeded_gadget(5, 3);
        let rep = check_c_invariant(&eng, &g.handles);
        assert!(!rep.e_all_nonempty);
        assert!(rep.holds().is_none());
    }

    #[test]
    fn detects_stragglers() {
        let g = FnGadget::new(3);
        let graph = Arc::new(g.graph.clone());
        let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
        // a packet sitting on the f-path violates clause 4
        let f_route = Route::single(&graph, g.handles.f_path[1]).unwrap();
        eng.seed(f_route, 0).unwrap();
        let rep = check_c_invariant(&eng, &g.handles);
        assert_eq!(rep.stragglers, 1);
        assert!(rep.holds().is_none());
    }

    #[test]
    fn detects_misrouted_e_packets() {
        let g = FnGadget::new(3);
        let graph = Arc::new(g.graph.clone());
        let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
        // a packet at e_2 that stops there (does not continue to a')
        let bad = Route::single(&graph, g.handles.e_path[1]).unwrap();
        eng.seed(bad, 0).unwrap();
        let rep = check_c_invariant(&eng, &g.handles);
        assert_eq!(rep.e_misrouted, 1);
    }

    #[test]
    fn attach_certificate_sentinel_installs_the_bound() {
        let (mut eng, _g) = seeded_gadget(3, 6);
        // FIFO is time-priority; d = 3, r = 1/3, w = 9 -> bound 3.
        let cert = StabilityCertificate::new(9, aqt_sim::Ratio::new(1, 3), 3);
        assert_eq!(attach_certificate_sentinel(&mut eng, &cert), Some(3));
        let spec = eng
            .sentinel()
            .expect("sentinel attached")
            .config()
            .certificate_spec
            .expect("certificate installed");
        assert_eq!(spec.bound(), Some(3));
        assert!(spec.time_priority);
        // A rate where no theorem applies: engine left untouched.
        let mut plain = seeded_gadget(3, 6).0;
        let hot = StabilityCertificate::new(9, aqt_sim::Ratio::new(1, 2), 3);
        assert_eq!(attach_certificate_sentinel(&mut plain, &hot), None);
        assert!(plain.sentinel().is_none());
    }

    #[test]
    fn enforce_c_invariant_returns_s_or_typed_error() {
        let (eng, g) = seeded_gadget(4, 12);
        assert_eq!(enforce_c_invariant(&eng, &g.handles).unwrap(), 12);

        // A straggler on the f-path breaks clause 4.
        let g = FnGadget::new(3);
        let graph = Arc::new(g.graph.clone());
        let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
        let f_route = Route::single(&graph, g.handles.f_path[1]).unwrap();
        eng.seed(f_route, 0).unwrap();
        let err = enforce_c_invariant(&eng, &g.handles).unwrap_err();
        match err {
            aqt_sim::SimError::InvariantViolated(report) => {
                assert_eq!(report.violation.kind, InvariantKind::GadgetInvariant);
                assert!(report.violation.detail.contains("stragglers=1"));
                // The bundle is replayable: restoring its snapshot
                // reproduces the failing state exactly.
                let mut fresh = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
                aqt_sim::snapshot::restore(&mut fresh, &report.bundle.snapshot).unwrap();
                assert!(enforce_c_invariant(&fresh, &g.handles).is_err());
            }
            other => panic!("expected InvariantViolated, got {other:?}"),
        }
    }

    #[test]
    fn foreign_a_packets_counted() {
        let g = FnGadget::new(3);
        let graph = Arc::new(g.graph.clone());
        let mut eng = Engine::new(Arc::clone(&graph), Fifo, EngineConfig::default());
        let unit = Route::single(&graph, g.handles.ingress).unwrap();
        eng.seed(unit, 0).unwrap();
        let rep = check_c_invariant(&eng, &g.handles);
        assert_eq!(rep.a_foreign, 1);
        assert_eq!(rep.a_count, 0);
    }
}
