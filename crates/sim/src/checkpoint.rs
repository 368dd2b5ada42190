//! Full-state checkpoints: crash-safe capture and bit-for-bit resume.
//!
//! A [`crate::snapshot::Snapshot`] captures the *network* state and is
//! deliberately blind to everything else — which is why restoring one
//! into a validating engine is refused. A [`Checkpoint`] captures the
//! complete engine state:
//!
//! * the network snapshot (buffers, clock, id counter),
//! * the full [`Metrics`] (peaks, per-edge counters, backlog series),
//! * the adversary-model history ([`AdversaryModel`] — every member's
//!   incremental state), so a resumed run keeps validating exactly
//!   where it left off,
//! * the reroute bookkeeping (`last_route_use`, which drives the
//!   Definition 3.2 "new edge" check),
//! * the fault log.
//!
//! The contract, enforced by the resume tests: running `N` steps, then
//! checkpointing, restoring into a fresh engine, and running `M` more
//! steps is **state-identical** to running `N + M` steps uninterrupted
//! — including metrics, validator acceptance, and fault behavior.
//!
//! The installed [`crate::fault::FaultPlan`] is *not* part of a
//! checkpoint: the plan is configuration (like the protocol and the
//! graph), so a resuming engine is constructed with the same plan and
//! the checkpoint supplies the dynamic state.

use crate::engine::Engine;
use crate::error::SimError;
use crate::fault::FaultEvent;
use crate::metrics::Metrics;
use crate::packet::Time;
use crate::protocol::Protocol;
use crate::rate::AdversaryModel;
use crate::sentinel::SentinelState;
use crate::snapshot::{self, Snapshot};

/// A complete engine state capture. See the module docs for what it
/// holds beyond a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The network state (also usable standalone for diffing).
    pub snapshot: Snapshot,
    metrics: Metrics,
    model: Option<AdversaryModel>,
    last_route_use: Vec<Option<Time>>,
    fault_log: Vec<FaultEvent>,
    /// Dynamic state of the attached sentinel (check phase, crossing
    /// baseline, rounds run) — present iff the captured engine had
    /// one. The sentinel *configuration*, like the fault
    /// plan, is configuration and travels outside the checkpoint.
    sentinel: Option<SentinelState>,
}

impl Checkpoint {
    /// Engine time at capture.
    pub fn time(&self) -> Time {
        self.snapshot.time
    }

    /// Backlog at capture.
    pub fn backlog(&self) -> u64 {
        self.metrics.backlog()
    }

    /// The captured metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The captured fault log.
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.fault_log
    }

    /// The captured sentinel state, if the source engine had a sentinel
    /// attached. Campaign triage reads this to tell whether a resumed
    /// run would re-arm mid-window certificate tracking or start from a
    /// fresh baseline.
    pub fn sentinel_state(&self) -> Option<&SentinelState> {
        self.sentinel.as_ref()
    }
}

/// Capture the complete state of `engine`.
pub fn checkpoint<P: Protocol>(engine: &Engine<P>) -> Checkpoint {
    let (model, last_route_use, metrics, fault_log) = engine.full_state();
    Checkpoint {
        snapshot: snapshot::capture(engine),
        metrics: metrics.clone(),
        model: model.cloned(),
        last_route_use: last_route_use.to_vec(),
        fault_log: fault_log.to_vec(),
        sentinel: engine.sentinel_state().cloned(),
    }
}

/// Restore `ck` into `engine`, replacing its entire dynamic state
/// (network, clock, metrics, adversary-model history, fault log).
///
/// Unlike [`snapshot::restore`], this works on validating engines —
/// the model history travels with the checkpoint. The target must be
/// over a graph with the same edge count, and its adversary-model
/// *spec* must equal the checkpoint's member for member (a checkpoint
/// taken under `rate(1/2)` cannot resume on an unvalidated engine or
/// under `rate(1/2) ∘ buffer_bound(4)` — silently changing what gets
/// validated mid-run would make the resumed result incomparable).
pub fn restore<P: Protocol>(engine: &mut Engine<P>, ck: &Checkpoint) -> Result<(), SimError> {
    let (model, _, _, _) = engine.full_state();
    if model.map(AdversaryModel::spec) != ck.model.as_ref().map(AdversaryModel::spec) {
        return Err(SimError::Checkpoint(
            "adversary-model configuration differs between checkpoint and engine".into(),
        ));
    }
    if engine.sentinel().is_some() != ck.sentinel.is_some() {
        return Err(SimError::Checkpoint(
            "sentinel configuration differs between checkpoint and engine".into(),
        ));
    }
    apply(engine, &ck.snapshot, Some(ck)).map_err(|refusal| match refusal {
        Refusal::Schema(found) => SimError::SchemaMismatch {
            found,
            expected: snapshot::SNAPSHOT_SCHEMA_VERSION,
        },
        Refusal::Corrupt(e) => SimError::Checkpoint(e),
    })
}

/// Why [`apply`] refused a payload; the engine is untouched.
pub(crate) enum Refusal {
    /// The payload carries this schema stamp, not
    /// [`snapshot::SNAPSHOT_SCHEMA_VERSION`].
    Schema(u32),
    /// The payload does not fit the engine's graph or contradicts
    /// itself ([`snapshot::validate_payload`]).
    Corrupt(String),
}

/// The one restore path behind [`snapshot::restore`] and [`restore`]
/// (their engine gates run first): check the schema stamp and the
/// payload before any mutation, fold the telemetry flow so far into
/// its totals, install `full`'s metrics, model history, reroute
/// bookkeeping and fault log when restoring a checkpoint, restore the
/// network state and clock (which re-anchors the probes), and last
/// reinstate a checkpointed sentinel state over that fresh baseline.
pub(crate) fn apply<P: Protocol>(
    engine: &mut Engine<P>,
    snap: &Snapshot,
    full: Option<&Checkpoint>,
) -> Result<(), Refusal> {
    if snap.schema != snapshot::SNAPSHOT_SCHEMA_VERSION {
        return Err(Refusal::Schema(snap.schema));
    }
    snapshot::validate_payload(snap, engine.graph().edge_count()).map_err(Refusal::Corrupt)?;
    engine.fold_telemetry();
    if let Some(ck) = full {
        engine.restore_full_state(
            ck.model.clone(),
            ck.last_route_use.clone(),
            ck.metrics.clone(),
            ck.fault_log.clone(),
        );
    }
    engine.restore_state(snap);
    if let Some(st) = full.and_then(|ck| ck.sentinel.clone()) {
        engine.restore_sentinel_state(st);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Injection};
    use crate::packet::Packet;
    use crate::ratio::Ratio;
    use aqt_graph::{topologies, EdgeId, Graph, Route};
    use std::collections::VecDeque;
    use std::sync::Arc;

    struct Fifo;
    impl Protocol for Fifo {
        fn name(&self) -> &str {
            "FIFO"
        }
        fn select(&mut self, _: Time, _: EdgeId, _: &VecDeque<Packet>, _: &Graph) -> usize {
            0
        }
        fn discipline(&self) -> crate::protocol::Discipline {
            crate::protocol::Discipline::ArrivalOrder
        }
    }

    fn validating_engine() -> (Engine<Fifo>, Route) {
        let g = Arc::new(topologies::line(2));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route = Route::new(&g, edges).unwrap();
        let eng = Engine::new(
            g,
            Fifo,
            EngineConfig {
                validate: Some(crate::rate::AdversaryModelSpec::rate(Ratio::new(1, 2))),
                sample_every: 3,
                ..Default::default()
            },
        );
        (eng, route)
    }

    fn drive(eng: &mut Engine<Fifo>, route: &Route, steps: u64, offset: u64) {
        // rate 1/2: inject every other step
        for k in 0..steps {
            if (offset + k).is_multiple_of(2) {
                eng.step([Injection::new(route.clone(), 0)]).unwrap();
            } else {
                eng.step(std::iter::empty::<Injection>()).unwrap();
            }
        }
    }

    #[test]
    fn resume_is_identical_to_uninterrupted_even_with_validators() {
        let (mut full, route) = validating_engine();
        drive(&mut full, &route, 30, 0);

        let (mut half, _) = validating_engine();
        drive(&mut half, &route, 12, 0);
        let ck = checkpoint(&half);

        let (mut resumed, _) = validating_engine();
        restore(&mut resumed, &ck).unwrap();
        assert_eq!(resumed.time(), 12);
        drive(&mut resumed, &route, 18, 12);

        assert_eq!(snapshot::capture(&full), snapshot::capture(&resumed));
        assert_eq!(full.metrics().injected, resumed.metrics().injected);
        assert_eq!(full.metrics().absorbed, resumed.metrics().absorbed);
        assert_eq!(
            full.metrics().max_buffer_wait,
            resumed.metrics().max_buffer_wait
        );
        assert_eq!(full.metrics().series, resumed.metrics().series);
        assert_eq!(
            full.metrics().crossings_per_edge,
            resumed.metrics().crossings_per_edge
        );
    }

    #[test]
    fn resumed_validator_still_rejects_overload() {
        let (mut eng, route) = validating_engine();
        drive(&mut eng, &route, 10, 0);
        let ck = checkpoint(&eng);
        let (mut resumed, _) = validating_engine();
        restore(&mut resumed, &ck).unwrap();
        // two injections in consecutive steps break rate 1/2 given the
        // resumed history
        resumed.step([Injection::new(route.clone(), 0)]).unwrap();
        assert!(resumed.step([Injection::new(route, 0)]).is_err());
    }

    #[test]
    fn restore_rejects_validator_mismatch() {
        let (eng, _) = validating_engine();
        let ck = checkpoint(&eng);
        let g = Arc::new(topologies::line(2));
        let mut plain = Engine::new(g, Fifo, EngineConfig::default());
        assert!(matches!(
            restore(&mut plain, &ck),
            Err(SimError::Checkpoint(_))
        ));
    }

    #[test]
    fn restore_rejects_schema_mismatch() {
        let (eng, _) = validating_engine();
        let mut ck = checkpoint(&eng);
        ck.snapshot.schema = snapshot::SNAPSHOT_SCHEMA_VERSION + 1;
        let (mut other, _) = validating_engine();
        assert!(matches!(
            restore(&mut other, &ck),
            Err(SimError::SchemaMismatch {
                expected: snapshot::SNAPSHOT_SCHEMA_VERSION,
                ..
            })
        ));
    }

    #[test]
    fn restore_rejects_graph_mismatch() {
        let (eng, _) = validating_engine();
        let ck = checkpoint(&eng);
        let g = Arc::new(topologies::line(5));
        let mut other = Engine::new(
            g,
            Fifo,
            EngineConfig {
                validate: Some(crate::rate::AdversaryModelSpec::rate(Ratio::new(1, 2))),
                ..Default::default()
            },
        );
        assert!(matches!(
            restore(&mut other, &ck),
            Err(SimError::Checkpoint(_))
        ));
    }

    #[test]
    fn restore_rejects_model_spec_mismatch() {
        // Both engines validate, but under different model specs: the
        // fail-closed gate compares member for member, not presence.
        let (eng, _) = validating_engine();
        let ck = checkpoint(&eng);
        let g = Arc::new(topologies::line(2));
        let mut other = Engine::new(
            g,
            Fifo,
            EngineConfig {
                validate: Some(
                    crate::rate::AdversaryModelSpec::rate(Ratio::new(1, 2))
                        .and(crate::rate::ConstraintSpec::BufferBound { bound: 4 }),
                ),
                sample_every: 3,
                ..Default::default()
            },
        );
        assert!(matches!(
            restore(&mut other, &ck),
            Err(SimError::Checkpoint(_))
        ));
    }
}
