//! Traffic sources: a pluggable interface for adversaries driven
//! step-by-step (as opposed to precompiled [`Schedule`]s).
//!
//! [`TrafficSource`] is the engine-facing face of the stochastic and
//! adaptive adversaries; [`run_with_source`] is the convenience loop
//! used by the sweep experiments.

use crate::engine::{Engine, EngineError, Injection};
use crate::packet::Time;
use crate::protocol::Protocol;
use crate::schedule::{PacketOp, Schedule};

/// A step-by-step traffic generator.
pub trait TrafficSource {
    /// Injections for substep 2 of step `t`. Called with strictly
    /// increasing `t`.
    fn injections_for(&mut self, t: Time) -> Vec<Injection>;

    /// Optional early-stop: `true` once the source is exhausted (the
    /// run loop may stop after this returns true and no packets
    /// remain).
    fn exhausted(&self) -> bool {
        false
    }
}

/// A source that never injects.
#[derive(Debug, Clone, Copy, Default)]
pub struct Silent;

impl TrafficSource for Silent {
    fn injections_for(&mut self, _: Time) -> Vec<Injection> {
        Vec::new()
    }

    fn exhausted(&self) -> bool {
        true
    }
}

/// Adapt a closure `Fn(t) -> Vec<Injection>` into a source.
pub struct FnSource<F>(pub F);

impl<F: FnMut(Time) -> Vec<Injection>> TrafficSource for FnSource<F> {
    fn injections_for(&mut self, t: Time) -> Vec<Injection> {
        (self.0)(t)
    }
}

/// Replay a precompiled [`Schedule`]'s injections as a source.
///
/// `Extend` operations are not representable through the source
/// interface (they act on engine state); use [`Schedule::run`] for
/// schedules that reroute. Construction fails if any are present.
pub struct ScheduleSource {
    ops: std::vec::IntoIter<(Time, crate::engine::Injection)>,
    peeked: Option<(Time, crate::engine::Injection)>,
}

impl ScheduleSource {
    /// Build from a schedule containing only `Inject` and `Stream`
    /// operations; streams are expanded to their packets.
    pub fn new(schedule: Schedule) -> Result<Self, EngineError> {
        let mut items = Vec::new();
        for op in schedule.packet_ops() {
            match op {
                PacketOp::Inject(time, inj) => items.push((time, inj.clone())),
                PacketOp::Extend(_) => {
                    return Err(EngineError::Usage(
                        "ScheduleSource cannot carry Extend ops; use Schedule::run".into(),
                    ));
                }
            }
        }
        items.sort_by_key(|(t, _)| *t);
        Ok(ScheduleSource {
            ops: items.into_iter(),
            peeked: None,
        })
    }
}

impl TrafficSource for ScheduleSource {
    fn injections_for(&mut self, t: Time) -> Vec<Injection> {
        let mut out = Vec::new();
        loop {
            let next = match self.peeked.take() {
                Some(x) => Some(x),
                None => self.ops.next(),
            };
            match next {
                Some((time, inj)) if time <= t => out.push(inj),
                Some(other) => {
                    self.peeked = Some(other);
                    break;
                }
                None => break,
            }
        }
        out
    }

    fn exhausted(&self) -> bool {
        self.peeked.is_none() && self.ops.len() == 0
    }
}

/// Drive `engine` with `source` for `steps` steps.
pub fn run_with_source<P: Protocol, S: TrafficSource>(
    engine: &mut Engine<P>,
    source: &mut S,
    steps: u64,
) -> Result<(), EngineError> {
    let start = engine.time();
    for t in (start + 1)..=(start + steps) {
        let inj = source.injections_for(t);
        engine.step(inj)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
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
    }

    #[test]
    fn silent_source_runs_quietly() {
        let g = Arc::new(topologies::line(2));
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        run_with_source(&mut eng, &mut Silent, 10).unwrap();
        assert_eq!(eng.time(), 10);
        assert_eq!(eng.metrics().injected, 0);
    }

    #[test]
    fn fn_source_injects() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        let mut src = FnSource(|t: Time| {
            if t.is_multiple_of(2) {
                vec![Injection::new(route.clone(), 0)]
            } else {
                vec![]
            }
        });
        run_with_source(&mut eng, &mut src, 10).unwrap();
        assert_eq!(eng.metrics().injected, 5);
    }

    #[test]
    fn schedule_source_replays_in_order() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut sched = Schedule::new();
        sched.inject_at(5, route.clone(), 1);
        sched.inject_at(2, route.clone(), 2); // out of order on purpose
        sched.inject_count(3, 2, Ratio::new(1, 2), &route, 4); // at 4 and 6
        sched.inject_at(5, route, 3);
        let mut src = ScheduleSource::new(sched).unwrap();
        let mut tags_at = |t| -> Vec<u32> { src.injections_for(t).iter().map(|i| i.tag).collect() };
        assert!(tags_at(1).is_empty());
        assert_eq!(tags_at(2), [2]);
        assert_eq!(tags_at(4), [4]);
        assert_eq!(tags_at(5), [1, 3]);
        assert_eq!(tags_at(6), [4]);
        assert!(src.exhausted());
    }

    #[test]
    fn schedule_source_rejects_extends() {
        let g = topologies::line(2);
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let mut sched = Schedule::new();
        sched.extend_at(1, vec![edges[0]], vec![edges[1]]);
        assert!(ScheduleSource::new(sched).is_err());
    }
}
