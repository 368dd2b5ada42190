//! Scenario execution: lower a [`Scenario`] onto a real engine, run it
//! under an all-[`Severity::Halt`](aqt_sim::Severity) sentinel, and
//! classify what happened.
//!
//! Every campaign run gets the full self-verification stack: a
//! sentinel at the scenario's cadence (certificate included when the
//! scenario carries one) and counter-level telemetry, whose totals
//! feed the coverage map. A halted invariant surfaces as
//! [`Outcome::Breach`] carrying the engine's own
//! [`ViolationReport`] — seed, step, snapshot, and fault plan, exactly
//! what the shrinker and the regression emitter need.

use aqt_protocols::registry;
use aqt_sim::sentinel::SentinelConfig;
use aqt_sim::telemetry::{Provenance, TelemetryConfig, TelemetryLevel};
use aqt_sim::{AdversaryModelSpec, Engine, EngineConfig, EngineError, Protocol, ViolationReport};
use aqt_workload::{ClosedLoop, WorkloadError};

use crate::scenario::{ClosedLoopSpec, Scenario};

/// Backlog-series sampling cadence for campaign runs. Every run
/// samples `Q(t)` at this stride so a breach's
/// [`ReproBundle`](aqt_sim::sentinel::ReproBundle) carries the
/// backlog trajectory leading up to the violation — a finding can be
/// triaged without replaying it.
const BACKLOG_SAMPLE_EVERY: u64 = 32;

/// What one run actually did — the coverage map's raw material.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Steps executed (may stop short of the horizon on a breach).
    pub steps: u64,
    /// Edge count of the materialized graph.
    pub edges: u64,
    /// Packets injected (schedule and bursts).
    pub injected: u64,
    /// Packets absorbed at their destinations.
    pub absorbed: u64,
    /// Packets dropped by faults.
    pub dropped: u64,
    /// Packets duplicated by faults.
    pub duplicated: u64,
    /// Peak backlog over the sampled series (and the final state).
    pub peak_backlog: u64,
    /// Peak single-buffer queue length.
    pub peak_queue: u64,
    /// Worst per-buffer wait (the Theorem 4.1/4.3 quantity).
    pub peak_wait: u64,
    /// Total edge crossings (telemetry `packets_sent`).
    pub crossings: u64,
    /// Completed sentinel check rounds.
    pub sentinel_rounds: u64,
}

impl RunStats {
    fn capture<P: Protocol>(engine: &Engine<P>) -> RunStats {
        let m = engine.metrics();
        let c = engine.telemetry().counters();
        RunStats {
            steps: engine.time(),
            edges: engine.graph().edge_count() as u64,
            injected: m.injected(),
            absorbed: m.absorbed(),
            dropped: m.dropped(),
            duplicated: m.duplicated(),
            peak_backlog: m
                .series()
                .iter()
                .map(|s| s.backlog)
                .max()
                .unwrap_or(0)
                .max(m.backlog()),
            peak_queue: m.max_queue(),
            peak_wait: m.max_buffer_wait(),
            crossings: c.packets_sent,
            sentinel_rounds: c.sentinel_rounds,
        }
    }
}

/// The classification of one campaign run.
#[derive(Debug)]
pub enum Outcome {
    /// Ran to the horizon with every invariant holding.
    Clean(RunStats),
    /// A sentinel invariant halted the run; the report carries the
    /// repro bundle.
    Breach(Box<ViolationReport>, RunStats),
    /// The injection schedule violated the scenario's own declared
    /// adversary model (the engine's exact re-validation fired). The
    /// string is the violation detail. Not a breach — the validator
    /// working is correct behavior — and not `Invalid`: the run
    /// executed up to the violating step and its stats still count.
    Overrate(String, RunStats),
    /// The scenario could not be built or misused the engine — a
    /// generator bug, not a simulator bug.
    Invalid(String),
}

impl Outcome {
    /// The run's stats, when it ran at all.
    pub fn stats(&self) -> Option<&RunStats> {
        match self {
            Outcome::Clean(s) | Outcome::Breach(_, s) | Outcome::Overrate(_, s) => Some(s),
            Outcome::Invalid(_) => None,
        }
    }

    /// Is this a breach?
    pub fn is_breach(&self) -> bool {
        matches!(self, Outcome::Breach(_, _))
    }
}

/// Registry index of `name`, for coverage bucketing.
pub fn protocol_index(name: &str) -> Option<u8> {
    registry::protocol_names()
        .iter()
        .position(|n| n.eq_ignore_ascii_case(name))
        .map(|i| i as u8)
}

/// Run a closed-loop scenario: the workload driver generates the
/// injections, the scenario's model validates the realized dispatch
/// sequence, and the same all-halt sentinel stack (certificate
/// included) watches the engine. Request conservation is enforced by
/// the driver itself every step, so a ledger breach surfaces exactly
/// like a sentinel breach: as [`Outcome::Breach`] with a repro bundle.
fn run_closed_loop(scenario: &Scenario, spec: &ClosedLoopSpec) -> Outcome {
    if !scenario.injections.is_empty() || !scenario.faults.is_empty() {
        return Outcome::Invalid(
            "closed-loop scenario cannot carry an open-loop schedule or faults".into(),
        );
    }
    if !scenario.protocol.eq_ignore_ascii_case("FIFO") {
        return Outcome::Invalid(format!(
            "closed-loop service order is FIFO; scenario names '{}'",
            scenario.protocol
        ));
    }
    let mut cfg = spec.lower(scenario.seed);
    cfg.validate =
        (!scenario.model.is_empty()).then(|| AdversaryModelSpec::new(scenario.model.clone()));
    let mut cl = ClosedLoop::on_line(cfg);
    cl.engine_mut().set_sample_every(BACKLOG_SAMPLE_EVERY);
    let mut sentinel = SentinelConfig::all_halt()
        .with_cadence(scenario.cadence)
        .with_seed(scenario.seed);
    sentinel.deep_stride = scenario.deep_stride.max(1);
    sentinel.certificate_spec = scenario.certificate;
    cl.engine_mut().attach_sentinel(sentinel);
    cl.engine_mut().attach_telemetry(TelemetryConfig {
        level: TelemetryLevel::Counters,
        window: 0,
        provenance: Provenance {
            seed: Some(scenario.seed),
            schedule_hash: None,
            protocol: scenario.protocol.clone(),
            fault_plan_id: None,
            model_fingerprint: None, // auto-filled from the engine's model
        },
    });
    match cl.run(scenario.horizon) {
        Ok(()) => Outcome::Clean(RunStats::capture(cl.engine())),
        Err(WorkloadError::Invariant(report))
        | Err(WorkloadError::Engine(EngineError::Invariant(report))) => {
            Outcome::Breach(report, RunStats::capture(cl.engine()))
        }
        Err(WorkloadError::Engine(EngineError::Rate(v))) => {
            Outcome::Overrate(v.to_string(), RunStats::capture(cl.engine()))
        }
        Err(e) => Outcome::Invalid(e.to_string()),
    }
}

/// Run the open-loop path of `scenario`: its schedule replayed
/// against its fault plan.
fn run_open_loop(scenario: &Scenario) -> Outcome {
    let built = match scenario.build() {
        Ok(b) => b,
        Err(e) => return Outcome::Invalid(e),
    };
    let Some(protocol) = registry::by_name(&scenario.protocol, scenario.seed) else {
        return Outcome::Invalid(format!("unknown protocol '{}'", scenario.protocol));
    };
    let validate =
        (!scenario.model.is_empty()).then(|| AdversaryModelSpec::new(scenario.model.clone()));
    let mut engine = Engine::new(
        built.graph,
        protocol,
        EngineConfig {
            validate,
            sample_every: BACKLOG_SAMPLE_EVERY,
            ..EngineConfig::default()
        },
    );
    let mut sentinel = SentinelConfig::all_halt()
        .with_cadence(scenario.cadence)
        .with_seed(scenario.seed);
    sentinel.deep_stride = scenario.deep_stride.max(1);
    sentinel.certificate_spec = scenario.certificate;
    engine.attach_sentinel(sentinel);
    engine.attach_telemetry(TelemetryConfig {
        level: TelemetryLevel::Counters,
        window: 0,
        provenance: Provenance {
            seed: Some(scenario.seed),
            schedule_hash: Some(built.schedule.content_hash()),
            protocol: scenario.protocol.clone(),
            fault_plan_id: None,
            model_fingerprint: None, // auto-filled from the engine's model
        },
    });
    if !built.faults.is_empty() {
        if let Err(e) = engine.install_faults(built.faults) {
            return Outcome::Invalid(e.to_string());
        }
    }
    match built.schedule.replay(&mut engine, scenario.horizon) {
        Ok(()) => Outcome::Clean(RunStats::capture(&engine)),
        Err(EngineError::Invariant(report)) => Outcome::Breach(report, RunStats::capture(&engine)),
        Err(EngineError::Rate(v)) => Outcome::Overrate(v.to_string(), RunStats::capture(&engine)),
        Err(e) => Outcome::Invalid(e.to_string()),
    }
}

/// Build and run `scenario` to its horizon (or first halting breach).
pub fn run_scenario(scenario: &Scenario) -> Outcome {
    match &scenario.closed_loop {
        Some(spec) => run_closed_loop(scenario, spec),
        None => run_open_loop(scenario),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CohortSpec, InjectSpec, TopologySpec};
    use aqt_sim::sentinel::CertificateSpec;
    use aqt_sim::{InvariantKind, Ratio};

    fn clean_scenario() -> Scenario {
        Scenario {
            topology: TopologySpec::Line(3),
            protocol: "FIFO".into(),
            seed: 11,
            horizon: 40,
            cadence: 1,
            deep_stride: 1,
            injections: vec![
                InjectSpec {
                    time: 1,
                    cohort: CohortSpec {
                        route: vec![0, 1, 2],
                        tag: 0,
                        count: 3,
                    },
                },
                InjectSpec {
                    time: 5,
                    cohort: CohortSpec {
                        route: vec![1, 2],
                        tag: 1,
                        count: 2,
                    },
                },
            ],
            faults: vec![],
            model: vec![],
            certificate: None,
            closed_loop: None,
        }
    }

    #[test]
    fn clean_run_reports_stats() {
        let out = run_scenario(&clean_scenario());
        let Outcome::Clean(stats) = out else {
            panic!("expected clean, got {out:?}");
        };
        assert_eq!(stats.steps, 40);
        assert_eq!(stats.injected, 5);
        assert_eq!(stats.absorbed, 5);
        assert!(stats.crossings >= 3 * 3 + 2 * 2);
        assert!(stats.sentinel_rounds > 0);
        assert!(stats.peak_queue >= 3);

        // RANDOM has no discipline fast path; its `select` runs clean
        // through the same stack.
        let mut s = clean_scenario();
        s.protocol = "RANDOM".into();
        let out = run_scenario(&s);
        let Outcome::Clean(stats) = out else {
            panic!("expected clean under RANDOM, got {out:?}");
        };
        assert_eq!(stats.absorbed, 5);
    }

    #[test]
    fn tight_certificate_is_breached_and_bundled() {
        // A deliberately unsatisfiable tripwire: bound ⌈w·r⌉ = 1 on a
        // single-edge route, then a cohort of 5 — the last packet waits
        // 4 steps.
        let mut s = clean_scenario();
        s.injections = vec![InjectSpec {
            time: 1,
            cohort: CohortSpec {
                route: vec![0],
                tag: 0,
                count: 5,
            },
        }];
        s.certificate = Some(CertificateSpec {
            window: 1,
            rate: Ratio::new(1, 2),
            d: 1,
            initial: 0,
            time_priority: false,
        });
        let out = run_scenario(&s);
        let Outcome::Breach(report, stats) = out else {
            panic!("expected breach, got {out:?}");
        };
        assert_eq!(report.violation.kind, InvariantKind::Certificate);
        assert_eq!(report.bundle.seed, Some(11));
        assert_eq!(report.bundle.step, report.violation.time);
        assert!(stats.steps < 40, "halted before the horizon");
    }

    #[test]
    fn breach_is_deterministic() {
        let mut s = clean_scenario();
        s.injections[0].cohort.count = 6;
        s.certificate = Some(CertificateSpec {
            window: 1,
            rate: Ratio::new(1, 4),
            d: 3,
            initial: 0,
            time_priority: false,
        });
        let (a, b) = (run_scenario(&s), run_scenario(&s));
        match (a, b) {
            (Outcome::Breach(ra, _), Outcome::Breach(rb, _)) => {
                assert_eq!(ra.violation, rb.violation);
                assert_eq!(ra.bundle, rb.bundle);
            }
            other => panic!("expected two identical breaches, got {other:?}"),
        }
    }

    #[test]
    fn legal_model_runs_clean_under_validation() {
        // Edge 1 sees 3 packets at t=1 and 2 at t=5: 5 per 8-window
        // (≤ ⌊8·3/4⌋ = 6) and a worst burst of 3 in one step (≤ 1+4).
        let mut s = clean_scenario();
        s.model = vec![
            aqt_sim::ConstraintSpec::Window {
                window: 8,
                rate: Ratio::new(3, 4),
            },
            aqt_sim::ConstraintSpec::BufferBound { bound: 4 },
        ];
        let out = run_scenario(&s);
        let Outcome::Clean(stats) = out else {
            panic!("expected clean under a satisfied model, got {out:?}");
        };
        assert_eq!(stats.injected, 5);
    }

    #[test]
    fn model_violating_schedule_is_overrate_not_breach() {
        // The first cohort puts 3 packets on each edge in one step,
        // busting buffer_bound(1) (burst cap |I| + B = 2).
        let mut s = clean_scenario();
        s.model = vec![aqt_sim::ConstraintSpec::BufferBound { bound: 1 }];
        let out = run_scenario(&s);
        let Outcome::Overrate(detail, stats) = out else {
            panic!("expected overrate, got {out:?}");
        };
        assert!(
            detail.contains("buffer"),
            "detail names the member: {detail}"
        );
        assert!(!Outcome::Overrate(detail, stats).is_breach());
    }

    #[test]
    fn unknown_protocol_is_invalid_not_breach() {
        let mut s = clean_scenario();
        s.protocol = "NOPE".into();
        assert!(matches!(run_scenario(&s), Outcome::Invalid(_)));
    }

    #[test]
    fn protocol_index_matches_registry() {
        assert_eq!(protocol_index("FIFO"), Some(0));
        assert_eq!(protocol_index("random"), Some(8));
        assert_eq!(protocol_index("nope"), None);
    }
}
