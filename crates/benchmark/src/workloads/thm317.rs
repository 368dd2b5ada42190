//! `thm317`: the Theorem 3.17 construction at ε = 1/4, one iteration,
//! with the exact rate validator and the Lemma 3.3 reroute checks on.
//!
//! A few FIFO queues grow very deep while adversary-built cohorts and
//! reroutes pour in, so the run stresses the simulator's buffers, the
//! rate validators and the adversary gadgets — and no workload,
//! campaign or non-FIFO code. The construction is fixed by the paper,
//! so the seed does not change it.
//!
//! The traced pass records the construction's adversary operations
//! once, then runs rounds of the construction itself plus a replay of
//! the record on a fresh engine under each of five probe settings
//! (validated, bare, sentinel, telemetry, observatory). Each probe's
//! cost is a paired difference against the bare replay of the same
//! round, and the construction's own cost is its paired difference
//! against the validated replay.

use std::sync::Arc;

use aqt_core::instability::{InstabilityConfig, InstabilityConstruction, InstabilityRun};
use aqt_graph::Route;
use aqt_protocols::Fifo;
use aqt_sim::{
    AdversaryModelSpec, Engine, EngineConfig, ObserveConfig, RingSink, Schedule, SentinelConfig,
    TelemetryConfig, Time,
};

use super::{set_up, timed, Check, Rep, Scale, Traced, Workload};
use crate::stats::Summary;
use crate::trace::Tracer;

/// The exact step count and peak backlog of one construction, per
/// scale. Any change to either is a change to the simulated
/// trajectory, not to speed.
fn pins(scale: Scale) -> (Time, u64) {
    match scale {
        Scale::Full => (904_670, 310_053),
        Scale::Tiny => (92_062, 33_883),
    }
}

fn config(scale: Scale, record_ops: bool) -> InstabilityConfig {
    let mut cfg = InstabilityConfig::new(1, 4);
    cfg.iterations = 1;
    cfg.validate = true;
    cfg.record_ops = record_ops;
    match scale {
        Scale::Full => {}
        // The smallest chain that still diverges in one iteration.
        Scale::Tiny => {
            cfg.s0_safety = 1.5;
            cfg.m_override = Some(5);
        }
    }
    cfg
}

/// The probe settings of the ablation replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// The construction's own validation: exact rate-r model plus
    /// Lemma 3.3 reroute checks.
    Validated,
    /// No validation, no probes.
    Bare,
    /// The runtime sentinel at its default cadence.
    Sentinel,
    /// Timing-level telemetry into a ring sink.
    Telemetry,
    /// The queue observatory at its defaults into a ring sink.
    Observe,
}

/// One ablation round: the construction itself (`None`), then a replay
/// under each probe setting.
const PASSES: [Option<Probe>; 6] = [
    None,
    Some(Probe::Validated),
    Some(Probe::Bare),
    Some(Probe::Sentinel),
    Some(Probe::Telemetry),
    Some(Probe::Observe),
];

impl Probe {
    const ALL: [Probe; 5] = [
        Probe::Validated,
        Probe::Bare,
        Probe::Sentinel,
        Probe::Telemetry,
        Probe::Observe,
    ];

    fn span(self) -> &'static str {
        match self {
            Probe::Validated => "sim.replay.validated",
            Probe::Bare => "sim.replay.bare",
            Probe::Sentinel => "sim.replay.sentinel",
            Probe::Telemetry => "sim.replay.telemetry",
            Probe::Observe => "sim.replay.observe",
        }
    }
}

/// The `thm317` workload.
pub struct Thm317 {
    scale: Scale,
}

impl Thm317 {
    /// The workload at `scale`.
    pub fn new(scale: Scale) -> Thm317 {
        Thm317 { scale }
    }

    /// Ablation rounds in the traced pass.
    fn rounds(&self) -> usize {
        match self.scale {
            Scale::Full => 5,
            Scale::Tiny => 2,
        }
    }

    fn checks(&self, run: &InstabilityRun) -> Vec<Check> {
        let (steps, peak) = pins(self.scale);
        let growth = run.iterations.first().map_or(0.0, |it| it.growth());
        vec![
            Check::new("thm317.diverged", run.diverged, format!("{}", run.diverged)),
            Check::new(
                "thm317.growth",
                growth > 1.0,
                format!("S4/S1 = {growth:.4}"),
            ),
            Check::new(
                "thm317.steps",
                run.total_steps == steps,
                format!("{} steps (pinned {steps})", run.total_steps),
            ),
            Check::new(
                "thm317.peak_backlog",
                run.max_backlog == peak,
                format!("{} packets (pinned {peak})", run.max_backlog),
            ),
            Check::new(
                "thm317.no_watchdog",
                run.watchdog.is_none(),
                format!("{:?}", run.watchdog),
            ),
        ]
    }
}

/// A fresh engine on `G_ε` under `probe`, seeded with the
/// construction's initial configuration (`s_star` unit-route packets
/// at the ingress).
fn engine_for(
    c: &InstabilityConstruction,
    s_star: u64,
    probe: Probe,
    tracer: &mut Tracer,
) -> Result<Engine<Fifo>, String> {
    tracer.span("sim.replay_setup", |_| {
        let graph = Arc::new(c.geps.graph.clone());
        let unit = Route::single(&graph, c.geps.ingress()).map_err(|e| e.to_string())?;
        let validated = probe == Probe::Validated;
        let mut eng = Engine::new(
            graph,
            Fifo,
            EngineConfig {
                validate: validated.then(|| AdversaryModelSpec::rate(c.params.rate)),
                validate_reroutes: validated,
                ..Default::default()
            },
        );
        match probe {
            Probe::Validated | Probe::Bare => {}
            Probe::Sentinel => eng.attach_sentinel(SentinelConfig::default()),
            Probe::Telemetry => {
                eng.attach_telemetry(TelemetryConfig::timing());
                eng.set_telemetry_sink(Box::new(RingSink::with_capacity(1024)));
            }
            Probe::Observe => {
                eng.attach_observatory(ObserveConfig::default());
                eng.set_telemetry_sink(Box::new(RingSink::with_capacity(1024)));
            }
        }
        eng.seed_cohort(unit, 0, s_star)
            .map_err(|e| e.to_string())?;
        Ok(eng)
    })
}

impl Workload for Thm317 {
    fn rep(&mut self) -> Result<Rep, String> {
        let cfg = config(self.scale, false);
        let (c, setup_s) = set_up(|| Ok(InstabilityConstruction::new(cfg.clone())))?;
        let (run, run_s) = timed(|| c.run());
        let run = run.map_err(|e| e.to_string())?;
        let checks = self.checks(&run);
        Ok(Rep {
            wall_s: setup_s + run_s,
            setup_s,
            run_s,
            steps: run.total_steps,
            ops: 1,
            failed: u64::from(checks.iter().any(|c| !c.ok)),
            checks,
        })
    }

    fn traced(&mut self, tracer: &mut Tracer) -> Result<Traced, String> {
        let (c, run) = tracer.span("core.instability_record", |_| {
            let c = InstabilityConstruction::new(config(self.scale, true));
            let run = c.run();
            (c, run)
        });
        let run = run.map_err(|e| e.to_string())?;
        let mut checks = self.checks(&run);
        let steps = run.total_steps;
        let final_backlog = run.iterations.last().map_or(0, |it| it.s_end);

        // Each round runs the construction as a measured rep does (no
        // recording) and one replay per probe setting. Round r starts
        // at pass r, so no pass always follows the same neighbour.
        let mut mismatches = Vec::new();
        for round in 0..self.rounds() {
            for k in 0..PASSES.len() {
                match PASSES[(round + k) % PASSES.len()] {
                    None => {
                        let again = tracer
                            .span("core.instability", |_| {
                                InstabilityConstruction::new(config(self.scale, false)).run()
                            })
                            .map_err(|e| e.to_string())?;
                        if again.total_steps != steps {
                            mismatches.push(format!("construction ran {}", again.total_steps));
                        }
                    }
                    Some(probe) => {
                        let mut eng = engine_for(&c, run.s_star, probe, tracer)?;
                        tracer
                            .span(probe.span(), |_| run.recorded.replay(&mut eng, steps))
                            .map_err(|e| format!("{probe:?} replay: {e}"))?;
                        if eng.backlog() != final_backlog {
                            mismatches.push(format!("{probe:?} ended at {}", eng.backlog()));
                        }
                    }
                }
            }
        }
        checks.push(Check::new(
            "thm317.replays_agree",
            mismatches.is_empty(),
            format!(
                "{} rounds of construction + {} replays end at backlog {final_backlog}; {}",
                self.rounds(),
                Probe::ALL.len(),
                mismatches.join(", ")
            ),
        ));

        // Packet storage at the backlog peak: replay (bare) the
        // operations up to the sampled peak and account the buffers
        // plus the interned routes.
        let peak_at = run
            .series
            .iter()
            .max_by_key(|s| s.backlog)
            .map_or(steps, |s| s.time);
        let mut prefix = Schedule::new();
        for op in run.recorded.ops().iter().filter(|op| op.time() <= peak_at) {
            prefix.push(op.clone());
        }
        let mut at_peak = engine_for(&c, run.s_star, Probe::Bare, tracer)?;
        tracer
            .span("sim.replay_to_peak", |_| {
                prefix.replay(&mut at_peak, peak_at)
            })
            .map_err(|e| format!("replay to peak: {e}"))?;
        let bytes_per_packet = at_peak.packet_heap_bytes() as f64 / at_peak.backlog().max(1) as f64;

        let per_step = |probe: Probe| -> Vec<f64> {
            tracer
                .durations_ns(probe.span())
                .into_iter()
                .map(|ns| ns as f64 / steps as f64)
                .collect()
        };
        let bare = per_step(Probe::Bare);
        let paired = |probe: Probe| -> Summary {
            let d: Vec<f64> = per_step(probe)
                .iter()
                .zip(&bare)
                .map(|(x, b)| x - b)
                .collect();
            Summary::of(&d)
        };
        let validated = Summary::of(&per_step(Probe::Validated));
        let constructions = tracer.durations_ns("core.instability");
        let self_s: Vec<f64> = constructions
            .iter()
            .zip(tracer.durations_ns(Probe::Validated.span()))
            .map(|(c, v)| (*c as f64 - v as f64) / 1e9)
            .collect();
        let construction_s: Vec<f64> = constructions.iter().map(|&ns| ns as f64 / 1e9).collect();
        let mut notes = vec![format!(
            "replay ns/step, median [q1, q3] over {} rounds: validated {:.1} [{:.1}, {:.1}], bare {:.1}",
            self.rounds(),
            validated.median,
            validated.q1,
            validated.q3,
            Summary::of(&bare).median
        )];
        let mut layers = vec![
            ("sim.replay_ns_per_step", validated.median),
            ("sim.bytes_per_packet", bytes_per_packet),
            ("core.instability_self_s", Summary::of(&self_s).median),
        ];
        for (probe, metric) in [
            (Probe::Validated, "sim.validate_ns_per_step"),
            (Probe::Sentinel, "sim.sentinel_ns_per_step"),
            (Probe::Telemetry, "sim.telemetry_ns_per_step"),
            (Probe::Observe, "sim.observe_ns_per_step"),
        ] {
            let s = paired(probe);
            notes.push(format!(
                "{probe:?} - bare, paired ns/step: median {:.2} [q1 {:.2}, q3 {:.2}], n {}",
                s.median, s.q1, s.q3, s.n
            ));
            layers.push((metric, s.median));
        }
        Ok(Traced {
            layers,
            wall_s: Summary::of(&construction_s).median,
            notes,
            checks,
        })
    }
}
