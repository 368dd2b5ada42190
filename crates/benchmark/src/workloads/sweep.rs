//! `sweep`: the E16 threshold-survival grid — 5 adversary models ×
//! FIFO/LIS/NTG × rate factors f ∈ {0.8, 1.0, 1.2} on `torus(4,4)`,
//! each cell a saturating adversary driving its model to the ceiling
//! while the engine re-validates the same model.
//!
//! Many moderately filled buffers, non-FIFO select scans, composed
//! validators and the adversary's headroom probes: the buffer layer is
//! used differently here than in `thm317` (few deep queues) and `ring`
//! (all shallow), so a layout that helps one and hurts another shows.
//!
//! The driver is built here from the same public pieces
//! `e16_model_landscape` uses. Cell seeds are the workload seed plus
//! ten times the rate factor, so seed 1600 reproduces E16 exactly.

use std::sync::Arc;
use std::time::Instant;

use aqt_adversary::stochastic::{random_routes, InjectionStyle, SaturatingAdversary};
use aqt_analysis::{classify_series, Verdict};
use aqt_core::experiments::e16_models;
use aqt_core::StabilityCertificate;
use aqt_graph::{topologies, Graph, Route};
use aqt_protocols::by_name;
use aqt_sim::{ConstraintSpec, Engine, EngineConfig, Protocol, Ratio};

use super::{set_up, Check, Rep, Scale, Traced, Workload};
use crate::trace::Tracer;

/// E16's path length bound and window.
const D: usize = 3;
const W: u64 = 12;
/// Rate factors ×10.
const F10: [u64; 3] = [8, 10, 12];
/// Protocols per cell, with the span each one's steps are timed under.
const PROTOCOLS: [(&str, &str); 3] = [
    ("FIFO", "protocols.fifo.step"),
    ("LIS", "protocols.lis.step"),
    ("NTG", "protocols.ntg.step"),
];

/// One cell's result, field for field comparable with `E16Row`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Model label from `e16_models`.
    pub model: &'static str,
    /// Protocol name.
    pub protocol: &'static str,
    /// Rate factor f.
    pub rate_factor: f64,
    /// Theorem 4.1's bound, where it applies.
    pub bound: Option<u64>,
    /// Measured max per-buffer wait.
    pub max_wait: u64,
    /// Measured peak queue.
    pub max_queue: u64,
    /// Backlog verdict.
    pub verdict: Verdict,
    /// Threshold result survives.
    pub survives: bool,
    /// The model has a `(w, r)` window member.
    pub window_member: bool,
}

/// Time totals of one grid pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridTimes {
    /// Constructing graph, routes, adversaries and engines.
    pub setup_s: f64,
    /// Stepping and classifying.
    pub run_s: f64,
    /// Simulated steps.
    pub steps: u64,
}

/// One cell, built and ready to step.
struct Ready {
    model: &'static str,
    protocol: &'static str,
    step_span: &'static str,
    f10: u64,
    rate: Ratio,
    window_member: bool,
    d_actual: usize,
    adv: SaturatingAdversary,
    eng: Engine<Box<dyn Protocol>>,
}

/// Build every cell of the grid: routes, adversary, engine.
fn build(graph: &Arc<Graph>, seed: u64, steps: u64) -> Result<Vec<Ready>, String> {
    let mut cells = Vec::new();
    for f10 in F10 {
        let rate = Ratio::new(f10, 10 * (D as u64 + 1));
        for (model, spec) in e16_models(W, rate) {
            for (protocol, step_span) in PROTOCOLS {
                let cell_seed = seed + f10;
                let routes = random_routes(graph, D, 24, cell_seed);
                let d_actual = routes.iter().map(Route::len).max().unwrap_or(1);
                let adv = SaturatingAdversary::with_model(
                    graph,
                    &spec,
                    routes,
                    InjectionStyle::Burst,
                    cell_seed ^ 0xe16,
                );
                let proto = by_name(protocol, cell_seed).ok_or("unknown protocol")?;
                let eng = Engine::new(
                    Arc::clone(graph),
                    proto,
                    EngineConfig {
                        validate: Some(spec.clone()),
                        sample_every: (steps / 256).max(1),
                        ..Default::default()
                    },
                );
                let window_member = spec
                    .members
                    .iter()
                    .any(|m| matches!(m, ConstraintSpec::Window { .. }));
                cells.push(Ready {
                    model,
                    protocol,
                    step_span,
                    f10,
                    rate,
                    window_member,
                    d_actual,
                    adv,
                    eng,
                });
            }
        }
    }
    Ok(cells)
}

/// Run the whole grid at `seed` for `steps` steps per cell. With a
/// tracer, every layer call gets a span or a per-step aggregate.
///
/// All cells are built before any is stepped. Building them takes
/// about half a millisecond, too short to time once, so the grid is
/// built several times and the median kept.
pub fn grid(
    seed: u64,
    steps: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Vec<Cell>, GridTimes), String> {
    let t_graph = Instant::now();
    let graph: Arc<Graph> = Arc::new(topologies::torus(4, 4));
    let graph_s = t_graph.elapsed().as_secs_f64();
    let (built, setup_s) = set_up(|| build(&graph, seed, steps))?;
    let mut times = GridTimes {
        setup_s: graph_s + setup_s,
        ..GridTimes::default()
    };
    let t_run = Instant::now();
    let mut cells = Vec::with_capacity(built.len());
    for mut c in built {
        for step in 1..=steps {
            match tracer.as_deref_mut() {
                None => c.eng.step(c.adv.injections_for(step)),
                Some(t) => {
                    let inj = t.time("adversary.inject", || c.adv.injections_for(step));
                    t.time(c.step_span, || c.eng.step(inj))
                }
            }
            .map_err(|e| format!("{}/{}/f{}: {e}", c.model, c.protocol, c.f10))?;
        }
        let bound = (c.window_member && c.f10 <= 10)
            .then(|| StabilityCertificate::new(W, c.rate, c.d_actual).greedy_bound())
            .flatten();
        let m = c.eng.metrics();
        let series: Vec<u64> = m.series().iter().map(|p| p.backlog).collect();
        let verdict = match tracer.as_deref_mut() {
            None => classify_series(&series),
            Some(t) => t.time("analysis.classify", || classify_series(&series)),
        };
        let max_wait = m.max_buffer_wait();
        cells.push(Cell {
            model: c.model,
            protocol: c.protocol,
            rate_factor: c.f10 as f64 / 10.0,
            bound,
            max_wait,
            max_queue: m.max_queue(),
            verdict,
            survives: verdict != Verdict::Diverging && bound.is_none_or(|b| max_wait <= b),
            window_member: c.window_member,
        });
        times.steps += steps;
    }
    times.run_s = t_run.elapsed().as_secs_f64();
    Ok((cells, times))
}

/// The paper's claim on this grid: every cell whose model has the
/// `(w, r)` member, at f ≤ 1, survives.
fn survival_check(cells: &[Cell]) -> Check {
    let covered: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.window_member && c.rate_factor <= 1.0)
        .collect();
    let failing: Vec<String> = covered
        .iter()
        .filter(|c| !c.survives)
        .map(|c| format!("{}/{}/f{}", c.model, c.protocol, c.rate_factor))
        .collect();
    Check::new(
        "sweep.window_cells_survive",
        !covered.is_empty() && failing.is_empty(),
        if failing.is_empty() {
            format!("{} window-member cells at f <= 1 survive", covered.len())
        } else {
            format!("not surviving: {}", failing.join(", "))
        },
    )
}

/// The `sweep` workload.
pub struct Sweep {
    seed: u64,
    steps: u64,
}

impl Sweep {
    /// The workload at `seed` and `scale`.
    pub fn new(seed: u64, scale: Scale) -> Sweep {
        let steps = match scale {
            Scale::Full => 6_000,
            Scale::Tiny => 300,
        };
        Sweep { seed, steps }
    }
}

impl Workload for Sweep {
    fn rep(&mut self) -> Result<Rep, String> {
        let (cells, times) = grid(self.seed, self.steps, None)?;
        let checks = vec![survival_check(&cells)];
        Ok(Rep {
            wall_s: times.setup_s + times.run_s,
            setup_s: times.setup_s,
            run_s: times.run_s,
            steps: times.steps,
            ops: 1,
            failed: u64::from(checks.iter().any(|c| !c.ok)),
            checks,
        })
    }

    fn traced(&mut self, tracer: &mut Tracer) -> Result<Traced, String> {
        let (cells, times) = tracer.span("sweep.grid", |t| grid(self.seed, self.steps, Some(t)))?;
        let wall_s = tracer.total_ns("sweep.grid") as f64 / 1e9;
        let per_step = |name: &'static str| {
            let a = tracer.aggregate(name);
            a.total_ns as f64 / a.count.max(1) as f64
        };
        let layers = vec![
            ("protocols.fifo.step_ns", per_step("protocols.fifo.step")),
            ("protocols.lis.step_ns", per_step("protocols.lis.step")),
            ("protocols.ntg.step_ns", per_step("protocols.ntg.step")),
            ("adversary.inject_ns_per_step", per_step("adversary.inject")),
            (
                "analysis.classify_ms",
                tracer.aggregate("analysis.classify").total_ns as f64 / 1e6,
            ),
        ];
        Ok(Traced {
            layers,
            wall_s,
            notes: vec![format!(
                "{} cells, {} steps; set-up {:.4} s, run {:.4} s",
                cells.len(),
                times.steps,
                times.setup_s,
                times.run_s
            )],
            checks: vec![survival_check(&cells)],
        })
    }
}
