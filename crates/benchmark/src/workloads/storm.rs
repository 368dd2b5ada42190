//! `storm`: the E17 closed-loop grid — timeout × queue capacity ×
//! retry policy × shed discipline, 32 cells, each built with
//! `e17_config(.., seed)` and driven by `ClosedLoop::run`.
//!
//! On a 2-edge line the engine and its buffers do almost nothing, so
//! the per-step fixed costs of the workload driver dominate: client
//! state machines, the admission queue, the conservation ledger. The
//! seed reaches only the backoff jitter.
//!
//! The traced pass replays each cell's realized injections open loop
//! on a fresh engine; closed-loop minus open-loop time is the driver's
//! own cost.

use std::sync::Arc;
use std::time::Instant;

use aqt_core::experiments::e17_config;
use aqt_graph::topologies;
use aqt_protocols::Fifo;
use aqt_sim::{Engine, EngineConfig, Time};
use aqt_workload::{ClosedLoop, GoodputMeter, RetryPolicy, Shed};

use super::{set_up, Check, Rep, Scale, Traced, Workload};
use crate::trace::Tracer;

const TIMEOUTS: [Time; 2] = [5, 12];
const CAPACITIES: [u32; 2] = [8, 16];
const RETRIES: [RetryPolicy; 2] = [
    RetryPolicy::Immediate,
    RetryPolicy::ExpBackoff { base: 4, cap: 32 },
];
const SHEDS: [Shed; 4] = [
    Shed::RejectNewest,
    Shed::RejectOldest,
    Shed::LifoFlip,
    Shed::DeadlineDrop,
];

/// One grid cell: timeout, queue capacity, retry policy, shed
/// discipline.
type Cell = (Time, u32, RetryPolicy, Shed);

/// One cell's goodput over the measurement window `[h/4, h]`.
#[derive(Debug, Clone, Copy)]
struct CellResult {
    cell: Cell,
    offered: u64,
    goodput: u64,
}

impl CellResult {
    fn ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.goodput as f64 / self.offered as f64
        }
    }
}

/// The `storm` workload.
pub struct Storm {
    seed: u64,
    horizon: Time,
}

impl Storm {
    /// The workload at `seed` and `scale`.
    pub fn new(seed: u64, scale: Scale) -> Storm {
        let horizon = match scale {
            Scale::Full => 200_000,
            Scale::Tiny => 2_000,
        };
        Storm { seed, horizon }
    }

    fn cells(&self) -> impl Iterator<Item = Cell> {
        TIMEOUTS.into_iter().flat_map(|timeout| {
            CAPACITIES.into_iter().flat_map(move |capacity| {
                RETRIES.into_iter().flat_map(move |retry| {
                    SHEDS
                        .into_iter()
                        .map(move |shed| (timeout, capacity, retry, shed))
                })
            })
        })
    }

    /// Every cell's closed loop, built before any is driven.
    fn build(&self) -> Vec<(Cell, ClosedLoop<Fifo>)> {
        self.cells()
            .map(|cell| {
                let (timeout, capacity, retry, shed) = cell;
                let cfg = e17_config(timeout, capacity, retry, shed, self.seed);
                (cell, ClosedLoop::on_line(cfg))
            })
            .collect()
    }

    /// Drive one built cell to the horizon and measure its window.
    fn drive(&self, cl: &mut ClosedLoop<Fifo>, cell: Cell) -> Result<CellResult, String> {
        cl.run(self.horizon / 4).map_err(|e| e.to_string())?;
        let base = cl.counters();
        cl.run(self.horizon).map_err(|e| e.to_string())?;
        let end = cl.counters();
        Ok(CellResult {
            cell,
            offered: GoodputMeter::offered_delta(&base, &end),
            goodput: GoodputMeter::goodput_delta(&base, &end),
        })
    }
}

/// E17's frontier: with immediate retry, timeout 5 and capacity 16,
/// FIFO shedding collapses while LIFO and deadline-drop recover.
fn frontier_check(cells: &[CellResult]) -> Check {
    let ratio = |shed: Shed| {
        cells
            .iter()
            .find(|c| c.cell == (5, 16, RetryPolicy::Immediate, shed))
            .map_or(f64::NAN, CellResult::ratio)
    };
    let (fifo, lifo, deadline) = (
        ratio(Shed::RejectNewest),
        ratio(Shed::LifoFlip),
        ratio(Shed::DeadlineDrop),
    );
    Check::new(
        "storm.collapse_frontier",
        fifo < 0.5 && lifo >= 0.9 && deadline >= 0.9,
        format!("goodput share: reject-newest {fifo:.3}, lifo-flip {lifo:.3}, deadline-drop {deadline:.3}"),
    )
}

impl Workload for Storm {
    fn rep(&mut self) -> Result<Rep, String> {
        let (built, setup_s) = set_up(|| Ok(self.build()))?;
        let (mut steps, mut results) = (0, Vec::with_capacity(built.len()));
        let t_run = Instant::now();
        for (cell, mut cl) in built {
            results.push(self.drive(&mut cl, cell)?);
            steps += cl.engine().time();
        }
        let run_s = t_run.elapsed().as_secs_f64();
        let checks = vec![frontier_check(&results)];
        Ok(Rep {
            wall_s: setup_s + run_s,
            setup_s,
            run_s,
            steps,
            ops: 1,
            failed: u64::from(checks.iter().any(|c| !c.ok)),
            checks,
        })
    }

    fn traced(&mut self, tracer: &mut Tracer) -> Result<Traced, String> {
        let mut results = Vec::new();
        let mut steps = 0;
        let mut replays_match = true;
        let built = tracer.span("workload.build", |_| self.build());
        for (cell, mut cl) in built {
            let result = tracer.span("workload.closed_loop", |_| self.drive(&mut cl, cell))?;
            results.push(result);
            steps += cl.engine().time();
            let open = tracer.span("sim.openloop", |_| {
                let graph = Arc::new(topologies::line(cl.config().path_len as usize));
                let mut open = Engine::new(
                    graph,
                    Fifo,
                    EngineConfig {
                        validate: cl.config().validate.clone(),
                        ..Default::default()
                    },
                );
                cl.realized()
                    .replay(&mut open, cl.engine().time())
                    .map(|()| open)
                    .map_err(|e| e.to_string())
            })?;
            replays_match &= open.metrics().absorbed() == cl.engine().metrics().absorbed()
                && open.metrics().injected() == cl.engine().metrics().injected();
        }
        let closed_ns = tracer.total_ns("workload.closed_loop") as f64;
        let open_ns = tracer.total_ns("sim.openloop") as f64;
        let (offered, goodput) = results
            .iter()
            .fold((0, 0), |(o, g), c| (o + c.offered, g + c.goodput));
        let checks = vec![
            frontier_check(&results),
            Check::new(
                "storm.open_loop_replay",
                replays_match,
                "realized schedules replay open loop to the same injected and absorbed counts",
            ),
        ];
        Ok(Traced {
            layers: vec![
                ("sim.openloop_ns_per_step", open_ns / steps as f64),
                (
                    "workload.self_ns_per_step",
                    (closed_ns - open_ns) / steps as f64,
                ),
                (
                    "workload.goodput_share",
                    goodput as f64 / offered.max(1) as f64,
                ),
            ],
            // The open-loop replays have no untraced counterpart.
            wall_s: (tracer.total_ns("workload.build") as f64 + closed_ns) / 1e9,
            notes: vec![format!(
                "{} cells, {steps} steps; goodput {goodput} of {offered} offered",
                results.len()
            )],
            checks,
        })
    }
}
