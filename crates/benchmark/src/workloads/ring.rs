//! `ring`: E18's shape, sequential — FIFO on `ring(65,536)`, every
//! edge seeded with one packet on its own 256-edge wrap-around route,
//! then 240 quiet steps.
//!
//! Every buffer is busy on every step, over about 64 MiB of interned
//! routes — a working set far beyond the caches — so buffer-layout and
//! route-storage changes show here, and so does set-up: building and
//! interning the routes costs twice the stepping. The shape is fixed,
//! so the seed does not change it.

use std::sync::Arc;
use std::time::Instant;

use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::Fifo;
use aqt_sim::{Engine, EngineConfig};

use super::{Check, Rep, Scale, Traced, Workload};
use crate::trace::Tracer;

/// The `ring` workload.
pub struct Ring {
    edges: usize,
    route_len: usize,
    steps: u64,
}

impl Ring {
    /// The workload at `scale`.
    pub fn new(scale: Scale) -> Ring {
        match scale {
            Scale::Full => Ring {
                edges: 65_536,
                route_len: 256,
                steps: 240,
            },
            Scale::Tiny => Ring {
                edges: 1_024,
                route_len: 64,
                steps: 48,
            },
        }
    }

    /// Build the ring and seed every edge's packet. With a tracer, the
    /// per-edge route construction and seeding are aggregated apart.
    fn setup(&self, mut tracer: Option<&mut Tracer>) -> Result<Engine<Fifo>, String> {
        let g: Arc<Graph> = Arc::new(topologies::ring(self.edges));
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        for e in 0..self.edges {
            let ids: Vec<EdgeId> = (0..self.route_len)
                .map(|k| EdgeId(((e + k) % self.edges) as u32))
                .collect();
            let seeded = match tracer.as_deref_mut() {
                None => Route::new(&g, ids)
                    .map_err(|err| err.to_string())
                    .and_then(|route| {
                        eng.seed_cohort(route, e as u32, 1)
                            .map_err(|err| err.to_string())
                    }),
                Some(t) => t
                    .time("graph.route_new", || Route::new(&g, ids))
                    .map_err(|err| err.to_string())
                    .and_then(|route| {
                        t.time("sim.seed", || eng.seed_cohort(route, e as u32, 1))
                            .map_err(|err| err.to_string())
                    }),
            };
            seeded?;
        }
        Ok(eng)
    }

    fn checks(&self, eng: &Engine<Fifo>) -> Vec<Check> {
        let crossings: u64 = eng.metrics().crossings_per_edge().iter().sum();
        let want = self.edges as u64 * self.steps;
        vec![
            Check::new(
                "ring.backlog",
                eng.backlog() == self.edges as u64,
                format!("{} packets in flight (want {})", eng.backlog(), self.edges),
            ),
            Check::new(
                "ring.crossings",
                crossings == want,
                format!("{crossings} crossings (want {want})"),
            ),
        ]
    }
}

impl Workload for Ring {
    fn rep(&mut self) -> Result<Rep, String> {
        let t0 = Instant::now();
        let mut eng = self.setup(None)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        eng.run_quiet(self.steps).map_err(|e| e.to_string())?;
        let run_s = t1.elapsed().as_secs_f64();
        let checks = self.checks(&eng);
        Ok(Rep {
            wall_s: setup_s + run_s,
            setup_s,
            run_s,
            steps: self.steps,
            ops: 1,
            failed: u64::from(checks.iter().any(|c| !c.ok)),
            checks,
        })
    }

    fn traced(&mut self, tracer: &mut Tracer) -> Result<Traced, String> {
        let mut eng = tracer.span("ring.setup", |t| self.setup(Some(t)))?;
        let bytes_per_packet = eng.packet_heap_bytes() as f64 / eng.backlog().max(1) as f64;
        tracer
            .span("sim.run_quiet", |_| eng.run_quiet(self.steps))
            .map_err(|e| e.to_string())?;
        let quiet_ns = tracer.total_ns("sim.run_quiet") as f64;
        Ok(Traced {
            layers: vec![
                (
                    "graph.route_new_s",
                    tracer.aggregate("graph.route_new").total_ns as f64 / 1e9,
                ),
                (
                    "sim.seed_s",
                    tracer.aggregate("sim.seed").total_ns as f64 / 1e9,
                ),
                ("sim.quiet_ns_per_step", quiet_ns / self.steps as f64),
                ("sim.bytes_per_packet", bytes_per_packet),
            ],
            wall_s: (tracer.total_ns("ring.setup") as f64 + quiet_ns) / 1e9,
            notes: vec![format!(
                "{} edges x {}-edge routes, {} steps",
                self.edges, self.route_len, self.steps
            )],
            checks: self.checks(&eng),
        })
    }
}
