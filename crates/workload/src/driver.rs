//! The closed-loop driver: client population ⇄ bounded admission queue
//! ⇄ engine, advanced in lockstep one engine step at a time.
//!
//! ## The loop, per step
//!
//! 1. **Dispatch** — unless the service is paused, pick one queued
//!    attempt per the [`Shed`] discipline and inject it into the
//!    engine (the network path is the unit-capacity server). The
//!    realized injection is appended to a [`Schedule`], so the whole
//!    closed-loop run can be replayed *open-loop* bit-identically.
//! 2. **Step the engine** — injections are validated against the
//!    configured [`AdversaryModelSpec`] exactly like open-loop
//!    adversaries, so E16-style comparisons stay apples-to-apples.
//! 3. **Replies** — drain the engine's absorption log; each reply
//!    completes the request its client is still waiting on
//!    (*goodput*) or is counted as thrown-away work (*wasted*).
//! 4. **Clients** — time out overdue attempts (retry or abandon per
//!    [`RetryPolicy`]), resume backoffs, issue new requests; admit new
//!    attempts to the bounded queue, shedding per policy.
//! 5. **Conserve** — check the request-conservation invariant
//!    (`issued = completed + abandoned + shed + in-flight`) and fail
//!    with a full [`ViolationReport`] + [`ReproBundle`] if the ledger
//!    leaks.
//! 6. **Meter** — roll the goodput window, emitting
//!    `workload_window` telemetry records.
//!
//! Everything is a pure function of [`ClosedLoopConfig::seed`]: client
//! order is fixed, the only randomness is the seeded retry jitter, and
//! the engine itself is deterministic.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::Fifo;
use aqt_sim::rate::AdversaryModelSpec;
use aqt_sim::sentinel::{InvariantKind, ReproBundle, Violation, ViolationReport};
use aqt_sim::snapshot;
use aqt_sim::telemetry::{Provenance, SharedSink, TelemetryConfig, WorkloadCounters};
use aqt_sim::ObserveConfig;
use aqt_sim::{Engine, EngineConfig, EngineError, Injection, Protocol, Schedule, Time};

use crate::meter::GoodputMeter;
use crate::policy::{RetryPolicy, ServicePolicy, Shed};
use crate::population::{ClientConfig, ClientPopulation, Issue};
use crate::rng::Rng64;

/// Errors surfaced by the closed-loop driver.
#[derive(Debug)]
pub enum WorkloadError {
    /// The engine rejected a step (rate violation, protocol bug, …).
    Engine(EngineError),
    /// The request-conservation invariant failed. Carries the full
    /// report: what leaked, when, and the reproduction bundle.
    Invariant(Box<ViolationReport>),
    /// A workload checkpoint could not be restored.
    Checkpoint(String),
    /// A workload checkpoint carried an unsupported schema version.
    SchemaMismatch {
        /// The version stamped on the checkpoint.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Engine(e) => write!(f, "{e}"),
            WorkloadError::Invariant(r) => write!(f, "{r}"),
            WorkloadError::Checkpoint(s) => write!(f, "workload checkpoint rejected: {s}"),
            WorkloadError::SchemaMismatch { found, expected } => write!(
                f,
                "workload checkpoint schema {found} but this build expects {expected}"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<EngineError> for WorkloadError {
    fn from(e: EngineError) -> Self {
        WorkloadError::Engine(e)
    }
}

impl From<WorkloadError> for aqt_sim::SimError {
    fn from(e: WorkloadError) -> Self {
        match e {
            WorkloadError::Engine(e) => aqt_sim::SimError::from(e),
            WorkloadError::Invariant(r) => aqt_sim::SimError::InvariantViolated(r),
            WorkloadError::Checkpoint(s) => aqt_sim::SimError::Checkpoint(s),
            WorkloadError::SchemaMismatch { found, expected } => {
                aqt_sim::SimError::SchemaMismatch { found, expected }
            }
        }
    }
}

/// Full closed-loop configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedLoopConfig {
    /// Seed for every workload decision (retry jitter).
    pub seed: u64,
    /// The client side: population size, think/timeout/retry.
    pub clients: ClientConfig,
    /// The server side: queue bound, shed behaviour, pause window.
    pub service: ServicePolicy,
    /// Length of the network path the requests traverse (the base
    /// round-trip is `path_len` steps).
    pub path_len: u32,
    /// Validate realized injections against this adversary model —
    /// the closed-loop source reports its injection sequence to the
    /// same trackers as the open-loop adversaries.
    pub validate: Option<AdversaryModelSpec>,
    /// Goodput-meter window (steps, `0` = no window telemetry).
    pub window: Time,
}

/// An attempt waiting in the bounded admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedAttempt {
    /// The attempt id (the engine cohort tag).
    pub attempt_id: u32,
    /// The issuing client.
    pub client: u32,
    /// When the client gives up on this attempt.
    pub deadline: Time,
}

/// The closed-loop driver. See the module docs for the step anatomy.
pub struct ClosedLoop<P: Protocol> {
    cfg: ClosedLoopConfig,
    engine: Engine<P>,
    route: Route,
    population: ClientPopulation,
    queue: VecDeque<QueuedAttempt>,
    /// Attempt id → issuing client, for every attempt alive in the
    /// queue or the network. `BTreeMap` for deterministic state
    /// comparison; its size is bounded by queue + in-network attempts.
    owner: BTreeMap<u32, u32>,
    rng: Rng64,
    counters: WorkloadCounters,
    meter: GoodputMeter,
    realized: Schedule,
    next_attempt: u32,
    sink: Option<SharedSink>,
    provenance: Provenance,
    scratch: Vec<Issue>,
}

impl ClosedLoop<Fifo> {
    /// The standard harness: a directed line of `cfg.path_len` edges
    /// with FIFO forwarding, every request routed over the full path.
    /// (The network discipline barely matters here — at one dispatch
    /// per step the path never queues — the *admission* discipline in
    /// [`ServicePolicy`] is what E17 sweeps.)
    pub fn on_line(cfg: ClosedLoopConfig) -> Self {
        let graph = Arc::new(topologies::line(cfg.path_len.max(1) as usize));
        let edges: Vec<EdgeId> = (0..graph.edge_count() as u32).map(EdgeId).collect();
        let route = Route::new(&graph, edges).expect("line edges form a route");
        ClosedLoop::new(cfg, graph, route, Fifo)
    }
}

impl<P: Protocol> ClosedLoop<P> {
    /// A driver over an arbitrary graph: every request traverses
    /// `route`.
    pub fn new(cfg: ClosedLoopConfig, graph: Arc<Graph>, route: Route, protocol: P) -> Self {
        let provenance = Provenance {
            seed: Some(cfg.seed),
            protocol: protocol.name().to_string(),
            model_fingerprint: cfg.validate.as_ref().map(AdversaryModelSpec::fingerprint),
            ..Provenance::default()
        };
        let mut engine = Engine::new(
            graph,
            protocol,
            EngineConfig {
                validate: cfg.validate.clone(),
                // Backlog samples share the goodput-window cadence, so
                // the two series land on the same time axis (0 = off).
                sample_every: cfg.window,
                ..EngineConfig::default()
            },
        );
        engine.record_absorptions(true);
        ClosedLoop {
            population: ClientPopulation::new(&cfg.clients),
            queue: VecDeque::new(),
            owner: BTreeMap::new(),
            rng: Rng64::new(cfg.seed),
            counters: WorkloadCounters::default(),
            meter: GoodputMeter::new(cfg.window),
            realized: Schedule::new(),
            next_attempt: 0,
            sink: None,
            provenance,
            scratch: Vec::new(),
            cfg,
            engine,
            route,
        }
    }

    /// Wire one shared sink to both halves of the closed loop: the
    /// engine's telemetry and queue observatory (backlog ticks,
    /// lifecycle spans) and the driver's `workload_window` goodput
    /// series. Both record streams then share the engine's step clock
    /// in a single JSONL stream, so the offline analyzer
    /// (`examples/observatory.rs`) can join queue state against
    /// goodput by `time`. When `telemetry` carries a default
    /// provenance it is stamped with the driver's (seed, protocol,
    /// model fingerprint), so every record of the joined stream
    /// carries the same run identity.
    pub fn attach_observability(
        &mut self,
        mut telemetry: TelemetryConfig,
        observe: ObserveConfig,
        sink: SharedSink,
    ) {
        if telemetry.provenance == Provenance::default() {
            telemetry.provenance = self.provenance.clone();
        }
        self.engine.attach_telemetry(telemetry);
        self.engine.attach_observatory(observe);
        self.engine.set_telemetry_sink(Box::new(sink.clone()));
        self.sink = Some(sink);
    }

    /// The configuration.
    pub fn config(&self) -> &ClosedLoopConfig {
        &self.cfg
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// Mutable access to the underlying engine, for attaching a
    /// sentinel, oracle, or telemetry before driving the loop.
    /// Mutating the engine's *simulation* state (stepping it directly,
    /// restoring snapshots) out from under the driver breaks the
    /// request ledger; attach-only use is safe.
    pub fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }

    /// The request ledger so far.
    pub fn counters(&self) -> WorkloadCounters {
        self.counters
    }

    /// The client population.
    pub fn population(&self) -> &ClientPopulation {
        &self.population
    }

    /// Current admission-queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The realized injection sequence: every dispatch this driver
    /// performed, as an open-loop [`Schedule`]. Replaying it on a
    /// fresh engine with the same configuration reproduces the
    /// network trajectory bit-identically — the closed loop's
    /// decisions, once made, are just an adversary schedule.
    pub fn realized(&self) -> &Schedule {
        &self.realized
    }

    /// Advance one engine step (see the module docs for the anatomy).
    pub fn step(&mut self) -> Result<(), WorkloadError> {
        let t = self.engine.time() + 1; // injection time of this step
        let mut injection: Option<Injection> = None;
        if !self.cfg.service.paused_at(t) {
            if let Some(q) = self.pick(t) {
                self.realized.inject_at(t, self.route.clone(), q.attempt_id);
                injection = Some(Injection::new(self.route.clone(), q.attempt_id));
            }
        }
        self.engine.step(injection.as_ref())?;
        let now = self.engine.time();

        for a in self.engine.take_absorptions() {
            if let Some(client) = self.owner.remove(&a.tag) {
                self.population
                    .reply(client, a.tag, now, &self.cfg.clients, &mut self.counters);
            }
        }

        let mut issues = std::mem::take(&mut self.scratch);
        self.population.tick(
            now,
            &self.cfg.clients,
            &mut self.rng,
            &mut self.counters,
            &mut issues,
        );
        for issue in issues.drain(..) {
            self.admit(issue, now);
        }
        self.scratch = issues;

        self.counters.requests_in_flight = self.population.in_flight();
        self.check_conservation(now)?;
        self.meter
            .roll(now, &self.counters, self.sink.as_ref(), &self.provenance);
        Ok(())
    }

    /// Run until the engine clock reaches `until`.
    pub fn run(&mut self, until: Time) -> Result<(), WorkloadError> {
        while self.engine.time() < until {
            self.step()?;
        }
        Ok(())
    }

    /// Pick the attempt to dispatch at injection time `t` per the shed
    /// discipline, discarding doomed work first under `DeadlineDrop`.
    fn pick(&mut self, t: Time) -> Option<QueuedAttempt> {
        match self.cfg.service.shed {
            Shed::LifoFlip => self.queue.pop_back(),
            Shed::DeadlineDrop => {
                // A dispatch at `t` over a `d`-edge path completes at
                // `t + d`; anything that can't make its deadline is
                // shed instead of served as guaranteed waste.
                let d = self.route.len() as Time;
                while let Some(front) = self.queue.front() {
                    if front.deadline < t + d {
                        let old = self.queue.pop_front().expect("front exists");
                        self.counters.attempts_shed += 1;
                        self.owner.remove(&old.attempt_id);
                    } else {
                        return self.queue.pop_front();
                    }
                }
                None
            }
            Shed::RejectNewest | Shed::RejectOldest => self.queue.pop_front(),
        }
    }

    /// Assign an attempt id to `issue` and run admission. On overflow
    /// the shed policy decides who loses; a synchronously rejected
    /// client reacts next step (retry or terminal shed).
    fn admit(&mut self, issue: Issue, now: Time) {
        let attempt_id = self.next_attempt;
        self.next_attempt += 1;
        self.counters.attempts_issued += 1;
        if issue.attempt_no > 1 {
            self.counters.attempts_retried += 1;
        }
        self.population
            .wait(&issue, attempt_id, now, &self.cfg.clients);
        let q = QueuedAttempt {
            attempt_id,
            client: issue.client,
            deadline: now + self.cfg.clients.timeout,
        };
        let capacity = self.cfg.service.capacity as usize;
        if self.queue.len() < capacity {
            self.owner.insert(attempt_id, issue.client);
            self.queue.push_back(q);
            return;
        }
        if self.cfg.service.shed == Shed::RejectOldest && capacity > 0 {
            let old = self.queue.pop_front().expect("full queue is nonempty");
            self.counters.attempts_shed += 1;
            self.owner.remove(&old.attempt_id);
            self.owner.insert(attempt_id, issue.client);
            self.queue.push_back(q);
            return;
        }
        self.counters.attempts_shed += 1;
        self.population.reject(
            issue.client,
            issue.request,
            issue.attempt_no,
            now,
            &self.cfg.clients,
            &mut self.rng,
            &mut self.counters,
        );
    }

    /// The request-conservation sentinel: every issued request is
    /// exactly one of completed, abandoned, shed, or in flight — and
    /// the incrementally maintained in-flight counter agrees with the
    /// one derived from the client states. Raised as
    /// [`InvariantKind::RequestConservation`] with a full
    /// [`ReproBundle`].
    fn check_conservation(&self, now: Time) -> Result<(), WorkloadError> {
        let derived = self.population.in_flight_derived();
        let c = &self.counters;
        let accounted = c.requests_completed + c.requests_abandoned + c.requests_shed + derived;
        if c.requests_issued == accounted && c.requests_in_flight == derived {
            return Ok(());
        }
        let violation = Violation {
            kind: InvariantKind::RequestConservation,
            time: now,
            detail: format!(
                "issued {} != completed {} + abandoned {} + shed {} + in-flight {} \
                 (ledger says {} in flight)",
                c.requests_issued,
                c.requests_completed,
                c.requests_abandoned,
                c.requests_shed,
                derived,
                c.requests_in_flight,
            ),
        };
        let bundle = ReproBundle {
            seed: Some(self.cfg.seed),
            step: now,
            snapshot: snapshot::capture(&self.engine),
            fault_plan: None,
            backlog: self.engine.metrics().series().to_vec(),
        };
        Err(WorkloadError::Invariant(Box::new(ViolationReport {
            violation,
            bundle,
        })))
    }

    /// Capture the complete closed-loop state (engine included).
    pub fn checkpoint(&self) -> crate::checkpoint::WorkloadCheckpoint {
        let (meter_window_start, meter_base) = self.meter.state();
        crate::checkpoint::WorkloadCheckpoint {
            version: crate::checkpoint::WORKLOAD_SCHEMA_VERSION,
            state: crate::checkpoint::WorkloadState {
                clients: self.population.states().to_vec(),
                next_request: self.population.next_request(),
                queue: self.queue.iter().copied().collect(),
                owner: self.owner.iter().map(|(&k, &v)| (k, v)).collect(),
                rng: self.rng.state(),
                counters: self.counters,
                next_attempt: self.next_attempt,
                meter_window_start,
                meter_base,
            },
            engine: aqt_sim::checkpoint::checkpoint(&self.engine),
        }
    }

    /// Restore a checkpoint taken from an identically configured
    /// driver. Fails closed: a version or shape mismatch leaves `self`
    /// untouched where detectable (the engine restore performs its own
    /// fail-closed gates before mutating).
    pub fn restore(
        &mut self,
        ck: &crate::checkpoint::WorkloadCheckpoint,
    ) -> Result<(), WorkloadError> {
        if ck.version != crate::checkpoint::WORKLOAD_SCHEMA_VERSION {
            return Err(WorkloadError::SchemaMismatch {
                found: ck.version,
                expected: crate::checkpoint::WORKLOAD_SCHEMA_VERSION,
            });
        }
        if ck.state.clients.len() as u32 != self.cfg.clients.num_clients {
            return Err(WorkloadError::Checkpoint(format!(
                "checkpoint has {} clients but the config says {}",
                ck.state.clients.len(),
                self.cfg.clients.num_clients
            )));
        }
        aqt_sim::checkpoint::restore(&mut self.engine, &ck.engine).map_err(|e| match e {
            aqt_sim::SimError::SchemaMismatch { found, expected } => {
                WorkloadError::SchemaMismatch { found, expected }
            }
            other => WorkloadError::Checkpoint(other.to_string()),
        })?;
        self.population =
            ClientPopulation::restore(ck.state.clients.clone(), ck.state.next_request);
        self.queue = ck.state.queue.iter().copied().collect();
        self.owner = ck.state.owner.iter().copied().collect();
        self.rng = Rng64::from_state(ck.state.rng);
        self.counters = ck.state.counters;
        self.next_attempt = ck.state.next_attempt;
        self.meter
            .restore(ck.state.meter_window_start, ck.state.meter_base);
        // The realized log restarts here: it records dispatches made
        // by *this* driver from now on, one replayable segment per
        // (re)start.
        self.realized = Schedule::new();
        Ok(())
    }

    /// The current workload state (the checkpointable part, engine
    /// excluded) — what the round-trip tests compare bit-for-bit.
    pub fn state(&self) -> crate::checkpoint::WorkloadState {
        self.checkpoint().state
    }
}

/// A convenient healthy baseline: FIFO service, exponential backoff,
/// comfortable timeout. Used by tests and as the E17 template.
pub fn baseline_config(seed: u64) -> ClosedLoopConfig {
    ClosedLoopConfig {
        seed,
        clients: ClientConfig {
            num_clients: 6,
            think_time: 8,
            timeout: 6,
            max_attempts: 4,
            retry: RetryPolicy::ExpBackoff { base: 2, cap: 16 },
        },
        service: ServicePolicy::fifo(8),
        path_len: 2,
        validate: None,
        window: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_loop_completes_requests_with_no_waste() {
        let mut cl = ClosedLoop::on_line(baseline_config(1));
        cl.run(200).unwrap();
        let c = cl.counters();
        assert!(c.requests_issued > 50, "issued {}", c.requests_issued);
        assert_eq!(c.requests_abandoned, 0);
        assert_eq!(c.requests_shed, 0);
        assert_eq!(c.completions_wasted, 0);
        assert_eq!(c.attempts_retried, 0);
        assert_eq!(
            c.requests_completed + c.requests_in_flight,
            c.requests_issued
        );
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let mut a = ClosedLoop::on_line(baseline_config(7));
        let mut b = ClosedLoop::on_line(baseline_config(7));
        a.run(300).unwrap();
        b.run(300).unwrap();
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.state(), b.state());
        assert_eq!(a.realized().content_hash(), b.realized().content_hash());
    }

    #[test]
    fn realized_schedule_replays_open_loop() {
        let cfg = baseline_config(3);
        let mut cl = ClosedLoop::on_line(cfg.clone());
        cl.run(250).unwrap();
        let absorbed = cl.engine().metrics().absorbed();
        let until = cl.engine().time();

        // Replay the realized injections on a fresh open-loop engine:
        // identical network trajectory, hence identical absorptions.
        let graph = Arc::new(topologies::line(cfg.path_len as usize));
        let mut open = Engine::new(graph, Fifo, EngineConfig::default());
        cl.realized().replay(&mut open, until).unwrap();
        assert_eq!(open.metrics().absorbed(), absorbed);
        assert_eq!(open.metrics().injected(), cl.engine().metrics().injected());
    }

    #[test]
    fn pause_triggers_timeouts_and_retries() {
        let mut cfg = baseline_config(5);
        cfg.clients.retry = RetryPolicy::Immediate;
        cfg.service = cfg.service.with_pause(20, 40);
        let mut cl = ClosedLoop::on_line(cfg);
        cl.run(120).unwrap();
        let c = cl.counters();
        assert!(c.attempts_retried > 0, "pause should force retries");
        assert!(
            c.requests_abandoned + c.requests_completed > 0,
            "loop still resolves requests"
        );
    }

    #[test]
    fn validated_dispatch_passes_a_loose_model() {
        let mut cfg = baseline_config(9);
        // One dispatch per step over a 2-edge path is within rate 1.
        cfg.validate = Some(AdversaryModelSpec::rate(aqt_sim::Ratio::new(1, 1)));
        let mut cl = ClosedLoop::on_line(cfg);
        cl.run(150).unwrap();
        assert!(cl.counters().requests_completed > 0);
    }

    #[test]
    fn reject_oldest_sheds_silently_and_conserves() {
        let mut cfg = baseline_config(11);
        cfg.clients.retry = RetryPolicy::Immediate;
        cfg.clients.think_time = 1;
        cfg.service.capacity = 2;
        cfg.service.shed = Shed::RejectOldest;
        cfg.service = cfg.service.with_pause(10, 30);
        let mut cl = ClosedLoop::on_line(cfg);
        cl.run(100).unwrap();
        assert!(cl.counters().attempts_shed > 0);
    }

    #[test]
    fn capacity_zero_sheds_every_attempt() {
        let mut cfg = baseline_config(13);
        cfg.clients.max_attempts = 1;
        cfg.clients.retry = RetryPolicy::None;
        cfg.service.capacity = 0;
        let mut cl = ClosedLoop::on_line(cfg);
        cl.run(50).unwrap();
        let c = cl.counters();
        assert_eq!(c.requests_completed, 0);
        assert!(c.requests_shed > 0);
        assert_eq!(c.attempts_shed, c.attempts_issued);
    }
}
