//! The discrete-time store-and-forward engine (Section 2 of the paper).
//!
//! Semantics, implemented verbatim:
//!
//! * The system starts at time 0. Step `t ≥ 1` consists of:
//!   * **substep 1** — from every nonempty buffer, the protocol selects
//!     one packet, which is sent over the edge (greediness is enforced:
//!     a protocol chooses *which* packet, never *whether*);
//!   * **substep 2** — sent packets are absorbed at their destination or
//!     appended to the next buffer on their route; then the adversary's
//!     injections for step `t` are appended to the buffers of the first
//!     edges of their routes.
//! * Packets arriving at the same buffer in the same substep are
//!   enqueued deterministically: transit arrivals first (in ascending
//!   order of the edge they crossed), then injections (in submission
//!   order). The queue is therefore always in arrival order, with a
//!   fixed tie-break — FIFO is "select index 0".
//!
//! Beyond the bare model the engine supports:
//!
//! * **Initial configurations** ([`Engine::seed`]) — the
//!   `S`-initial-configurations of Observation 4.4 and the initial
//!   state of Theorem 3.17. Seeds bypass the adversary validators
//!   (that is exactly the allowance Observation 4.4 formalizes).
//! * **Route extension** ([`Engine::extend_routes_in`]) — the on-line
//!   rerouting of Lemma 3.3, restricted (as in the paper) to suffix
//!   extension of the remaining route. With
//!   [`EngineConfig::validate_reroutes`] the engine checks the lemma's
//!   preconditions: the policy is historic, the rerouted packets share
//!   a common route edge, and the new edges are *new* in the sense of
//!   Definition 3.2.
//! * **Adversary validation** — with [`EngineConfig::validate`], every
//!   injection and every route extension is fed to an exact
//!   [`AdversaryModel`]: the composition of any number of constraint
//!   members (`Rate`, `Window`, `BurstLocal`, `BufferBound` — see
//!   [`crate::rate`]). Extensions are recorded at the *original
//!   injection times* of the extended packets, so what is validated is
//!   precisely the effective adversary `A'` of Lemma 3.3 — the one
//!   that injects the final routes.

use std::collections::VecDeque;
use std::sync::Arc;

use aqt_graph::{EdgeId, Graph, Route, RouteError};

use crate::buffer::BufferStore;
use crate::fault::{FaultEvent, FaultPlan};
use crate::metrics::Metrics;
use crate::oracle::Oracle;
use crate::packet::{Packet, PacketId, Time};
use crate::protocol::{Discipline, Protocol};
use crate::rate::{AdversaryModel, AdversaryModelSpec, Constraint, RateViolation};
use crate::routes::{RouteId, RouteTable};
use crate::sentinel::{InvariantKind, ViolationReport};
use crate::telemetry::SpanKind;

// The probes (sentinel, telemetry, observatory) and their one schedule
// live in `probes.rs`, a child of this module so their `impl Engine`
// blocks read the engine's state directly.
#[path = "probes.rs"]
mod probes;
use probes::{Probes, StepTally};

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Validate every injection against this composed adversary model
    /// (see [`crate::rate::AdversaryModelSpec`]). The classic cases:
    /// `AdversaryModelSpec::rate(r)` is Section 3's rate-`r` adversary,
    /// `AdversaryModelSpec::window(w, r)` is Definition 2.1's `(w, r)`
    /// adversary. Extensions are validated as performed by the
    /// effective adversary `A'`.
    pub validate: Option<AdversaryModelSpec>,
    /// Check the preconditions of Lemma 3.3 on every route extension.
    /// Requires a `Rate` member in `validate` (the definition of a
    /// "new" edge depends on the rate through `⌈1/r⌉`).
    pub validate_reroutes: bool,
    /// Sample the backlog series every this many steps (0 = never).
    pub sample_every: Time,
}

/// Errors surfaced by the engine. After an error the engine state is
/// unspecified; experiments treat any error as fatal.
#[derive(Debug)]
pub enum EngineError {
    /// An adversary constraint was violated.
    Rate(RateViolation),
    /// A route failed validation.
    Route(RouteError),
    /// A route extension violated a precondition of Lemma 3.3.
    Reroute(String),
    /// API misuse (e.g. seeding after the simulation started).
    Usage(String),
    /// A protocol implementation broke its contract (e.g. selected an
    /// out-of-range packet index).
    Protocol(String),
    /// An engine invariant failed to hold — a bug in the engine
    /// itself, reported instead of panicking so a sweep harness can
    /// quarantine the run.
    Internal(String),
    /// A sentinel invariant at [`crate::Severity::Halt`] was
    /// violated. Carries the full report: what failed, when, and the
    /// minimal reproduction bundle (seed, step, snapshot, fault plan).
    /// Mapped to [`crate::SimError::InvariantViolated`] at the
    /// `SimError` boundary.
    Invariant(Box<ViolationReport>),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Rate(v) => write!(f, "{v}"),
            EngineError::Route(e) => write!(f, "invalid route: {e}"),
            EngineError::Reroute(s) => write!(f, "illegal reroute: {s}"),
            EngineError::Usage(s) => write!(f, "engine misuse: {s}"),
            EngineError::Protocol(s) => write!(f, "protocol contract violation: {s}"),
            EngineError::Internal(s) => write!(f, "engine invariant violation: {s}"),
            EngineError::Invariant(r) => write!(f, "{r}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RateViolation> for EngineError {
    fn from(v: RateViolation) -> Self {
        EngineError::Rate(v)
    }
}

impl From<RouteError> for EngineError {
    fn from(e: RouteError) -> Self {
        EngineError::Route(e)
    }
}

/// An injection request: route plus cohort tag, for `count` identical
/// packets.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// The packets' (shared) route.
    pub route: Route,
    /// Cohort tag (free-form, for experiment bookkeeping).
    pub tag: u32,
    /// How many identical packets to inject. The route is interned and
    /// validated per packet, but the buffer insertion is one
    /// range-extend for the whole cohort.
    pub count: u32,
}

/// One absorption event, recorded when [`Engine::record_absorptions`]
/// is on: the packet's cohort tag plus its injection and absorption
/// times. This is the reply channel for closed-loop layers (the
/// `aqt-workload` crate tags each request attempt and matches replies
/// by tag); the engine itself never reads the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Absorption {
    /// The absorbed packet's cohort tag.
    pub tag: u32,
    /// When the packet was injected.
    pub injected_at: Time,
    /// When the packet reached its destination (was absorbed).
    pub absorbed_at: Time,
}

impl Injection {
    /// A single packet.
    pub fn new(route: Route, tag: u32) -> Self {
        Injection {
            route,
            tag,
            count: 1,
        }
    }

    /// A cohort of `count` identical packets (the burst shape of the
    /// Lemma 3.6/3.15/3.16 sub-adversaries). Equivalent to `count`
    /// consecutive [`Injection::new`] requests — packet ids are
    /// assigned consecutively and the trajectory is identical — but the
    /// enqueue is a single reserve + range-extend.
    pub fn cohort(route: Route, tag: u32, count: u32) -> Self {
        Injection { route, tag, count }
    }
}

/// Slots in the injection-path intern memo — sized above the ~dozen
/// concurrent rate-`r` streams the instability construction's busiest
/// phase rotates through per step. Round-robin replacement degenerates
/// to all-miss when the working set exceeds the slot count (cyclic
/// access), so the size errs generous; a scan of 16 compact entries is
/// still far cheaper than one hash-and-probe of the route table.
const INJECT_MEMO_SLOTS: usize = 16;

/// One entry of the injection-path intern memo: a resolved route keyed
/// by the address and length of its shared slice. The pinned `Route`
/// clone keeps that allocation alive, so an equal (address, length)
/// key can only mean the same immutable contents — address reuse after
/// a free is impossible while the pin exists. The address is stored as
/// `usize` (never dereferenced), so the memo does not affect `Send`.
#[derive(Clone)]
struct InjectMemoEntry {
    /// `route.edges().as_ptr()` at memoization time.
    addr: usize,
    /// `route.edges().len()` at memoization time.
    len: usize,
    /// What [`Engine::intern_for_admit`] returned for this route.
    resolved: (RouteId, u32, EdgeId),
    /// Keeps the keyed allocation alive (see above).
    _pin: Route,
}

/// The simulator.
pub struct Engine<P: Protocol> {
    graph: Arc<Graph>,
    protocol: P,
    /// The protocol's declared fast path, sampled once at construction
    /// (the [`Discipline`] contract requires it to be constant).
    discipline: Discipline,
    cfg: EngineConfig,
    time: Time,
    next_id: u64,
    buffers: BufferStore,
    /// Interned routes: every route a live or past packet has carried.
    /// Append-only — packets reference entries by [`RouteId`].
    routes: RouteTable,
    /// Small intern memo for the injection path: adversaries replay the
    /// same few routes millions of times (the instability construction
    /// rotates a handful of concurrent streams per step), so the common
    /// case is two register compares against a recently interned
    /// entry's pinned-slice key instead of a hash and a table probe
    /// (see [`InjectMemoEntry`] for why the key is sound).
    inject_memo: [Option<InjectMemoEntry>; INJECT_MEMO_SLOTS],
    /// Round-robin replacement cursor for `inject_memo`.
    inject_memo_cursor: usize,
    metrics: Metrics,
    /// Composed adversary model enforcing [`EngineConfig::validate`].
    model: Option<AdversaryModel>,
    /// Latest injection time of any packet whose (effective) route uses
    /// each edge — drives the "new edge" check of Definition 3.2.
    last_route_use: Vec<Option<Time>>,
    /// Workhorse buffer reused across steps: packets on the wire
    /// between substep 1 and the fault stage.
    in_transit: Vec<Packet>,
    /// Workhorse buffer reused across steps: packets that survived the
    /// wire-fault stage, awaiting receive.
    delivered: Vec<Packet>,
    /// Installed fault schedule, if any.
    faults: Option<FaultPlan>,
    /// Every fault that took effect, in time order.
    fault_log: Vec<FaultEvent>,
    /// Attached lockstep differential oracle, if any.
    oracle: Option<Oracle>,
    /// Sentinel, telemetry and observatory behind one next-due gate
    /// (see `probes.rs`). With nothing attached the step loop pays one
    /// compare against that gate plus the telemetry and span flag reads.
    probes: Probes,
    /// Record an [`Absorption`] per absorbed packet (off by default —
    /// the hot path then pays one boolean read per absorption and the
    /// log never allocates).
    record_absorptions: bool,
    /// The absorption log, drained by [`Engine::take_absorptions`].
    absorptions: Vec<Absorption>,
}

impl<P: Protocol> Engine<P> {
    /// Create an engine over `graph` driven by `protocol`.
    pub fn new(graph: Arc<Graph>, protocol: P, cfg: EngineConfig) -> Self {
        let m = graph.edge_count();
        let model = cfg.validate.as_ref().map(|spec| spec.build(m));
        let metrics = Metrics::new(m);
        let discipline = protocol.discipline();
        let mut engine = Engine {
            graph,
            protocol,
            discipline,
            cfg,
            time: 0,
            next_id: 0,
            buffers: BufferStore::new(m),
            routes: RouteTable::new(),
            inject_memo: Default::default(),
            inject_memo_cursor: 0,
            metrics,
            model,
            last_route_use: vec![None; m],
            in_transit: Vec::new(),
            delivered: Vec::new(),
            faults: None,
            fault_log: Vec::new(),
            oracle: None,
            probes: Probes::detached(),
            record_absorptions: false,
            absorptions: Vec::new(),
        };
        engine.reschedule();
        engine
    }

    /// Attach a lockstep differential oracle diffing the naive
    /// reference model against this engine every `every` steps
    /// (clamped to ≥ 1; `every == 1` is full lockstep). `protocol`
    /// must be a separate instance configured identically to the
    /// engine's — for stateful protocols, identically seeded. The
    /// model is synchronized to the engine's current state, so
    /// attaching mid-run is legal.
    ///
    /// Divergences are raised as [`InvariantKind::OracleDivergence`]
    /// under the attached sentinel's severity policy
    /// ([`crate::Severity::Halt`] when no sentinel is attached).
    pub fn attach_oracle(&mut self, protocol: Box<dyn Protocol>, every: u64) {
        let mut oracle = Oracle::new(protocol, every, self.graph.edge_count());
        oracle.model.resync(self);
        self.oracle = Some(oracle);
    }

    /// The attached differential oracle, if any.
    pub fn oracle(&self) -> Option<&Oracle> {
        self.oracle.as_ref()
    }

    /// Change the backlog-series sampling cadence
    /// ([`EngineConfig::sample_every`]) after construction. `0`
    /// disables sampling. Useful when the engine is built by a
    /// driver with a fixed config (e.g. the closed-loop workload)
    /// but the caller wants [`crate::sentinel::ReproBundle`]s to
    /// carry a backlog series.
    pub fn set_sample_every(&mut self, every: Time) {
        self.cfg.sample_every = every;
        self.reschedule();
    }

    /// Install a fault schedule. Only permitted before the first step,
    /// so a faulted run is replayable end to end from (plan, schedule).
    pub fn install_faults(&mut self, plan: FaultPlan) -> Result<(), EngineError> {
        if self.time != 0 {
            return Err(EngineError::Usage(
                "install_faults() is only allowed before the first step".into(),
            ));
        }
        plan.validate()
            .map_err(|e| EngineError::Usage(e.to_string()))?;
        for o in plan.outages() {
            if o.edge.index() >= self.graph.edge_count() {
                return Err(EngineError::Usage(format!(
                    "fault plan references edge {:?} but the graph has {} edges",
                    o.edge,
                    self.graph.edge_count()
                )));
            }
        }
        self.faults = Some(plan);
        Ok(())
    }

    /// The installed fault schedule, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Every fault that took effect so far, in time order.
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.fault_log
    }

    /// Current time (number of completed steps).
    #[inline]
    pub fn time(&self) -> Time {
        self.time
    }

    /// The network.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Collected metrics.
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Turn the absorption log on or off. While on, every absorbed
    /// packet appends an [`Absorption`] to a log drained by
    /// [`Engine::take_absorptions`]. Off by default; closed-loop
    /// drivers (`aqt-workload`) turn it on to observe replies.
    pub fn record_absorptions(&mut self, on: bool) {
        self.record_absorptions = on;
    }

    /// Drain the absorption log accumulated since the last drain (in
    /// absorption order; ties broken by receive order, which is
    /// deterministic). Empty unless [`Engine::record_absorptions`] is
    /// on.
    pub fn take_absorptions(&mut self) -> Vec<Absorption> {
        std::mem::take(&mut self.absorptions)
    }

    /// Zero the peak metrics (`max_queue_per_edge`, `max_buffer_wait`,
    /// `max_latency`), keeping the conservation totals. The recovery
    /// experiments call this at the end of a fault window so the
    /// post-fault peaks are measured in isolation.
    pub fn reset_peak_metrics(&mut self) {
        self.metrics.reset_peaks();
    }

    /// The driving protocol.
    #[inline]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Current length of the buffer at the tail of `edge`.
    #[inline]
    pub fn queue_len(&self, edge: EdgeId) -> usize {
        self.buffers.len(edge.index())
    }

    /// Iterate the buffer at the tail of `edge` in queue (arrival)
    /// order, front (oldest) first.
    #[inline]
    pub fn queue_iter(&self, edge: EdgeId) -> impl Iterator<Item = &Packet> {
        self.buffers.iter(edge.index())
    }

    /// The engine's route interner. Resolve a packet's route with
    /// `engine.routes().get(p.route_id())`.
    #[inline]
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Heap bytes currently committed to packet storage: buffer
    /// capacity plus the interned route storage. The numerator of the
    /// benchmark's `sim.bytes_per_packet` metric (`crates/benchmark`).
    pub fn packet_heap_bytes(&self) -> u64 {
        self.buffers.heap_bytes() + self.routes.heap_bytes()
    }

    /// Total packets currently in the network.
    pub fn backlog(&self) -> u64 {
        self.metrics.backlog()
    }

    /// The next packet id the engine would assign (for snapshots).
    pub fn next_packet_id(&self) -> u64 {
        self.next_id
    }

    /// Does this engine run an adversary model? (Snapshot restore is
    /// incompatible with one — its member histories cannot be rewound.)
    pub fn has_validators(&self) -> bool {
        self.model.is_some()
    }

    /// Replace the network state wholesale (snapshot restore). The
    /// caller (`crate::snapshot::restore`) has validated preconditions.
    #[allow(clippy::too_many_arguments)] // crate-internal; mirrors the Snapshot fields
    pub(crate) fn restore_state(
        &mut self,
        time: Time,
        next_id: u64,
        injected: u64,
        absorbed: u64,
        dropped: u64,
        duplicated: u64,
        buffers: impl Iterator<Item = VecDeque<Packet>>,
    ) {
        self.time = time;
        self.next_id = next_id;
        self.metrics.injected = injected;
        self.metrics.absorbed = absorbed;
        self.metrics.dropped = dropped;
        self.metrics.duplicated = duplicated;
        self.buffers.replace_all(buffers);
        // An attached oracle cannot replay across a restore; put the
        // model exactly where the engine now is.
        if let Some(mut oracle) = self.oracle.take() {
            oracle.model.resync(self);
            self.oracle = Some(oracle);
        }
        self.restart_probes();
    }

    /// Checkpoint support (crate-only): the full internal state beyond
    /// what [`crate::snapshot::Snapshot`] captures — adversary-model
    /// histories, complete metrics, reroute bookkeeping, fault log.
    #[allow(clippy::type_complexity)]
    pub(crate) fn full_state(
        &self,
    ) -> (
        Option<&AdversaryModel>,
        &[Option<Time>],
        &Metrics,
        &[FaultEvent],
    ) {
        (
            self.model.as_ref(),
            &self.last_route_use,
            &self.metrics,
            &self.fault_log,
        )
    }

    /// Checkpoint support (crate-only): restore the state captured by
    /// [`Engine::full_state`]. The caller (`crate::checkpoint`) has
    /// validated that the checkpoint matches this engine's graph and
    /// that the model specs agree, and calls [`Engine::restore_state`]
    /// next, which re-anchors the probes at the restored state.
    pub(crate) fn restore_full_state(
        &mut self,
        model: Option<AdversaryModel>,
        last_route_use: Vec<Option<Time>>,
        metrics: Metrics,
        fault_log: Vec<FaultEvent>,
    ) {
        self.model = model;
        self.last_route_use = last_route_use;
        self.metrics = metrics;
        self.fault_log = fault_log;
    }

    /// Iterate over every live packet (buffer order within each edge,
    /// edges ascending).
    pub fn packets(&self) -> impl Iterator<Item = &Packet> {
        self.buffers.packets()
    }

    /// Place a packet in the network as part of the initial
    /// configuration (time 0). Bypasses the adversary validators — this
    /// is the `S`-initial-configuration allowance of Observation 4.4.
    ///
    /// Only permitted before the first step.
    pub fn seed(&mut self, route: Route, tag: u32) -> Result<PacketId, EngineError> {
        if self.time != 0 {
            return Err(EngineError::Usage(
                "seed() is only allowed before the first step".into(),
            ));
        }
        for &e in route.edges() {
            self.touch_edge_use(e, 0);
        }
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.model.mirror_seed(&route, tag, 1);
        }
        let (rid, len, first) = self.intern_for_admit(route.edges());
        Ok(self.admit(rid, len, first, 0, tag))
    }

    /// Place `n` identical packets in the initial configuration — the
    /// `s`-packet seed sets of Lemma 3.6 and Theorem 3.17 — with one
    /// route intern and one buffer range-extend. Ids are assigned
    /// consecutively, so the trajectory is identical to `n` calls of
    /// [`Engine::seed`]. Returns the id of the first packet.
    pub fn seed_cohort(&mut self, route: Route, tag: u32, n: u64) -> Result<PacketId, EngineError> {
        if self.time != 0 {
            return Err(EngineError::Usage(
                "seed_cohort() is only allowed before the first step".into(),
            ));
        }
        for &e in route.edges() {
            self.touch_edge_use(e, 0);
        }
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.model.mirror_seed(&route, tag, n);
        }
        let (rid, len, first) = self.intern_for_admit(route.edges());
        Ok(self.admit_cohort(rid, len, first, 0, tag, n))
    }

    fn touch_edge_use(&mut self, e: EdgeId, t: Time) {
        let slot = &mut self.last_route_use[e.index()];
        match slot {
            Some(prev) if *prev >= t => {}
            _ => *slot = Some(t),
        }
    }

    /// Internal: intern a route and return what [`Engine::admit`]
    /// needs (id, length, first edge).
    fn intern_for_admit(&mut self, edges: &[EdgeId]) -> (RouteId, u32, EdgeId) {
        let rid = self.routes.intern(edges);
        (rid, edges.len() as u32, edges[0])
    }

    /// Internal: [`Engine::intern_for_admit`] behind the small memo.
    /// Sound because memoized keys pin their allocation (equal key ⇒
    /// same immutable contents) and the table is append-only, so a
    /// memoized id stays valid forever. A miss — including a `Route`
    /// rebuilt from the same edges in a fresh allocation — falls
    /// through to a real intern, which dedups by content.
    fn intern_memoized(&mut self, route: &Route) -> (RouteId, u32, EdgeId) {
        let edges = route.edges();
        let (addr, len) = (edges.as_ptr() as usize, edges.len());
        for hit in self.inject_memo.iter().flatten() {
            if hit.addr == addr && hit.len == len {
                if self.probes.telemetry.counters_on {
                    self.probes.telemetry.counters.memo_hits += 1;
                }
                return hit.resolved;
            }
        }
        if self.probes.telemetry.counters_on {
            self.probes.telemetry.counters.memo_misses += 1;
        }
        let resolved = self.intern_for_admit(edges);
        self.inject_memo[self.inject_memo_cursor] = Some(InjectMemoEntry {
            addr,
            len,
            resolved,
            _pin: route.clone(),
        });
        self.inject_memo_cursor = (self.inject_memo_cursor + 1) % INJECT_MEMO_SLOTS;
        resolved
    }

    /// Checkpoint/snapshot support (crate-only): intern a restored
    /// route. Append-only, so ids already handed out stay valid.
    pub(crate) fn intern_route(&mut self, edges: &[EdgeId]) -> RouteId {
        self.routes.intern(edges)
    }

    /// Internal: create the packet and enqueue it at its first edge.
    fn admit(
        &mut self,
        route: RouteId,
        route_len: u32,
        first: EdgeId,
        t: Time,
        tag: u32,
    ) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let p = Packet {
            id,
            injected_at: t,
            arrived_at: t,
            tag,
            route,
            hop: 0,
            route_len,
        };
        let len = self.buffers.push_back(first.index(), p) as u64;
        self.metrics.injected += 1;
        self.metrics.on_queue_len(first, len);
        self.probes
            .observe
            .span(t, SpanKind::Inject, id.0, first, 0, 0);
        id
    }

    /// Internal: create `n` identical packets (consecutive ids) and
    /// enqueue them at their first edge in one range-extend.
    fn admit_cohort(
        &mut self,
        route: RouteId,
        route_len: u32,
        first: EdgeId,
        t: Time,
        tag: u32,
        n: u64,
    ) -> PacketId {
        let first_id = PacketId(self.next_id);
        let base = self.next_id;
        self.next_id += n;
        let template = Packet {
            id: first_id,
            injected_at: t,
            arrived_at: t,
            tag,
            route,
            hop: 0,
            route_len,
        };
        let len = self.buffers.extend_back(
            first.index(),
            (0..n as usize).map(|k| Packet {
                id: PacketId(base + k as u64),
                ..template
            }),
        ) as u64;
        self.metrics.injected += n;
        self.metrics.on_queue_len(first, len);
        if self.probes.telemetry.counters_on {
            self.probes.telemetry.counters.cohorts_admitted += 1;
        }
        if self.probes.observe.spans_on {
            // The sampled ids are the multiples of `mask + 1`, so the
            // cohort's sampled members are stepped directly instead of
            // testing all n ids.
            let stride = self.probes.observe.span_mask + 1;
            let mut id = base.next_multiple_of(stride);
            while id < base + n {
                self.probes
                    .observe
                    .span(t, SpanKind::Inject, id, first, 0, 0);
                id += stride;
            }
        }
        first_id
    }

    /// Execute one step with the given injections (occurring in
    /// substep 2 of this step).
    ///
    /// The step is a pipeline of substages, in model order: send
    /// (substep 1), wire faults, receive (substep 2a), inject
    /// (substep 2b), burst faults, oracle, then the probes. The
    /// oracle stage steps the naive [`crate::ReferenceModel`] alongside
    /// and diffs it against the engine, which is how the equivalence
    /// tests pin this composition. The oracle is a no-op unless
    /// attached; the probes (backlog sample, sentinel, observatory
    /// tick, telemetry window) run only when the one next-due gate is
    /// reached (see `probes.rs`).
    pub fn step<I>(&mut self, injections: I) -> Result<(), EngineError>
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<Injection>,
    {
        let t = self.time + 1;
        self.time = t;
        let faults_active = self.faults.as_ref().is_some_and(|f| f.active_at(t));
        // The telemetry level, folded to booleans read once per step.
        // Timing is *sampled*: a full set of per-substage clock reads
        // would dominate a fast step, so the probe schedule arms the
        // `timing_this_step` flag only for every 512th step
        // (`TIMING_SAMPLE_EVERY`), and the substage methods read that
        // flag.
        let tel_counters = self.probes.telemetry.counters_on;
        let tel_timing = self.probes.telemetry.timing_this_step;
        let step_t0 = tel_timing.then(std::time::Instant::now);

        debug_assert!(self.in_transit.is_empty());
        let absorbed0 = self.metrics.absorbed;
        let injected0 = self.metrics.injected;
        // The sampled stage clocks share boundary timestamps —
        // compact|send and send|receive are each one `Instant`, not
        // two — so a sampled step costs 6 clock reads end to end.
        let deactivated = self.buffers.begin_step();
        if tel_counters && deactivated > 0 {
            self.probes.telemetry.counters.buffers_compacted += deactivated as u64;
        }
        let send_t0 = tel_timing.then(std::time::Instant::now);
        self.substep_send(t, faults_active)?;
        let sent = self.in_transit.len() as u64;
        let wire_t0 = tel_timing.then(std::time::Instant::now);
        self.substep_wire_faults(t, faults_active);
        let delivered = self.delivered.len() as u64;
        self.substep_receive(t);
        let recv_t1 = tel_timing.then(std::time::Instant::now);
        if let (Some(a), Some(b), Some(c), Some(d)) = (step_t0, send_t0, wire_t0, recv_t1) {
            // compact = step start → send start; send = the send
            // loop alone; receive includes the wire stage (a swap
            // on fault-free steps).
            let timings = &mut self.probes.telemetry.timings;
            timings.compact.record_duration(b.duration_since(a));
            timings.send.record_duration(c.duration_since(b));
            timings.receive.record_duration(d.duration_since(c));
        }
        let inject_t0 = tel_timing.then(std::time::Instant::now);
        if self.oracle.is_some() {
            // The oracle replays this step's injections; buffer them.
            let buffered: Vec<Injection> = injections
                .into_iter()
                .map(|i| std::borrow::Borrow::borrow(&i).clone())
                .collect();
            self.substep_inject(t, buffered.iter())?;
            self.substep_burst(t, faults_active);
            if let Some(t0) = inject_t0 {
                let timings = &mut self.probes.telemetry.timings;
                timings.inject.record_duration(t0.elapsed());
            }
            self.substep_oracle(t, &buffered)?;
        } else {
            self.substep_inject(t, injections)?;
            self.substep_burst(t, faults_active);
            if let Some(t0) = inject_t0 {
                let timings = &mut self.probes.telemetry.timings;
                timings.inject.record_duration(t0.elapsed());
            }
        }

        let tally = StepTally {
            sent,
            delivered,
            absorbed0,
            injected0,
            t0: step_t0,
        };
        if t >= self.probes.next_due {
            return self.run_due_probes(t, tally);
        }
        self.end_step(tally);
        Ok(())
    }

    /// Substep 1: send one packet from each nonempty buffer, unless an
    /// outage fault has the edge down this step. Iterates the active
    /// set only (ascending edge order, same order the full scan
    /// produces) and pops through the cached [`Discipline`] when the
    /// protocol declared one. The caller ([`Engine::step`]) has
    /// already run [`BufferStore::begin_step`].
    fn substep_send(&mut self, t: Time, faults_active: bool) -> Result<(), EngineError> {
        // Active entries are exactly the nonempty edges after
        // begin_step, and stay nonempty until their own send below
        // (substep 1 never appends to buffers).
        for k in 0..self.buffers.active_count() {
            let ei = self.buffers.active_edge(k);
            self.send_one(t, ei, faults_active)?;
        }
        Ok(())
    }

    /// One edge's share of substep 1: outage check, packet selection
    /// (discipline fast path or virtual dispatch), send.
    #[inline]
    fn send_one(&mut self, t: Time, ei: usize, faults_active: bool) -> Result<(), EngineError> {
        let edge = EdgeId(ei as u32);
        if faults_active && self.faults.as_ref().is_some_and(|f| f.edge_down(edge, t)) {
            self.fault_log
                .push(FaultEvent::OutageSuppressedSend { time: t, edge });
            return Ok(());
        }
        let idx = match self.discipline.index_in(self.buffers.queue(ei)) {
            Some(i) => i,
            None => self
                .protocol
                .select(t, edge, self.buffers.queue(ei), &self.graph),
        };
        self.finish_send(t, ei, edge, idx)
    }

    /// Tail of [`Engine::send_one`]: pop the selected packet, record
    /// the send, put the packet on the wire.
    #[inline]
    fn finish_send(
        &mut self,
        t: Time,
        ei: usize,
        edge: EdgeId,
        idx: usize,
    ) -> Result<(), EngineError> {
        let qlen = self.buffers.len(ei);
        let p = self.buffers.remove(ei, idx).ok_or_else(|| {
            EngineError::Protocol(format!(
                "protocol selected index {idx} from a queue of length {qlen}"
            ))
        })?;
        let wait = t - p.arrived_at;
        self.metrics.on_send(edge, wait);
        self.probes
            .observe
            .span(t, SpanKind::Send, p.id.0, edge, p.hop, wait);
        self.in_transit.push(p);
        Ok(())
    }

    /// Wire-fault stage: drop and duplication faults act here — on the
    /// wire, between send and receive. Moves `in_transit` survivors
    /// (each possibly followed by its duplicate) into `delivered`; a
    /// plain swap when no fault is active this step.
    fn substep_wire_faults(&mut self, t: Time, faults_active: bool) {
        debug_assert!(self.delivered.is_empty());
        if !faults_active {
            std::mem::swap(&mut self.in_transit, &mut self.delivered);
            return;
        }
        let mut in_transit = std::mem::take(&mut self.in_transit);
        for p in in_transit.drain(..) {
            let crossed = self.routes.get(p.route)[p.hop as usize];
            let (lost, copied) = match &self.faults {
                Some(f) => (f.drops_at(crossed, t), f.duplicates_at(crossed, t)),
                None => (false, false),
            };
            if lost {
                self.metrics.dropped += 1;
                self.fault_log.push(FaultEvent::PacketDropped {
                    time: t,
                    edge: crossed,
                    id: p.id,
                });
                self.probes
                    .observe
                    .span(t, SpanKind::Drop, p.id.0, crossed, p.hop, 0);
                continue;
            }
            let copy = if copied {
                let id = PacketId(self.next_id);
                self.next_id += 1;
                self.metrics.duplicated += 1;
                self.fault_log.push(FaultEvent::PacketDuplicated {
                    time: t,
                    edge: crossed,
                    original: p.id,
                    clone: id,
                });
                // The clone is a fresh sampled-or-not packet: its
                // lifecycle (enqueue → … → absorb) spans appear iff
                // *its* id is in the residue class, so the `dup` span
                // is keyed to the clone, not the original.
                self.probes
                    .observe
                    .span(t, SpanKind::Duplicate, id.0, crossed, p.hop, 0);
                Some(Packet { id, ..p })
            } else {
                None
            };
            self.delivered.push(p);
            self.delivered.extend(copy);
        }
        self.in_transit = in_transit;
    }

    /// Substep 2a: receive. Absorb packets at their destination,
    /// append the rest to the next buffer on their route.
    fn substep_receive(&mut self, t: Time) {
        let mut delivered = std::mem::take(&mut self.delivered);
        // One-entry route memo: transit arrivals are dominated by
        // cohorts sharing a route, so the common case resolves the
        // route id against a cached slice borrow instead of re-indexing
        // the table per packet.
        let mut memo_id = RouteId::INVALID;
        let mut memo: &[EdgeId] = &[];
        for mut p in delivered.drain(..) {
            if p.on_last_edge() {
                // Injected bug for `examples/sentinel_demo`: roughly
                // one absorption in a thousand silently vanishes,
                // uncounted — exactly the class of accounting rot the
                // conservation invariant exists to catch.
                #[cfg(feature = "demo-corruption")]
                if p.id.0 % 977 == 5 {
                    continue;
                }
                self.metrics.on_absorb(t - p.injected_at);
                if self.probes.observe.spans_on {
                    // Resolve the crossed edge only when spans are on.
                    let crossed = self.routes.get(p.route)[p.hop as usize];
                    let latency = t - p.injected_at;
                    self.probes
                        .observe
                        .span(t, SpanKind::Absorb, p.id.0, crossed, p.hop, latency);
                }
                if self.record_absorptions {
                    self.absorptions.push(Absorption {
                        tag: p.tag,
                        injected_at: p.injected_at,
                        absorbed_at: t,
                    });
                }
            } else {
                p.hop += 1;
                p.arrived_at = t;
                if p.route != memo_id {
                    memo_id = p.route;
                    memo = self.routes.get(p.route);
                }
                let next = memo[p.hop as usize];
                let len = self.buffers.push_back(next.index(), p) as u64;
                self.metrics.on_queue_len(next, len);
                self.probes
                    .observe
                    .span(t, SpanKind::Enqueue, p.id.0, next, p.hop, 0);
            }
        }
        self.delivered = delivered;
    }

    /// Substep 2b: the adversary's injections, through the model.
    fn substep_inject<I>(&mut self, t: Time, injections: I) -> Result<(), EngineError>
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<Injection>,
    {
        for inj in injections {
            let inj: &Injection = std::borrow::Borrow::borrow(&inj);
            let edges = inj.route.edges();
            // The adversary constraints are per packet: a cohort of n
            // is n injections as far as the model is concerned.
            if let Some(m) = self.model.as_mut() {
                for _ in 0..inj.count {
                    m.observe_route(edges, t)?;
                }
            }
            for &e in edges {
                self.touch_edge_use(e, t);
            }
            let (rid, len, first) = self.intern_memoized(&inj.route);
            if inj.count == 1 {
                self.admit(rid, len, first, t, inj.tag);
            } else {
                self.admit_cohort(rid, len, first, t, inj.tag, u64::from(inj.count));
            }
        }
        Ok(())
    }

    /// Burst-fault stage: scheduled bursts materialize after the
    /// adversary's injections, bypassing the validators — the
    /// Observation 4.4 allowance applied mid-run.
    fn substep_burst(&mut self, t: Time, faults_active: bool) {
        if !faults_active {
            return;
        }
        let burst: Vec<Injection> = self
            .faults
            .as_ref()
            .map(|f| {
                f.bursts_at(t)
                    .flat_map(|b| b.injections.iter().cloned())
                    .collect()
            })
            .unwrap_or_default();
        if !burst.is_empty() {
            self.fault_log.push(FaultEvent::BurstInjected {
                time: t,
                count: burst.iter().map(|i| u64::from(i.count)).sum(),
            });
            for inj in burst {
                for &e in inj.route.edges() {
                    self.touch_edge_use(e, t);
                }
                let (rid, len, first) = self.intern_for_admit(inj.route.edges());
                if inj.count == 1 {
                    self.admit(rid, len, first, t, inj.tag);
                } else {
                    self.admit_cohort(rid, len, first, t, inj.tag, u64::from(inj.count));
                }
            }
        }
    }

    /// Oracle stage: advance the reference model through the same
    /// step, then (at the diff cadence) compare complete states.
    fn substep_oracle(&mut self, t: Time, injections: &[Injection]) -> Result<(), EngineError> {
        let mut oracle = match self.oracle.take() {
            Some(o) => o,
            None => return Ok(()),
        };
        let oracle_t0 = self
            .probes
            .telemetry
            .timing_this_step
            .then(std::time::Instant::now);
        oracle.step(&self.graph, self.faults.as_ref(), injections);
        let due = oracle.due(t);
        let diverged = if due { oracle.model().diff(self) } else { None };
        self.oracle = Some(oracle);
        if due && self.probes.telemetry.counters_on {
            self.probes.telemetry.counters.oracle_diffs += 1;
        }
        if let Some(t0) = oracle_t0 {
            self.probes
                .telemetry
                .timings
                .oracle
                .record_duration(t0.elapsed());
        }
        if let Some(detail) = diverged {
            self.raise(InvariantKind::OracleDivergence, t, detail)?;
        }
        Ok(())
    }

    /// Run `steps` steps with no injections.
    pub fn run_quiet(&mut self, steps: u64) -> Result<(), EngineError> {
        for _ in 0..steps {
            self.step(std::iter::empty::<Injection>())?;
        }
        Ok(())
    }

    /// Extend the (remaining) routes of **all** packets currently
    /// queued in the listed buffers by `suffix` — the rerouting
    /// technique of Lemma 3.3, in the suffix-extension form the paper's
    /// construction uses ("extend the routes of all packets stored in
    /// `F` by adding the path `e'_1, …, e'_n, a''`").
    ///
    /// The extension takes effect at the current time boundary: it is
    /// as if the extended packets had been injected, at their original
    /// injection times, with the extended routes (the adversary `A'`
    /// of Lemma 3.3). Accordingly, when rate validation is on, each
    /// extended packet's suffix edges are recorded at its original
    /// injection time.
    ///
    /// `last_edge` restricts the cohort to packets whose current route
    /// ends at that edge — the paper's analysis guarantees only such
    /// packets remain in `F` at the extension time; with exact integer
    /// rounding a handful of thinning singles can straggle, and those
    /// must not be rerouted (their routes share no edge with the rest,
    /// violating Lemma 3.3's precondition).
    ///
    /// Returns the number of packets extended.
    pub fn extend_routes_in(
        &mut self,
        buffers: &[EdgeId],
        suffix: &[EdgeId],
        last_edge: Option<EdgeId>,
    ) -> Result<usize, EngineError> {
        if suffix.is_empty() {
            return Ok(0);
        }
        // Whether a packet is in the cohort is a function of its route
        // alone (its route ends at `last_edge`), so the whole extension
        // is computed per *distinct route id*, not per packet. First
        // pass (immutable): find the distinct cohort routes in first-
        // appearance order, build and validate their extensions.
        let mut cohort_count = 0usize;
        let mut distinct: Vec<(RouteId, Vec<EdgeId>)> = Vec::new();
        {
            let routes = &self.routes;
            let selected =
                |p: &Packet| last_edge.is_none_or(|e| routes.get(p.route).last() == Some(&e));
            for &be in buffers {
                for p in self.buffers.iter(be.index()).filter(|p| selected(p)) {
                    cohort_count += 1;
                    if !distinct.iter().any(|(id, _)| *id == p.route) {
                        let old = routes.get(p.route);
                        let mut edges = Vec::with_capacity(old.len() + suffix.len());
                        edges.extend_from_slice(old);
                        edges.extend_from_slice(suffix);
                        Route::validate(&self.graph, &edges)?;
                        distinct.push((p.route, edges));
                    }
                }
            }
        }
        if cohort_count == 0 {
            return Ok(0);
        }

        if self.cfg.validate_reroutes {
            self.check_lemma33_preconditions(buffers, suffix, last_edge)?;
        }

        // Feed the model at the original injection times, in
        // non-decreasing time order (the effective adversary A').
        // Initial-configuration packets (injected_at == 0, only
        // creatable via seed()) are exempt: Observation 4.4 grants the
        // adversary an arbitrary initial configuration, routes
        // included.
        if let Some(model) = &mut self.model {
            let routes = &self.routes;
            let selected =
                |p: &&Packet| last_edge.is_none_or(|e| routes.get(p.route).last() == Some(&e));
            let mut inject_times: Vec<Time> = buffers
                .iter()
                .flat_map(|e| {
                    self.buffers
                        .iter(e.index())
                        .filter(selected)
                        .map(|p| p.injected_at)
                })
                .filter(|&t| t > 0)
                .collect();
            inject_times.sort_unstable();
            for t in inject_times {
                for &e in suffix {
                    model.observe(e, t).map_err(EngineError::Rate)?;
                }
            }
        }

        // Intern each extended route once per distinct original route,
        // then swap ids in place — the per-packet work is two u32
        // stores.
        let swaps: Vec<(RouteId, RouteId, u32)> = distinct
            .into_iter()
            .map(|(old_id, edges)| {
                let new_id = self.routes.intern(&edges);
                (old_id, new_id, edges.len() as u32)
            })
            .collect();
        let mut max_t = 0;
        let mut count = 0;
        for &be in buffers {
            for p in self.buffers.iter_mut(be.index()) {
                let Some(&(_, new_id, new_len)) =
                    swaps.iter().find(|(old_id, _, _)| *old_id == p.route)
                else {
                    continue; // not selected: its route was not in the cohort
                };
                p.route = new_id;
                p.route_len = new_len;
                max_t = max_t.max(p.injected_at);
                count += 1;
            }
        }
        for &e in suffix {
            self.touch_edge_use(e, max_t);
        }
        if count > 0 {
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.model.mirror_extend(buffers, suffix, last_edge);
            }
        }
        Ok(count)
    }

    /// Lemma 3.3 preconditions: historic policy; rerouted packets share
    /// a common route edge; each suffix edge is *new* with respect to
    /// the current packet set (Definition 3.2).
    fn check_lemma33_preconditions(
        &self,
        buffers: &[EdgeId],
        suffix: &[EdgeId],
        last_edge: Option<EdgeId>,
    ) -> Result<(), EngineError> {
        if !self.protocol.is_historic() {
            return Err(EngineError::Reroute(format!(
                "protocol {} is not historic; Lemma 3.3 does not apply",
                self.protocol.name()
            )));
        }
        let rate = self
            .cfg
            .validate
            .as_ref()
            .and_then(AdversaryModelSpec::reroute_rate)
            .ok_or_else(|| {
                EngineError::Reroute(
                    "validate_reroutes requires a Rate member in the adversary model \
                     (new-edge check needs ⌈1/r⌉)"
                        .into(),
                )
            })?;

        // Common-edge check over the rerouted cohort. With a
        // `last_edge` filter the cohort provably shares that edge
        // (every selected route ends at it), so the intersection is
        // only computed for unrestricted extensions — the general scan
        // is O(cohort × |route|²) and cohort routes in a long chain
        // accumulate hundreds of edges.
        if last_edge.is_none() {
            // With no `last_edge` filter every packet in the listed
            // buffers is in the cohort, and the intersection only needs
            // each *distinct* route once.
            let mut iter = buffers.iter().flat_map(|e| self.buffers.iter(e.index()));
            let first = match iter.next() {
                Some(p) => p,
                None => return Ok(()),
            };
            let mut common: Vec<EdgeId> = self.routes.get(first.route).to_vec();
            let mut seen = vec![first.route];
            for p in iter {
                if seen.contains(&p.route) {
                    continue;
                }
                seen.push(p.route);
                common.retain(|e| self.routes.get(p.route).contains(e));
                if common.is_empty() {
                    return Err(EngineError::Reroute(
                        "rerouted packets do not share a common route edge".into(),
                    ));
                }
            }
        }

        // New-edge check: t* = min injection time over ALL live packets;
        // every suffix edge must be unused by any route injected at
        // time >= t* - ceil(1/r).
        let t_star = self.packets().map(|p| p.injected_at).min().ok_or_else(|| {
            EngineError::Internal("nonempty reroute cohort but no live packets".into())
        })?;
        let threshold = t_star.saturating_sub(rate.ceil_inv());
        for &e in suffix {
            if let Some(last) = self.last_route_use[e.index()] {
                if last >= threshold {
                    return Err(EngineError::Reroute(format!(
                        "edge {} is not new: last used by an injection at time {} >= t* - ceil(1/r) = {}",
                        self.graph.edge_name(e),
                        last,
                        threshold
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::Ratio;
    use aqt_graph::topologies;
    use std::collections::VecDeque as VD;

    /// Minimal FIFO for engine tests (the full protocol set lives in
    /// aqt-protocols).
    struct Fifo;
    impl Protocol for Fifo {
        fn name(&self) -> &str {
            "FIFO"
        }
        fn select(&mut self, _: Time, _: EdgeId, _: &VD<Packet>, _: &Graph) -> usize {
            0
        }
        fn is_historic(&self) -> bool {
            true
        }
        fn is_time_priority(&self) -> bool {
            true
        }
    }

    fn line_engine(k: usize, cfg: EngineConfig) -> (Engine<Fifo>, Vec<EdgeId>) {
        let g = topologies::line(k);
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        (Engine::new(Arc::new(g), Fifo, cfg), edges)
    }

    #[test]
    fn single_packet_traverses_line() {
        let (mut eng, edges) = line_engine(3, EngineConfig::default());
        let route = Route::new(eng.graph(), edges.clone()).unwrap();
        eng.step([Injection::new(route, 0)]).unwrap(); // injected at t=1
        assert_eq!(eng.queue_len(edges[0]), 1);
        eng.run_quiet(2).unwrap();
        // crossed e0 at step 2, e1 at step 3 -> now queued at e2
        assert_eq!(eng.queue_len(edges[2]), 1);
        eng.run_quiet(1).unwrap();
        assert_eq!(eng.backlog(), 0);
        assert_eq!(eng.metrics().absorbed, 1);
        assert_eq!(eng.metrics().max_latency, 3);
    }

    #[test]
    fn one_packet_per_edge_per_step() {
        let (mut eng, edges) = line_engine(1, EngineConfig::default());
        let route = Route::new(eng.graph(), vec![edges[0]]).unwrap();
        // inject 3 packets in 3 consecutive steps; the buffer drains 1/step
        for _ in 0..3 {
            eng.step([Injection::new(route.clone(), 0)]).unwrap();
        }
        // At t=3: injected 3, sent at steps 2 and 3 (the packet injected
        // at t must wait until step t+1).
        assert_eq!(eng.metrics().absorbed, 2);
        assert_eq!(eng.queue_len(edges[0]), 1);
        eng.run_quiet(1).unwrap();
        assert_eq!(eng.backlog(), 0);
    }

    #[test]
    fn conservation_inject_absorb() {
        let (mut eng, edges) = line_engine(4, EngineConfig::default());
        let route = Route::new(eng.graph(), edges.clone()).unwrap();
        for _ in 0..10 {
            eng.step([Injection::new(route.clone(), 0)]).unwrap();
        }
        eng.run_quiet(20).unwrap();
        assert_eq!(eng.metrics().injected, 10);
        assert_eq!(eng.metrics().absorbed, 10);
        assert_eq!(eng.backlog(), 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut eng, edges) = line_engine(2, EngineConfig::default());
        let long = Route::new(eng.graph(), edges.clone()).unwrap();
        let block = Route::new(eng.graph(), vec![edges[1]]).unwrap();
        // two blockers at e1 delay the long packets so both queue at e1
        eng.seed(block.clone(), 0).unwrap();
        eng.seed(block, 0).unwrap();
        eng.seed(long.clone(), 1).unwrap();
        eng.seed(long, 2).unwrap();
        eng.run_quiet(2).unwrap();
        // tag-1 crossed e0 at step 1 and sits ahead of tag-2 at e1
        let tags: Vec<u32> = eng.queue_iter(edges[1]).map(|p| p.tag).collect();
        assert_eq!(tags, vec![1, 2]);
    }

    #[test]
    fn seed_cohort_matches_singleton_seeds() {
        let (mut a, edges) = line_engine(2, EngineConfig::default());
        let (mut b, _) = line_engine(2, EngineConfig::default());
        let route = Route::new(a.graph(), edges.clone()).unwrap();
        for _ in 0..5 {
            a.seed(route.clone(), 3).unwrap();
        }
        let first = b.seed_cohort(route, 3, 5).unwrap();
        assert_eq!(first, PacketId(0));
        a.run_quiet(4).unwrap();
        b.run_quiet(4).unwrap();
        assert_eq!(crate::snapshot::capture(&a), crate::snapshot::capture(&b));
    }

    #[test]
    fn cohort_injection_matches_singletons() {
        let (mut a, edges) = line_engine(2, EngineConfig::default());
        let (mut b, _) = line_engine(2, EngineConfig::default());
        let route = Route::new(a.graph(), edges.clone()).unwrap();
        a.step(vec![Injection::new(route.clone(), 7); 4]).unwrap();
        b.step([Injection::cohort(route, 7, 4)]).unwrap();
        assert_eq!(crate::snapshot::capture(&a), crate::snapshot::capture(&b));
        a.run_quiet(6).unwrap();
        b.run_quiet(6).unwrap();
        assert_eq!(a.metrics().absorbed, 4);
        assert_eq!(crate::snapshot::capture(&a), crate::snapshot::capture(&b));
    }

    #[test]
    fn seed_only_before_start() {
        let (mut eng, edges) = line_engine(1, EngineConfig::default());
        let route = Route::new(eng.graph(), vec![edges[0]]).unwrap();
        eng.seed(route.clone(), 0).unwrap();
        eng.run_quiet(1).unwrap();
        assert!(matches!(eng.seed(route, 0), Err(EngineError::Usage(_))));
    }

    #[test]
    fn max_buffer_wait_tracked() {
        let (mut eng, edges) = line_engine(1, EngineConfig::default());
        let route = Route::new(eng.graph(), vec![edges[0]]).unwrap();
        // seed 3 packets; they leave at steps 1,2,3 with waits 1,2,3
        for _ in 0..3 {
            eng.seed(route.clone(), 0).unwrap();
        }
        eng.run_quiet(3).unwrap();
        assert_eq!(eng.metrics().max_buffer_wait, 3);
    }

    #[test]
    fn rate_validation_rejects_overload() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let mut eng = Engine::new(
            Arc::clone(&g),
            Fifo,
            EngineConfig {
                validate: Some(AdversaryModelSpec::rate(Ratio::new(1, 2))),
                ..Default::default()
            },
        );
        let route = Route::new(&g, vec![e]).unwrap();
        eng.step([Injection::new(route.clone(), 0)]).unwrap();
        let err = eng.step([Injection::new(route, 0)]).unwrap_err();
        assert!(matches!(err, EngineError::Rate(_)));
    }

    #[test]
    fn window_validation_allows_burst_rate_disallows_sustained() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let mut eng = Engine::new(
            Arc::clone(&g),
            Fifo,
            EngineConfig {
                validate: Some(AdversaryModelSpec::window(10, Ratio::new(1, 2))),
                ..Default::default()
            },
        );
        let route = Route::new(&g, vec![e]).unwrap();
        // burst of 5 at t=1 is legal for (10, 1/2)
        eng.step(vec![Injection::new(route.clone(), 0); 5]).unwrap();
        // a sixth in the same window is not
        let err = eng.step([Injection::new(route, 0)]).unwrap_err();
        assert!(matches!(err, EngineError::Rate(_)));
    }

    #[test]
    fn composed_model_members_all_enforced() {
        use crate::rate::ConstraintSpec;
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        // window(10, 1/2) alone admits a burst of 5; the composed
        // buffer_bound(2) member caps the same step at 3.
        let mut eng = Engine::new(
            Arc::clone(&g),
            Fifo,
            EngineConfig {
                validate: Some(
                    AdversaryModelSpec::window(10, Ratio::new(1, 2))
                        .and(ConstraintSpec::BufferBound { bound: 2 }),
                ),
                ..Default::default()
            },
        );
        let route = Route::new(&g, vec![e]).unwrap();
        let err = eng.step(vec![Injection::new(route, 0); 5]).unwrap_err();
        assert!(matches!(err, EngineError::Rate(_)));
    }

    #[test]
    fn extension_moves_packets_onward() {
        let (mut eng, edges) = line_engine(3, EngineConfig::default());
        let short = Route::new(eng.graph(), vec![edges[0]]).unwrap();
        eng.seed(short.clone(), 7).unwrap();
        eng.seed(short, 7).unwrap();
        let n = eng
            .extend_routes_in(&[edges[0]], &[edges[1], edges[2]], None)
            .unwrap();
        assert_eq!(n, 2);
        eng.run_quiet(5).unwrap();
        // both packets crossed all three edges and were absorbed
        assert_eq!(eng.metrics().absorbed, 2);
        assert_eq!(eng.metrics().max_latency, 4); // second packet waits 1 extra at e0
    }

    #[test]
    fn extension_validates_connectivity() {
        let (mut eng, edges) = line_engine(3, EngineConfig::default());
        let short = Route::new(eng.graph(), vec![edges[0]]).unwrap();
        eng.seed(short, 0).unwrap();
        let err = eng
            .extend_routes_in(&[edges[0]], &[edges[2]], None)
            .unwrap_err();
        assert!(matches!(err, EngineError::Route(_)));
    }

    #[test]
    fn reroute_validation_requires_new_edges() {
        let g = Arc::new(topologies::line(3));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let mut eng = Engine::new(
            Arc::clone(&g),
            Fifo,
            EngineConfig {
                validate: Some(AdversaryModelSpec::rate(Ratio::new(3, 5))),
                validate_reroutes: true,
                ..Default::default()
            },
        );
        // A packet whose route already uses e1 at time 1...
        let long = Route::new(&g, vec![edges[0], edges[1]]).unwrap();
        eng.step([Injection::new(long, 0)]).unwrap();
        // ...makes e1 non-new for a cohort injected at time 2.
        let short = Route::new(&g, vec![edges[0]]).unwrap();
        eng.step([Injection::new(short, 1)]).unwrap();
        let err = eng
            .extend_routes_in(&[edges[0]], &[edges[1]], None)
            .unwrap_err();
        assert!(matches!(err, EngineError::Reroute(_)));
    }

    #[test]
    fn reroute_validation_accepts_fresh_edges() {
        let g = Arc::new(topologies::line(3));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let mut eng = Engine::new(
            Arc::clone(&g),
            Fifo,
            EngineConfig {
                validate: Some(AdversaryModelSpec::rate(Ratio::new(3, 5))),
                validate_reroutes: true,
                ..Default::default()
            },
        );
        let short = Route::new(&g, vec![edges[0]]).unwrap();
        // run long enough that t* - ceil(1/r) clears the initial uses:
        // inject the cohort late, never having used e1/e2.
        eng.run_quiet(10).unwrap();
        eng.step([Injection::new(short.clone(), 0)]).unwrap(); // t = 11
        let n = eng
            .extend_routes_in(&[edges[0]], &[edges[1], edges[2]], None)
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn backlog_sampling() {
        let (mut eng, edges) = line_engine(
            1,
            EngineConfig {
                sample_every: 2,
                ..Default::default()
            },
        );
        let route = Route::new(eng.graph(), vec![edges[0]]).unwrap();
        for _ in 0..6 {
            eng.step([Injection::new(route.clone(), 0)]).unwrap();
        }
        let s = &eng.metrics().series;
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].time, 2);
        assert!(s.iter().all(|p| p.backlog <= 1 + 1));
    }

    /// A non-historic dummy: rerouting must be refused.
    struct NonHistoric;
    impl Protocol for NonHistoric {
        fn name(&self) -> &str {
            "NTG-like"
        }
        fn select(&mut self, _: Time, _: EdgeId, _: &VD<Packet>, _: &Graph) -> usize {
            0
        }
    }

    #[test]
    fn reroute_refused_for_non_historic_policy() {
        let g = Arc::new(topologies::line(2));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let mut eng = Engine::new(
            Arc::clone(&g),
            NonHistoric,
            EngineConfig {
                validate: Some(AdversaryModelSpec::rate(Ratio::new(3, 5))),
                validate_reroutes: true,
                ..Default::default()
            },
        );
        let short = Route::new(&g, vec![edges[0]]).unwrap();
        eng.step([Injection::new(short, 0)]).unwrap();
        let err = eng
            .extend_routes_in(&[edges[0]], &[edges[1]], None)
            .unwrap_err();
        assert!(matches!(err, EngineError::Reroute(_)));
    }
}
