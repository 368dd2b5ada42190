//! The campaign's unit of work: a fully serializable run description.
//!
//! A [`Scenario`] pins everything a run depends on — topology,
//! protocol, RNG seed, horizon, sentinel cadence, injection schedule,
//! fault plan, and (optionally) a theorem certificate to enforce — as
//! plain data: no `Arc`s, no interned ids, edge references are raw
//! `u32` indices. That makes scenarios cheap to mutate (the generator),
//! order-free to hash (the corpus), and trivial to print as a Rust
//! literal (the regression emitter). [`Scenario::build`] is the single
//! place where a scenario is validated and lowered onto the real
//! engine types.

use std::sync::Arc;

use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_sim::sentinel::CertificateSpec;
use aqt_sim::{fnv1a_u64s, ConstraintSpec, FaultPlan, Injection, Schedule, Time};

/// A topology family instance, shrinkable along its size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// `topologies::line(k)` — k+1 nodes in a path.
    Line(u32),
    /// `topologies::ring(k)` — a directed k-cycle.
    Ring(u32),
    /// `topologies::grid(w, h)` — bidirectional w×h grid.
    Grid(u32, u32),
    /// `topologies::hypercube(d)` — the d-dimensional hypercube.
    Hypercube(u32),
    /// `topologies::complete(k)` — the complete digraph on k nodes.
    Complete(u32),
}

impl TopologySpec {
    /// Every family the generator draws from, at a placeholder size.
    pub const FAMILIES: usize = 5;

    /// Dense family index, for coverage bucketing.
    pub fn family(self) -> u8 {
        match self {
            TopologySpec::Line(_) => 0,
            TopologySpec::Ring(_) => 1,
            TopologySpec::Grid(_, _) => 2,
            TopologySpec::Hypercube(_) => 3,
            TopologySpec::Complete(_) => 4,
        }
    }

    /// Stable display name of the family.
    pub fn family_name(self) -> &'static str {
        match self {
            TopologySpec::Line(_) => "line",
            TopologySpec::Ring(_) => "ring",
            TopologySpec::Grid(_, _) => "grid",
            TopologySpec::Hypercube(_) => "hypercube",
            TopologySpec::Complete(_) => "complete",
        }
    }

    /// Materialize the graph. Sizes are clamped to the topology
    /// constructors' minimums so a shrunk spec can never panic.
    pub fn build(self) -> Graph {
        match self {
            TopologySpec::Line(k) => topologies::line(k.max(1) as usize),
            TopologySpec::Ring(k) => topologies::ring(k.max(2) as usize),
            TopologySpec::Grid(w, h) => topologies::grid(w.max(1) as usize, h.max(1) as usize),
            TopologySpec::Hypercube(d) => topologies::hypercube(d.clamp(1, 10) as usize),
            TopologySpec::Complete(k) => topologies::complete(k.max(2) as usize),
        }
    }

    /// Strictly smaller variants of this spec, largest first, for the
    /// shrinker's topology pass. Empty when already minimal.
    pub fn shrink_candidates(self) -> Vec<TopologySpec> {
        match self {
            TopologySpec::Line(k) => (1..k).rev().map(TopologySpec::Line).collect(),
            TopologySpec::Ring(k) => (2..k).rev().map(TopologySpec::Ring).collect(),
            TopologySpec::Grid(w, h) => {
                let mut out = Vec::new();
                if w > 1 {
                    out.push(TopologySpec::Grid(w - 1, h));
                }
                if h > 1 {
                    out.push(TopologySpec::Grid(w, h - 1));
                }
                out
            }
            TopologySpec::Hypercube(d) => (1..d).rev().map(TopologySpec::Hypercube).collect(),
            TopologySpec::Complete(k) => (2..k).rev().map(TopologySpec::Complete).collect(),
        }
    }

    /// Canonical hash words: family tag then size parameters.
    fn words(self) -> [u64; 3] {
        match self {
            TopologySpec::Line(k) => [0, u64::from(k), 0],
            TopologySpec::Ring(k) => [1, u64::from(k), 0],
            TopologySpec::Grid(w, h) => [2, u64::from(w), u64::from(h)],
            TopologySpec::Hypercube(d) => [3, u64::from(d), 0],
            TopologySpec::Complete(k) => [4, u64::from(k), 0],
        }
    }

    /// A size proxy for the shrinker's ordering (node + edge count of
    /// the materialized graph).
    pub fn weight(self) -> u64 {
        let g = self.build();
        (g.node_count() + g.edge_count()) as u64
    }

    /// Rust source for this spec, for the regression emitter.
    pub fn to_rust(self) -> String {
        match self {
            TopologySpec::Line(k) => format!("TopologySpec::Line({k})"),
            TopologySpec::Ring(k) => format!("TopologySpec::Ring({k})"),
            TopologySpec::Grid(w, h) => format!("TopologySpec::Grid({w}, {h})"),
            TopologySpec::Hypercube(d) => format!("TopologySpec::Hypercube({d})"),
            TopologySpec::Complete(k) => format!("TopologySpec::Complete({k})"),
        }
    }
}

/// A cohort: `count` identical packets sharing one route (edge indices
/// into the scenario's topology) and a bookkeeping tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortSpec {
    /// Edge indices of the shared route, in travel order.
    pub route: Vec<u32>,
    /// Cohort tag (free-form).
    pub tag: u32,
    /// Number of packets.
    pub count: u32,
}

impl CohortSpec {
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        [
            u64::from(self.tag),
            u64::from(self.count),
            self.route.len() as u64,
        ]
        .into_iter()
        .chain(self.route.iter().map(|&e| u64::from(e)))
    }

    fn weight(&self) -> u64 {
        self.route.len() as u64 + u64::from(self.count)
    }

    fn to_injection(&self, graph: &Graph) -> Result<Injection, String> {
        let edges: Vec<EdgeId> = self.route.iter().map(|&e| EdgeId(e)).collect();
        let route = Route::new(graph, edges)
            .map_err(|e| format!("cohort route {:?} invalid: {e}", self.route))?;
        Ok(Injection::cohort(route, self.tag, self.count.max(1)))
    }

    fn to_rust(&self) -> String {
        format!(
            "CohortSpec {{ route: vec!{:?}, tag: {}, count: {} }}",
            self.route, self.tag, self.count
        )
    }
}

/// A scheduled adversary injection: one cohort at one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectSpec {
    /// The step at which the cohort is injected (must be ≥ 1).
    pub time: Time,
    /// What is injected.
    pub cohort: CohortSpec,
}

/// One fault-plan entry, in scenario (raw-index) form. Mirrors the
/// shapes of [`aqt_sim::FaultPlan`]: edge outages, single-crossing
/// drops and duplications, and mid-run injection bursts that bypass
/// adversary validation (the `S`-configurations of Observation 4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Edge `edge` is down for steps `from..=until`.
    Outage { edge: u32, from: Time, until: Time },
    /// The packet crossing `edge` at step `time` is dropped.
    Drop { edge: u32, time: Time },
    /// The packet crossing `edge` at step `time` is duplicated.
    Duplicate { edge: u32, time: Time },
    /// Cohorts force-injected at step `time`.
    Burst {
        time: Time,
        cohorts: Vec<CohortSpec>,
    },
}

impl FaultSpec {
    /// The last step this entry can act at.
    pub fn horizon(&self) -> Time {
        match self {
            FaultSpec::Outage { until, .. } => *until,
            FaultSpec::Drop { time, .. }
            | FaultSpec::Duplicate { time, .. }
            | FaultSpec::Burst { time, .. } => *time,
        }
    }

    fn words(&self) -> Vec<u64> {
        match self {
            FaultSpec::Outage { edge, from, until } => vec![1, u64::from(*edge), *from, *until],
            FaultSpec::Drop { edge, time } => vec![2, u64::from(*edge), *time],
            FaultSpec::Duplicate { edge, time } => vec![3, u64::from(*edge), *time],
            FaultSpec::Burst { time, cohorts } => {
                let mut w = vec![4, *time, cohorts.len() as u64];
                for c in cohorts {
                    w.extend(c.words());
                }
                w
            }
        }
    }

    fn weight(&self) -> u64 {
        match self {
            FaultSpec::Outage { .. } | FaultSpec::Drop { .. } | FaultSpec::Duplicate { .. } => 1,
            FaultSpec::Burst { cohorts, .. } => {
                1 + cohorts.iter().map(CohortSpec::weight).sum::<u64>()
            }
        }
    }

    fn to_rust(&self) -> String {
        match self {
            FaultSpec::Outage { edge, from, until } => {
                format!("FaultSpec::Outage {{ edge: {edge}, from: {from}, until: {until} }}")
            }
            FaultSpec::Drop { edge, time } => {
                format!("FaultSpec::Drop {{ edge: {edge}, time: {time} }}")
            }
            FaultSpec::Duplicate { edge, time } => {
                format!("FaultSpec::Duplicate {{ edge: {edge}, time: {time} }}")
            }
            FaultSpec::Burst { time, cohorts } => {
                let inner: Vec<String> = cohorts.iter().map(CohortSpec::to_rust).collect();
                format!(
                    "FaultSpec::Burst {{ time: {time}, cohorts: vec![{}] }}",
                    inner.join(", ")
                )
            }
        }
    }
}

/// A client retry policy, in scenario (plain-data) form. Mirrors
/// [`aqt_workload::RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrySpec {
    /// One attempt, never retried.
    None,
    /// Retry on the very next step.
    Immediate,
    /// Retry after a fixed delay.
    Fixed(Time),
    /// Exponential backoff `(base, cap)` with seeded jitter.
    ExpBackoff(Time, Time),
}

impl RetrySpec {
    /// Lower onto the workload type.
    pub fn lower(self) -> aqt_workload::RetryPolicy {
        match self {
            RetrySpec::None => aqt_workload::RetryPolicy::None,
            RetrySpec::Immediate => aqt_workload::RetryPolicy::Immediate,
            RetrySpec::Fixed(delay) => aqt_workload::RetryPolicy::Fixed { delay },
            RetrySpec::ExpBackoff(base, cap) => aqt_workload::RetryPolicy::ExpBackoff { base, cap },
        }
    }

    fn words(self) -> [u64; 3] {
        match self {
            RetrySpec::None => [0, 0, 0],
            RetrySpec::Immediate => [1, 0, 0],
            RetrySpec::Fixed(d) => [2, d, 0],
            RetrySpec::ExpBackoff(b, c) => [3, b, c],
        }
    }

    fn to_rust(self) -> String {
        match self {
            RetrySpec::None => "RetrySpec::None".into(),
            RetrySpec::Immediate => "RetrySpec::Immediate".into(),
            RetrySpec::Fixed(d) => format!("RetrySpec::Fixed({d})"),
            RetrySpec::ExpBackoff(b, c) => format!("RetrySpec::ExpBackoff({b}, {c})"),
        }
    }
}

/// An admission-queue shed discipline, in scenario form. Mirrors
/// [`aqt_workload::Shed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedSpec {
    /// Full queue rejects the incoming attempt (FIFO service).
    RejectNewest,
    /// Full queue evicts its oldest entry to admit the incoming one.
    RejectOldest,
    /// Serve newest-first (LIFO) — fresh work beats stale work.
    LifoFlip,
    /// Drop queued attempts that can no longer meet their deadline.
    DeadlineDrop,
}

impl ShedSpec {
    /// Every discipline, in coverage-index order.
    pub const ALL: [ShedSpec; 4] = [
        ShedSpec::RejectNewest,
        ShedSpec::RejectOldest,
        ShedSpec::LifoFlip,
        ShedSpec::DeadlineDrop,
    ];

    /// Dense index, for coverage bucketing (`Feature::ClosedLoop`).
    pub fn index(self) -> u8 {
        match self {
            ShedSpec::RejectNewest => 0,
            ShedSpec::RejectOldest => 1,
            ShedSpec::LifoFlip => 2,
            ShedSpec::DeadlineDrop => 3,
        }
    }

    /// Lower onto the workload type.
    pub fn lower(self) -> aqt_workload::Shed {
        match self {
            ShedSpec::RejectNewest => aqt_workload::Shed::RejectNewest,
            ShedSpec::RejectOldest => aqt_workload::Shed::RejectOldest,
            ShedSpec::LifoFlip => aqt_workload::Shed::LifoFlip,
            ShedSpec::DeadlineDrop => aqt_workload::Shed::DeadlineDrop,
        }
    }

    fn to_rust(self) -> String {
        format!("ShedSpec::{self:?}")
    }
}

/// A closed-loop workload: a client population with timeout/retry
/// driving a bounded admission queue over a `path_len`-edge line, in
/// place of an open-loop injection schedule. Mirrors
/// [`aqt_workload::ClosedLoopConfig`]; the scenario's `seed` seeds the
/// population RNG and its `model` (when nonempty) validates the
/// realized dispatch sequence exactly like an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedLoopSpec {
    /// Client population size.
    pub num_clients: u32,
    /// Idle steps between a completed request and the next.
    pub think_time: Time,
    /// Steps a client waits on an attempt before retrying.
    pub timeout: Time,
    /// Attempts per request before the client abandons it.
    pub max_attempts: u32,
    /// Retry policy.
    pub retry: RetrySpec,
    /// Admission-queue bound.
    pub capacity: u32,
    /// Shed discipline when the queue is full.
    pub shed: ShedSpec,
    /// Optional service outage `(from, until)` (half-open, in steps).
    pub pause: Option<(Time, Time)>,
    /// Line-topology length in edges (the service path).
    pub path_len: u32,
}

impl ClosedLoopSpec {
    /// Lower onto the workload config (`validate` and `window` are the
    /// caller's — the campaign derives them from the scenario).
    pub fn lower(&self, seed: u64) -> aqt_workload::ClosedLoopConfig {
        aqt_workload::ClosedLoopConfig {
            seed,
            clients: aqt_workload::ClientConfig {
                num_clients: self.num_clients.max(1),
                think_time: self.think_time,
                timeout: self.timeout.max(1),
                max_attempts: self.max_attempts.max(1),
                retry: self.retry.lower(),
            },
            service: aqt_workload::ServicePolicy {
                capacity: self.capacity,
                shed: self.shed.lower(),
                pause: self.pause,
            },
            path_len: self.path_len.max(1),
            validate: None,
            window: 0,
        }
    }

    fn words(&self) -> Vec<u64> {
        let mut w = vec![
            u64::from(self.num_clients),
            self.think_time,
            self.timeout,
            u64::from(self.max_attempts),
        ];
        w.extend(self.retry.words());
        w.push(u64::from(self.capacity));
        w.push(u64::from(self.shed.index()));
        match self.pause {
            None => w.push(0),
            Some((a, b)) => w.extend([1, a, b]),
        }
        w.push(u64::from(self.path_len));
        w
    }

    /// Size metric for the shrinker: fewer clients, fewer attempts, a
    /// smaller queue, a shorter path, no outage — all strictly smaller.
    pub fn weight(&self) -> u64 {
        u64::from(self.num_clients)
            + u64::from(self.max_attempts)
            + u64::from(self.capacity)
            + u64::from(self.path_len)
            + self.pause.map_or(0, |(a, b)| 1 + b.saturating_sub(a))
    }

    /// Strictly smaller variants, for the shrinker's closed-loop pass.
    pub fn shrink_candidates(&self) -> Vec<ClosedLoopSpec> {
        let mut out = Vec::new();
        if self.num_clients > 1 {
            out.push(ClosedLoopSpec {
                num_clients: self.num_clients / 2,
                ..*self
            });
            out.push(ClosedLoopSpec {
                num_clients: self.num_clients - 1,
                ..*self
            });
        }
        if self.max_attempts > 1 {
            out.push(ClosedLoopSpec {
                max_attempts: self.max_attempts - 1,
                ..*self
            });
        }
        if self.capacity > 0 {
            out.push(ClosedLoopSpec {
                capacity: self.capacity / 2,
                ..*self
            });
        }
        if self.pause.is_some() {
            out.push(ClosedLoopSpec {
                pause: None,
                ..*self
            });
        }
        if self.path_len > 1 {
            out.push(ClosedLoopSpec {
                path_len: self.path_len - 1,
                ..*self
            });
        }
        out
    }

    fn to_rust(self) -> String {
        format!(
            "ClosedLoopSpec {{ num_clients: {}, think_time: {}, timeout: {}, \
             max_attempts: {}, retry: {}, capacity: {}, shed: {}, pause: {}, path_len: {} }}",
            self.num_clients,
            self.think_time,
            self.timeout,
            self.max_attempts,
            self.retry.to_rust(),
            self.capacity,
            self.shed.to_rust(),
            match self.pause {
                None => "None".into(),
                Some((a, b)) => format!("Some(({a}, {b}))"),
            },
            self.path_len,
        )
    }
}

/// One point of the campaign's search space, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which graph to run on.
    pub topology: TopologySpec,
    /// Protocol registry name (see `aqt_protocols::registry`).
    pub protocol: String,
    /// RNG seed: passed to the protocol constructor and stamped into
    /// repro bundles.
    pub seed: u64,
    /// Run length in steps; must cover the schedule and the faults.
    pub horizon: Time,
    /// Sentinel base cadence (the campaign always attaches a
    /// sentinel; 0 would disable it, so `build` rejects 0).
    pub cadence: Time,
    /// Sentinel deep stride (per-packet scans); ≥ 1.
    pub deep_stride: u64,
    /// The adversary's schedule.
    pub injections: Vec<InjectSpec>,
    /// The fault plan.
    pub faults: Vec<FaultSpec>,
    /// The adversary-constraint model the injection schedule claims to
    /// satisfy (conjunction of members; empty = unconstrained). The
    /// engine re-validates during the run: a schedule that breaks its
    /// own declared model surfaces as `Outcome::Overrate`, never as a
    /// breach. Fault bursts bypass the model (Observation 4.4).
    pub model: Vec<ConstraintSpec>,
    /// Optional theorem bound to enforce during the run.
    pub certificate: Option<CertificateSpec>,
    /// When set, the scenario is *closed-loop*: this client/service
    /// workload generates the injections and the open-loop `injections`
    /// and `faults` must be empty (the topology is the spec's own
    /// line). `seed`, `cadence`, `deep_stride`, `model`, and
    /// `certificate` apply as usual.
    pub closed_loop: Option<ClosedLoopSpec>,
}

/// A scenario lowered onto real engine types, ready to run.
pub struct Built {
    /// The materialized topology.
    pub graph: Arc<Graph>,
    /// The adversary schedule.
    pub schedule: Schedule,
    /// The fault plan (empty when the scenario has no faults).
    pub faults: FaultPlan,
}

impl Scenario {
    /// Validate and lower this scenario. Errors are strings: the
    /// campaign treats an unbuildable scenario as `Outcome::Invalid`
    /// (a generator or mutation bug worth surfacing, never a breach).
    pub fn build(&self) -> Result<Built, String> {
        if self.cadence == 0 {
            return Err("cadence 0 would disable the sentinel".into());
        }
        if self.closed_loop.is_some() && !(self.injections.is_empty() && self.faults.is_empty()) {
            return Err("closed-loop scenario cannot carry an open-loop schedule or faults".into());
        }
        let graph = Arc::new(self.topology.build());
        let edge_count = graph.edge_count() as u32;
        let mut schedule = Schedule::new();
        for inj in &self.injections {
            if inj.time == 0 {
                return Err("injection scheduled at step 0 can never fire".into());
            }
            if let Some(&e) = inj.cohort.route.iter().find(|&&e| e >= edge_count) {
                return Err(format!("injection references edge {e} of {edge_count}"));
            }
            let lowered = inj.cohort.to_injection(&graph)?;
            schedule.inject_cohort_at(inj.time, lowered.route, lowered.tag, lowered.count);
        }
        let mut plan = FaultPlan::new();
        for f in &self.faults {
            match f {
                FaultSpec::Outage { edge, from, until } => {
                    if *edge >= edge_count {
                        return Err(format!("outage references edge {edge} of {edge_count}"));
                    }
                    plan = plan.with_outage(EdgeId(*edge), *from, *until);
                }
                FaultSpec::Drop { edge, time } => {
                    if *edge >= edge_count {
                        return Err(format!("drop references edge {edge} of {edge_count}"));
                    }
                    plan = plan.with_drop(EdgeId(*edge), *time);
                }
                FaultSpec::Duplicate { edge, time } => {
                    if *edge >= edge_count {
                        return Err(format!("duplicate references edge {edge} of {edge_count}"));
                    }
                    plan = plan.with_duplicate(EdgeId(*edge), *time);
                }
                FaultSpec::Burst { time, cohorts } => {
                    let injections: Result<Vec<Injection>, String> =
                        cohorts.iter().map(|c| c.to_injection(&graph)).collect();
                    plan = plan.with_burst(*time, injections?);
                }
            }
        }
        plan.validate().map_err(|e| format!("fault plan: {e}"))?;
        let needed = schedule.horizon().max(plan.horizon());
        if self.horizon < needed {
            return Err(format!(
                "horizon {} does not cover the last scheduled event at {needed}",
                self.horizon
            ));
        }
        Ok(Built {
            graph,
            schedule,
            faults: plan,
        })
    }

    /// Content fingerprint over every field, on the same FNV-1a stream
    /// as [`aqt_sim::Schedule::content_hash`] and
    /// [`aqt_sim::FaultPlan::plan_id`]. Two scenarios with equal
    /// fingerprints describe the same run.
    pub fn fingerprint(&self) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        words.extend(self.topology.words());
        words.push(self.protocol.len() as u64);
        words.extend(self.protocol.bytes().map(u64::from));
        words.extend([self.seed, self.horizon, self.cadence, self.deep_stride]);
        words.push(self.injections.len() as u64);
        for inj in &self.injections {
            words.push(inj.time);
            words.extend(inj.cohort.words());
        }
        words.push(self.faults.len() as u64);
        for f in &self.faults {
            words.extend(f.words());
        }
        words.push(self.model.len() as u64);
        for m in &self.model {
            words.extend(m.words());
        }
        match &self.certificate {
            None => words.push(0),
            Some(c) => words.extend([
                1,
                c.window,
                c.rate.num(),
                c.rate.den(),
                c.d,
                c.initial,
                u64::from(c.time_priority),
            ]),
        }
        match &self.closed_loop {
            None => words.push(0),
            Some(cl) => {
                words.push(1);
                words.extend(cl.words());
            }
        }
        fnv1a_u64s(words)
    }

    /// The shrinker's size metric. Strictly decreasing weight is what
    /// "smaller repro" means: fewer/shorter routes, fewer packets,
    /// fewer fault entries, a smaller graph, a shorter run.
    pub fn weight(&self) -> u64 {
        self.topology.weight()
            + self.horizon
            + self
                .injections
                .iter()
                .map(|i| i.cohort.weight())
                .sum::<u64>()
            + self.faults.iter().map(FaultSpec::weight).sum::<u64>()
            + self.model.len() as u64
            + self.closed_loop.as_ref().map_or(0, ClosedLoopSpec::weight)
    }

    /// Bitmask of the constraint-member kinds present in the model:
    /// rate=1, window=2, burst-local=4, buffer-bound=8 (0 = no model).
    /// The coverage map's `Feature::Model` axis.
    pub fn model_mask(&self) -> u8 {
        let mut mask = 0u8;
        for m in &self.model {
            mask |= match m {
                ConstraintSpec::Rate(_) => 1,
                ConstraintSpec::Window { .. } => 2,
                ConstraintSpec::BurstLocal { .. } => 4,
                ConstraintSpec::BufferBound { .. } => 8,
            };
        }
        mask
    }

    /// This scenario as a Rust expression, for emitting ready-to-commit
    /// regression tests (see `CampaignReport::regression_test_source`).
    pub fn to_rust(&self) -> String {
        let injections: Vec<String> = self
            .injections
            .iter()
            .map(|i| {
                format!(
                    "InjectSpec {{ time: {}, cohort: {} }}",
                    i.time,
                    i.cohort.to_rust()
                )
            })
            .collect();
        let faults: Vec<String> = self.faults.iter().map(FaultSpec::to_rust).collect();
        let model: Vec<String> = self.model.iter().map(ConstraintSpec::to_rust).collect();
        let certificate = match &self.certificate {
            None => "None".into(),
            Some(c) => format!(
                "Some(CertificateSpec {{ window: {}, rate: Ratio::new({}, {}), d: {}, initial: {}, time_priority: {} }})",
                c.window,
                c.rate.num(),
                c.rate.den(),
                c.d,
                c.initial,
                c.time_priority
            ),
        };
        let closed_loop = match &self.closed_loop {
            None => "None".into(),
            Some(cl) => format!("Some({})", cl.to_rust()),
        };
        format!(
            "Scenario {{\n    topology: {},\n    protocol: \"{}\".into(),\n    seed: {},\n    horizon: {},\n    cadence: {},\n    deep_stride: {},\n    injections: vec![{}],\n    faults: vec![{}],\n    model: vec![{}],\n    certificate: {},\n    closed_loop: {},\n}}",
            self.topology.to_rust(),
            self.protocol,
            self.seed,
            self.horizon,
            self.cadence,
            self.deep_stride,
            injections.join(", "),
            faults.join(", "),
            model.join(", "),
            certificate,
            closed_loop
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        Scenario {
            topology: TopologySpec::Line(3),
            protocol: "FIFO".into(),
            seed: 7,
            horizon: 32,
            cadence: 1,
            deep_stride: 1,
            injections: vec![InjectSpec {
                time: 1,
                cohort: CohortSpec {
                    route: vec![0, 1, 2],
                    tag: 0,
                    count: 2,
                },
            }],
            faults: vec![FaultSpec::Drop { edge: 1, time: 4 }],
            model: vec![],
            certificate: None,
            closed_loop: None,
        }
    }

    fn loop_spec() -> ClosedLoopSpec {
        ClosedLoopSpec {
            num_clients: 4,
            think_time: 6,
            timeout: 5,
            max_attempts: 4,
            retry: RetrySpec::ExpBackoff(2, 16),
            capacity: 8,
            shed: ShedSpec::RejectNewest,
            pause: Some((10, 20)),
            path_len: 2,
        }
    }

    #[test]
    fn build_lowers_schedule_and_plan() {
        let b = base().build().unwrap();
        assert_eq!(b.graph.edge_count(), 3);
        assert_eq!(b.schedule.len(), 1);
        assert_eq!(b.schedule.injection_count(), 2);
        assert_eq!(b.faults.drops(), &[(EdgeId(1), 4)]);
    }

    #[test]
    fn build_rejects_bad_scenarios() {
        let mut s = base();
        s.injections[0].cohort.route = vec![0, 9];
        assert!(s.build().is_err());

        let mut s = base();
        s.injections[0].time = 0;
        assert!(s.build().is_err());

        let mut s = base();
        s.horizon = 2;
        assert!(s.build().is_err(), "horizon below the last fault event");

        let mut s = base();
        s.cadence = 0;
        assert!(s.build().is_err());

        let mut s = base();
        // Non-consecutive edges on a line: Route::new must refuse.
        s.injections[0].cohort.route = vec![0, 2];
        assert!(s.build().is_err());

        let mut s = base();
        // Closed-loop scenarios generate their own injections; an
        // open-loop schedule riding along is a generator bug.
        s.closed_loop = Some(loop_spec());
        assert!(s.build().is_err());
        s.injections.clear();
        assert!(s.build().is_err(), "faults must also be empty");
        s.faults.clear();
        assert!(s.build().is_ok());
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let s = base();
        let f = s.fingerprint();
        assert_eq!(f, base().fingerprint(), "fingerprint is deterministic");
        let mut t = s.clone();
        t.seed += 1;
        assert_ne!(f, t.fingerprint());
        let mut t = s.clone();
        t.protocol = "LIS".into();
        assert_ne!(f, t.fingerprint());
        let mut t = s.clone();
        t.deep_stride += 1;
        assert_ne!(f, t.fingerprint());
        let mut t = s.clone();
        t.injections[0].cohort.count = 3;
        assert_ne!(f, t.fingerprint());
        let mut t = s.clone();
        t.faults.clear();
        assert_ne!(f, t.fingerprint());
        let mut t = s.clone();
        t.certificate = Some(CertificateSpec {
            window: 1,
            rate: aqt_sim::Ratio::new(1, 2),
            d: 1,
            initial: 0,
            time_priority: false,
        });
        assert_ne!(f, t.fingerprint());
        let mut t = s.clone();
        t.model = vec![ConstraintSpec::Rate(aqt_sim::Ratio::new(1, 2))];
        assert_ne!(f, t.fingerprint());
        let mut u = t.clone();
        u.model = vec![ConstraintSpec::BufferBound { bound: 3 }];
        assert_ne!(t.fingerprint(), u.fingerprint());
        let mut t = s.clone();
        t.closed_loop = Some(loop_spec());
        assert_ne!(f, t.fingerprint());
        let mut u = t.clone();
        u.closed_loop = Some(ClosedLoopSpec {
            shed: ShedSpec::LifoFlip,
            ..loop_spec()
        });
        assert_ne!(t.fingerprint(), u.fingerprint());
    }

    #[test]
    fn closed_loop_weight_and_shrinks_are_strictly_smaller() {
        let spec = loop_spec();
        let mut s = base();
        s.injections.clear();
        s.faults.clear();
        let open_weight = s.weight();
        s.closed_loop = Some(spec);
        assert!(s.weight() > open_weight, "the spec has weight");
        let cands = spec.shrink_candidates();
        assert!(!cands.is_empty());
        for cand in cands {
            assert!(
                cand.weight() < spec.weight(),
                "{cand:?} not smaller than {spec:?}"
            );
        }
    }

    #[test]
    fn model_mask_reflects_member_kinds() {
        let mut s = base();
        assert_eq!(s.model_mask(), 0);
        s.model = vec![ConstraintSpec::Rate(aqt_sim::Ratio::new(1, 2))];
        assert_eq!(s.model_mask(), 1);
        s.model.push(ConstraintSpec::BurstLocal {
            rho: aqt_sim::Ratio::new(1, 4),
            sigma: 2,
            locality: 4,
        });
        assert_eq!(s.model_mask(), 1 | 4);
        s.model.push(ConstraintSpec::Window {
            window: 8,
            rate: aqt_sim::Ratio::new(1, 2),
        });
        s.model.push(ConstraintSpec::BufferBound { bound: 1 });
        assert_eq!(s.model_mask(), 15);
    }

    #[test]
    fn weight_decreases_under_obvious_shrinks() {
        let s = base();
        let mut smaller = s.clone();
        smaller.injections[0].cohort.count = 1;
        assert!(smaller.weight() < s.weight());
        let mut smaller = s.clone();
        smaller.faults.clear();
        assert!(smaller.weight() < s.weight());
        let mut smaller = s.clone();
        smaller.topology = TopologySpec::Line(2);
        smaller.injections[0].cohort.route = vec![0, 1];
        assert!(smaller.weight() < s.weight());
    }

    #[test]
    fn topology_shrink_candidates_are_strictly_smaller() {
        for spec in [
            TopologySpec::Line(4),
            TopologySpec::Ring(5),
            TopologySpec::Grid(3, 2),
            TopologySpec::Hypercube(3),
            TopologySpec::Complete(4),
        ] {
            for cand in spec.shrink_candidates() {
                assert!(
                    cand.weight() < spec.weight(),
                    "{cand:?} not smaller than {spec:?}"
                );
            }
        }
        assert!(TopologySpec::Line(1).shrink_candidates().is_empty());
    }

    #[test]
    fn to_rust_round_trips_through_the_compiler_shape() {
        // Not compiled here, but pin the shape so the emitter's output
        // stays a valid expression of this module's types.
        let src = base().to_rust();
        assert!(src.contains("TopologySpec::Line(3)"));
        assert!(src.contains("CohortSpec { route: vec![0, 1, 2], tag: 0, count: 2 }"));
        assert!(src.contains("FaultSpec::Drop { edge: 1, time: 4 }"));
        assert!(src.contains("deep_stride: 1,\n    injections: vec!["));
        assert!(src.contains("model: vec![]"));
        assert!(src.contains("certificate: None"));

        let mut s = base();
        s.model = vec![
            ConstraintSpec::Rate(aqt_sim::Ratio::new(1, 2)),
            ConstraintSpec::BufferBound { bound: 3 },
        ];
        let src = s.to_rust();
        assert!(src.contains(
            "model: vec![ConstraintSpec::Rate(Ratio::new(1, 2)), \
             ConstraintSpec::BufferBound { bound: 3 }]"
        ));

        let mut s = base();
        s.injections.clear();
        s.faults.clear();
        s.closed_loop = Some(loop_spec());
        let src = s.to_rust();
        assert!(src.contains(
            "closed_loop: Some(ClosedLoopSpec { num_clients: 4, think_time: 6, \
             timeout: 5, max_attempts: 4, retry: RetrySpec::ExpBackoff(2, 16), \
             capacity: 8, shed: ShedSpec::RejectNewest, pause: Some((10, 20)), \
             path_len: 2 })"
        ));
    }
}
