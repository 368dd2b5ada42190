//! # aqt-sim
//!
//! An exact discrete-time simulator for the adversarial queuing model
//! of Borodin et al., as used in *New stability results for adversarial
//! queuing* (Lotker, Patt-Shamir, Rosén; SPAA 2002).
//!
//! ## The model (Section 2 of the paper, implemented verbatim)
//!
//! The network is a directed graph; each edge has a buffer at its tail.
//! Time proceeds in global steps. Each step has two substeps:
//!
//! 1. one packet is sent from each nonempty buffer over its link
//!    (which packet is the *protocol*'s choice — see [`Protocol`]);
//! 2. sent packets are received: absorbed at their destination or
//!    placed in the next buffer of their route; then new packets are
//!    injected by the adversary.
//!
//! ## What this crate adds beyond the bare model
//!
//! * [`rate`] — the adversary-constraint algebra: *exact*
//!   integer-arithmetic enforcement of the paper's two adversary
//!   classes (the rate-r adversary of Section 3 and the `(w,r)`
//!   adversary of Definition 2.1) plus the locally bursty `(ρ,σ,L)`
//!   and buffer-bound-`B` classes from the related work, composable
//!   member-wise into an [`rate::AdversaryModel`]. Every experiment in
//!   this repository runs its adversary through a model, so a schedule
//!   that would exceed the allowed injection rate fails loudly rather
//!   than producing a vacuous "instability" result.
//! * On-line rerouting of in-flight packets (the technique of
//!   Lemma 3.3), including streaming validation of the *effective*
//!   adversary `A'` that injects the final (extended) routes.
//! * [`metrics::Metrics`] — queue peaks, per-buffer waiting times
//!   (the quantity bounded by Theorems 4.1/4.3), backlog time series.
//! * [`fault::FaultPlan`] — deterministic fault injection (edge
//!   outages, in-transit drops/duplications, mid-run `S`-bursts), the
//!   substrate for the recovery experiments around Observation 4.4.
//! * [`checkpoint`] — full-state checkpoints (validators included) so
//!   long runs survive interruption and resume bit-for-bit.
//! * [`parallel`] — a crash-safe scoped thread-pool for embarrassingly
//!   parallel parameter sweeps (per-job panic and error isolation,
//!   quarantine after one attempt).
//! * [`observe`] — the queue observatory: fixed-cadence per-edge
//!   backlog records with a certificate-margin tracker, deterministic
//!   1-in-N packet-lifecycle span sampling, exported through the telemetry
//!   sinks for the offline analyzer (`examples/observatory.rs`).
//! * [`sentinel`] / [`oracle`] — runtime self-verification: pluggable
//!   invariants (packet conservation, unit-speed capacity, route
//!   progress, snapshot integrity, theorem-derived wait bounds)
//!   checked at a configurable cadence under one severity policy,
//!   plus a lockstep differential oracle diffing the optimized
//!   pipeline against a naive reference engine.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod observe;
pub mod oracle;
pub mod packet;
pub mod parallel;
pub mod protocol;
pub mod rate;
pub mod ratio;
pub mod routes;
pub mod schedule;
pub mod sentinel;
pub mod snapshot;
pub mod telemetry;

pub use buffer::BufferStore;
pub use checkpoint::Checkpoint;
pub use engine::{Absorption, Engine, EngineConfig, EngineError, Injection};
pub use error::SimError;
pub use fault::{FaultEvent, FaultPlan, FaultPlanError};
pub use metrics::Metrics;
pub use observe::{Observe, ObserveConfig, SpanRec};
pub use oracle::{Oracle, ReferenceModel};
pub use packet::{Packet, PacketId, Time};
pub use parallel::{run_sim_sweep, HarnessError, JobFailure, JobOutcome, SweepReport};
pub use protocol::{Discipline, Protocol, SelectKey};
pub use rate::{
    AdversaryModel, AdversaryModelSpec, BufferBoundValidator, BurstLocalValidator, Constraint,
    ConstraintSpec, ConstraintValidator, RateValidator, RateViolation, WindowValidator,
};
pub use ratio::Ratio;
pub use routes::{fnv1a_u64s, RouteId, RouteTable};
pub use schedule::{Schedule, ScheduleOp};
pub use sentinel::{
    CertificateSpec, InvariantKind, ReproBundle, Sentinel, SentinelConfig, SentinelState, Severity,
    Violation, ViolationReport,
};
pub use snapshot::{Snapshot, SNAPSHOT_SCHEMA_VERSION};
pub use telemetry::{
    JsonlSink, Log2Histogram, Provenance, RingSink, SharedSink, SpanKind, StageTimings, TeeSink,
    Telemetry, TelemetryConfig, TelemetryCounters, TelemetryEvent, TelemetryLevel, TelemetrySink,
    WorkloadCounters, TELEMETRY_SCHEMA_VERSION,
};
