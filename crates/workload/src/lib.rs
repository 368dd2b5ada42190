//! # aqt-workload
//!
//! A closed-loop request/reply workload layer over the `aqt-sim`
//! engine — the feedback-governed adversary the paper's open-loop
//! stability thresholds do not cover.
//!
//! The open-loop model of *New stability results for adversarial
//! queuing* fixes the injection sequence in advance; a real service
//! reacts to its own latency. [`ClientPopulation`] holds a fixed pool
//! of clients that issue requests, wait for replies with a timeout,
//! and retry per a [`RetryPolicy`] — so when queueing delay exceeds
//! the timeout, *injections increase with latency* and the network
//! serves ever-staler work. [`ServicePolicy`] puts a bounded admission
//! queue with a [`Shed`] discipline in front of the network, and the
//! [`GoodputMeter`] splits raw throughput into goodput (on-time
//! completions) and wasted work (completions after abandonment). The
//! [`ClosedLoop`] driver wires all of it to the engine, one step at a
//! time.
//!
//! Three properties carry over from the rest of the repository:
//!
//! * **Determinism** — the whole loop is a pure function of
//!   [`ClosedLoopConfig::seed`]; the realized injections are recorded
//!   as a [`aqt_sim::Schedule`] for bit-identical open-loop replay,
//!   and [`WorkloadCheckpoint`] resumes runs bit-for-bit (fail-closed
//!   on schema mismatch).
//! * **Validation** — realized injections run through the same
//!   [`aqt_sim::rate::AdversaryModelSpec`] trackers as open-loop
//!   adversaries.
//! * **Self-checking** — every step enforces *request conservation*
//!   (`issued = completed + abandoned + shed + in-flight`,
//!   [`aqt_sim::InvariantKind::RequestConservation`]); a leak
//!   produces a full [`aqt_sim::ViolationReport`] with a
//!   [`aqt_sim::ReproBundle`].
//!
//! Experiment E17 (`aqt-core`) sweeps timeout × retry policy ×
//! queue bound over this crate to map the congestion-collapse
//! frontier; `examples/retry_storm.rs` is the runnable demo.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod driver;
pub mod meter;
pub mod policy;
pub mod population;
pub mod rng;

pub use checkpoint::{WorkloadCheckpoint, WorkloadState, WORKLOAD_SCHEMA_VERSION};
pub use driver::{baseline_config, ClosedLoop, ClosedLoopConfig, QueuedAttempt, WorkloadError};
pub use meter::GoodputMeter;
pub use policy::{RetryPolicy, ServicePolicy, Shed};
pub use population::{ClientConfig, ClientPopulation, ClientState, Issue, ReplyClass};
pub use rng::Rng64;
