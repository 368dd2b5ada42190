//! # aqt-campaign
//!
//! A coverage-directed adversarial campaign harness for the AQT
//! simulator: long-horizon fuzzing over the topology × protocol ×
//! adversary × fault space, with every invariant breach captured as an
//! [`aqt_sim::ReproBundle`] and auto-minimized into a ready-to-commit
//! regression test.
//!
//! The invariants themselves live in `aqt-sim` (the sentinel, the
//! differential oracle, the adversary validators) and are cataloged in
//! the repository's `INVARIANTS.md`. This crate is the *search* side
//! of that contract: where the sentinel asks "does this invariant hold
//! right now?", the campaign asks "is there any reachable run where it
//! doesn't?".
//!
//! ## The loop
//!
//! 1. **Draw** a [`Scenario`] — plain data pinning topology, protocol,
//!    seed, horizon, injection schedule, fault plan, an
//!    adversary-constraint model (a composition of
//!    [`aqt_sim::ConstraintSpec`] members the schedule is legalized
//!    against, and the engine re-validates), and optionally a theorem
//!    certificate ([`generator`]). Draws are steered toward the
//!    behavior regions the [`coverage`] map has exercised least.
//! 2. **Run** it under an all-halt sentinel with counter telemetry
//!    ([`run`]). Telemetry totals and metric peaks become coverage
//!    features; novelty promotes the scenario into the [`corpus`].
//! 3. **Capture**: a halting violation surfaces as
//!    [`run::Outcome::Breach`] with the engine's own
//!    [`aqt_sim::ViolationReport`] (seed, step, snapshot, fault plan).
//! 4. **Minimize** ([`shrink()`]): greedy deterministic descent over
//!    scenario reductions, accepting only candidates whose re-run
//!    breaches the same invariant — the minimum is a verified repro by
//!    construction, emitted as Rust test source
//!    ([`campaign::Finding::regression_test_source`]).
//!
//! The whole campaign is a pure function of its seed
//! ([`campaign::CampaignConfig::seed`]), so "the campaign found a bug"
//! is itself a reproducible statement.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod generator;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, Finding};
pub use corpus::Corpus;
pub use coverage::{bucket, features_of, CoverageMap, Feature};
pub use generator::{generate, mutate, GeneratorConfig};
pub use run::{protocol_index, run_scenario, Outcome, RunStats};
pub use scenario::{
    Built, ClosedLoopSpec, CohortSpec, FaultSpec, InjectSpec, RetrySpec, Scenario, ShedSpec,
    TopologySpec,
};
pub use shrink::{shrink, ShrinkOutcome};
