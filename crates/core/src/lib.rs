//! # aqt-core
//!
//! The headline results of *New stability results for adversarial
//! queuing* (Lotker, Patt-Shamir, Rosén; SPAA 2002) as a library:
//!
//! * [`instability::InstabilityConstruction`] — **Theorem 3.17**: for
//!   every `ε > 0` there is a network `G_ε` and a rate-`(1/2 + ε)`
//!   adversary under which FIFO is unstable. One call builds the
//!   network, composes the adversaries of Lemmas 3.15, 3.13/3.6 and
//!   3.16, runs them under exact rate validation, and reports the
//!   measured queue blow-up per iteration.
//! * [`theory::StabilityCertificate`] — **Theorems 4.1/4.3,
//!   Corollaries 4.5/4.6**: closed-form per-buffer delay bounds
//!   (`⌈wr⌉`, and their initial-configuration variants) for greedy and
//!   time-priority protocols, plus runtime monitors that check a
//!   simulation never exceeds them.
//! * [`verify`] — the gadget invariant `C(S, F_n)` of Definition 3.5
//!   as an executable check.
//! * [`experiments`] — typed runners for every experiment in
//!   `EXPERIMENTS.md` (E1–E17), shared by the integration tests and the
//!   examples.
//! * [`report`] — one table renderer per experiment, at reduced or
//!   full scale: what `examples/full_report.rs` prints.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod instability;
pub mod report;
pub mod theory;
pub mod verify;

pub use instability::{InstabilityConfig, InstabilityConstruction, InstabilityRun};
pub use theory::StabilityCertificate;
