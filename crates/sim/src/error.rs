//! The workspace error hierarchy.
//!
//! Two roots:
//!
//! * [`SimError`] — anything that goes wrong *inside* a simulation:
//!   engine errors (adversary constraint violations, protocol contract
//!   breaches), checkpoint mismatches. One simulation failing is a
//!   result, not a crash; experiment drivers convert a `SimError` into
//!   a structured report entry.
//! * [`crate::parallel::HarnessError`] — anything that goes wrong in
//!   the machinery *around* simulations: a sweep job that panicked or
//!   failed and was quarantined. Harness errors carry enough context
//!   (job index, panic payload or error) to re-run the one poisoned
//!   job.

use crate::engine::EngineError;
use crate::parallel::HarnessError;
use crate::sentinel::ViolationReport;

/// Top-level simulation error.
#[derive(Debug)]
pub enum SimError {
    /// The engine rejected an operation or detected a violation.
    Engine(EngineError),
    /// A checkpoint could not be restored into the target engine.
    Checkpoint(String),
    /// A snapshot carried an unsupported schema version (produced by
    /// an older or newer build of this crate).
    SchemaMismatch {
        /// The version stamped on the snapshot.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// A sentinel invariant at `Severity::Halt` was violated. Carries
    /// the full report: what failed, when, and a minimal reproduction
    /// bundle (seed, step, snapshot, fault plan).
    InvariantViolated(Box<ViolationReport>),
    /// Checked arithmetic overflowed in rate/ratio hot-path math.
    Overflow {
        /// The operation that overflowed (static label).
        op: &'static str,
    },
    /// The surrounding harness failed (a quarantined sweep job).
    Harness(HarnessError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Engine(e) => write!(f, "{e}"),
            SimError::Checkpoint(s) => write!(f, "checkpoint restore failed: {s}"),
            SimError::SchemaMismatch { found, expected } => write!(
                f,
                "snapshot schema version {found} is not supported (this build reads version {expected})"
            ),
            SimError::InvariantViolated(r) => write!(f, "{r}"),
            SimError::Overflow { op } => write!(f, "arithmetic overflow in {op}"),
            SimError::Harness(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Engine(e) => Some(e),
            SimError::Harness(e) => Some(e),
            SimError::Checkpoint(_) => None,
            SimError::SchemaMismatch { .. } => None,
            SimError::InvariantViolated(_) => None,
            SimError::Overflow { .. } => None,
        }
    }
}

impl From<EngineError> for SimError {
    fn from(e: EngineError) -> Self {
        match e {
            // Surface a halting sentinel violation under its own typed
            // variant so callers can extract the repro bundle without
            // digging through the engine error.
            EngineError::Invariant(r) => SimError::InvariantViolated(r),
            other => SimError::Engine(other),
        }
    }
}

impl From<HarnessError> for SimError {
    fn from(e: HarnessError) -> Self {
        SimError::Harness(e)
    }
}

impl From<aqt_graph::RouteError> for SimError {
    fn from(e: aqt_graph::RouteError) -> Self {
        SimError::Engine(EngineError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: SimError = EngineError::Usage("nope".into()).into();
        assert!(e.to_string().contains("nope"));
        let h: SimError = HarnessError::JobQuarantined {
            index: 3,
            message: "boom".into(),
        }
        .into();
        assert!(h.to_string().contains("3"));
        let c = SimError::Checkpoint("graph mismatch".into());
        assert!(c.to_string().contains("graph mismatch"));
        let s = SimError::SchemaMismatch {
            found: 1,
            expected: 2,
        };
        assert!(s.to_string().contains("version 1"));
        assert!(s.to_string().contains("version 2"));
    }
}
